"""Output bytes pinned across commits.

Each case runs one subcommand through ``cli.main`` on a seeded TSV and
compares the sha256 of the output file and of its manifest with the digests
below. A change that alters these bytes on purpose updates the digests and
names the changed outputs, and why, in CHANGES.md; any other digest
mismatch is a regression.
"""

import hashlib

import pytest

from dpmi.cli import main

DP = ("--epsilon", "2.0", "--delta", "1e-3", "--contribution-limit", "2", "--seed", "7")

# (command, flags) -> (sha256 of the output, sha256 of <output>.manifest.jsonl)
GOLDEN = {
    ("rank", "nodp"): ("fb723a247b1a2f232991182061185a91c3151beb77142c68fbee1eaa00dc4a00",
                       "a56405d4a407a8a1f636163dd67deb939b180327158847e1bab50ffb78b5d514"),
    ("flip", "nodp"): ("203cfe1211a1d71c8464d5cc413c2bc67dcc778e00aea85720a8a762297b7941",
                       "a56405d4a407a8a1f636163dd67deb939b180327158847e1bab50ffb78b5d514"),
    ("aggregate", "nodp"): ("ec5a18ff59d9121d3075162f417cd5eb48b3f976279f80d23e5ca79828da297f",
                            "ee3490639e1b3482f2acb30f0df764846892468320b434511bd83e902e98e1c9"),
    ("rank", "dp"): ("ee4e0e0d69b508981e3783586a903c38fffa7bdc6d7db00603fc2672159fc153",
                     "0d077de6da4e9866f3f5275858599db9b88a233ba1f16e0950c0438d07d0563a"),
    ("flip", "dp"): ("c7d2700cbd4efc32e030bfa7f341cb62a756cdbbb15e1162527bf402b8a81310",
                     "0d077de6da4e9866f3f5275858599db9b88a233ba1f16e0950c0438d07d0563a"),
    ("aggregate", "dp"): ("5b18a2ea355d3e2bc9ee2b1e24604dc13f43b53e18db6cb29a99ff371e83a048",
                          "b044ece5682c693db20a6f98ccaad9ce667251c49fd34334ea740cb82af59436"),
}


def _seeded_tsv(path, users=3000, seed=20240917):
    """Up to three rows per user from a 64-bit LCG: 40 features, 6 partitions.

    A user's partition leans towards features of its own stripe, so the
    ranking has a head; observations run past the default clamp of [0, 1].
    """
    state = seed

    def draw(n):
        nonlocal state
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        return (state >> 33) % n

    lines = ["id\tfeature\tpartition\tobservation"]
    for u in range(users):
        partition = draw(6)
        for _ in range(1 + draw(3)):
            feature = partition + 6 * draw(6) if draw(10) < 7 else draw(40)
            obs = draw(150) / 100
            lines.append(f"u{u:04d}\tf{feature:02d}\tp{partition}\t{obs}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


@pytest.mark.parametrize("command,mode", sorted(GOLDEN))
def test_output_bytes_match_the_pinned_digests(tmp_path, command, mode):
    inp = _seeded_tsv(tmp_path / "in.tsv")
    out = str(tmp_path / f"{command}.out")
    flags = ("--no-dp",) if mode == "nodp" else DP
    assert main([command, "--input", inp, "--output", out, *flags]) == 0
    got = (_sha256(out), _sha256(out + ".manifest.jsonl"))
    assert got == GOLDEN[(command, mode)]
