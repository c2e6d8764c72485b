"""Output bytes pinned across commits.

Each case runs one subcommand through ``cli.main`` on a seeded TSV and
compares the sha256 of the output file and of its manifest with the digests
below; a DP rank of the same lines in a shuffled order, and each command on
the same rows as JSON lines, must match them too. A small JSON-lines file
pins the reason ingest gives each kind of line. The later cases pin the paths no single command covers: JSON-lines
output (with ``--top-k`` on one case), ranking a saved DP aggregate file, a
two-stage DP fold, ``eval``'s two files (once with a stability epsilon outside
the sweep's, once with one inside it and repeated), and a ragged input that
spans several read blocks and holds every kind of line ingest tells apart. A
change that alters these bytes on purpose updates the digests and names the
changed outputs, and why, in CHANGES.md; any other digest mismatch is a
regression.
"""

import hashlib
import json
import os
from collections import Counter

import numpy as np
import pytest

from dpmi.cli import main, read_records

DP = ("--epsilon", "2.0", "--delta", "1e-3", "--contribution-limit", "2", "--seed", "7")

# (command, flags) -> (sha256 of the output, sha256 of <output>.manifest.jsonl)
GOLDEN = {
    ("rank", "nodp"): ("fb723a247b1a2f232991182061185a91c3151beb77142c68fbee1eaa00dc4a00",
                       "a56405d4a407a8a1f636163dd67deb939b180327158847e1bab50ffb78b5d514"),
    ("flip", "nodp"): ("203cfe1211a1d71c8464d5cc413c2bc67dcc778e00aea85720a8a762297b7941",
                       "a56405d4a407a8a1f636163dd67deb939b180327158847e1bab50ffb78b5d514"),
    ("aggregate", "nodp"): ("ec5a18ff59d9121d3075162f417cd5eb48b3f976279f80d23e5ca79828da297f",
                            "ee3490639e1b3482f2acb30f0df764846892468320b434511bd83e902e98e1c9"),
    ("rank", "dp"): ("1eec6c1f8bc5f20197765457127c8eca29b2a9551fbbc22a2431695c93d8b0e9",
                     "0d077de6da4e9866f3f5275858599db9b88a233ba1f16e0950c0438d07d0563a"),
    ("flip", "dp"): ("fbf84d3e487176060cdce541aaebe67499905cc683fe6f77a085efa08f846506",
                     "0d077de6da4e9866f3f5275858599db9b88a233ba1f16e0950c0438d07d0563a"),
    ("aggregate", "dp"): ("9b64a6d43fb1fbd2767ccfa936bcf3b1d99f7a26d96fa46e6505d46c9ccef33b",
                          "08eddb6b805dac4a2048d0d921aa25f512493e8ec9e442c8e66e3e9607373861"),
}


def _lcg(seed):
    """draw(n): the next state of a 64-bit LCG, reduced to range(n)."""
    state = seed

    def draw(n):
        nonlocal state
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        return (state >> 33) % n

    return draw


def _seeded_tsv(path, users=3000, seed=20240917):
    """Up to three rows per user from a 64-bit LCG: 40 features, 6 partitions.

    A user's partition leans towards features of its own stripe, so the
    ranking has a head; observations run past the default clamp of [0, 1].
    """
    draw = _lcg(seed)
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


def test_dp_rank_of_shuffled_lines_matches_the_pinned_digests(tmp_path):
    # bounding must not read the input order: the body lines in a fixed
    # shuffled order give the pinned DP rank bytes
    _seeded_tsv(tmp_path / "in.tsv")
    head, *body = (tmp_path / "in.tsv").read_text(encoding="utf-8").splitlines()
    draw = _lcg(20241021)
    for i in range(len(body) - 1, 0, -1):  # Fisher-Yates
        j = draw(i + 1)
        body[i], body[j] = body[j], body[i]
    inp = tmp_path / "shuffled.tsv"
    inp.write_text("\n".join([head, *body]) + "\n", encoding="utf-8")
    out = str(tmp_path / "rank.out")
    assert main(["rank", "--input", str(inp), "--output", out, *DP]) == 0
    assert (_sha256(out), _sha256(out + ".manifest.jsonl")) == GOLDEN[("rank", "dp")]


def _seeded_jsonl(path):
    """``_seeded_tsv``'s rows as JSON lines, observations as JSON numbers: about 446 kB."""
    head, *body = open(_seeded_tsv(path.with_suffix(".tsv")), encoding="utf-8").read().splitlines()
    names = head.split("\t")
    with open(path, "w", encoding="utf-8") as fh:
        for line in body:
            *keys, obs = line.split("\t")
            fh.write(json.dumps(dict(zip(names, (*keys, float(obs))))) + "\n")
    return str(path)


@pytest.mark.parametrize("command,mode", sorted(GOLDEN))
def test_jsonl_input_matches_the_pinned_digests(tmp_path, command, mode):
    # the same rows as JSON lines, over several 64 KiB reads, write the same bytes
    inp = _seeded_jsonl(tmp_path / "in.jsonl")
    assert os.path.getsize(inp) > 6 * 65536
    out = str(tmp_path / f"{command}.out")
    flags = ("--no-dp",) if mode == "nodp" else DP
    assert main([command, "--input", inp, "--output", out, *flags]) == 0
    got = (_sha256(out), _sha256(out + ".manifest.jsonl"))
    assert got == GOLDEN[(command, mode)]


def U3(observation):
    """A JSON line of a row whose keys are valid, holding the ``observation`` text."""
    return '{"id": "u3", "feature": "f1", "partition": "p1", "observation": %s}' % observation

# (the reason ingest rejects the line for, or None if it is not rejected; a
# JSON line), covering every kind of line JSON-lines ingest tells apart
JSONL_LINES = (
    (None, '{"id": "u1", "feature": "f1", "partition": "p1", "observation": 0.5}'),
    (None, '{"id": 7, "feature": 1.5, "partition": "p1", "observation": "2"}'),
    (None, '{"observation": -0.0, "partition": "p2", "feature": "f1", "id": "u2", "x": [1]}'),
    (None, ""),
    ("parse", "   "),
    ("parse", '{"id": "u1", '),
    ("fields", '["u1", "f1", "p1", 1]'),
    ("fields", '"u1"'),
    ("fields", '{"id": "u1", "feature": "f1", "partition": "p1"}'),
    ("empty_key", '{"id": null, "feature": "f1", "partition": "p1", "observation": 1}'),
    ("empty_key", '{"id": "u3", "feature": "", "partition": "p1", "observation": 1}'),
    ("reserved", '{"id": "u3", "feature": "__other__", "partition": "p1", "observation": 1}'),
    ("parse", '{"id": "u3", "feature": "f1", "partition": true, "observation": 1}'),
    ("parse", '{"id": ["u3"], "feature": "f1", "partition": "p1", "observation": 1}'),
    ("parse", '{"id": "u3", "feature": {}, "partition": "p1", "observation": 1}'),
    ("parse", U3("false")),
    ("parse", U3("null")),
    ("parse", U3("[1]")),
    ("parse", U3('"n/a"')),
    ("parse", U3("1" + "0" * 5000)),  # past the integer digit limit
    ("non_finite", U3("1e400")),
    ("non_finite", U3("1" + "0" * 400)),  # past the float range
    ("non_finite", U3("NaN")),
    ("non_finite", U3('"inf"')),
    ("negative", U3("-0.25")),
    ("negative", U3('"-1"')),
)


def test_jsonl_input_rejects_match_the_pinned_counts(tmp_path):
    # after a BOM, every other line ends in CRLF
    path = tmp_path / "in.jsonl"
    path.write_bytes(("\ufeff" + "".join(line + ("\r\n" if i % 2 else "\n")
                                    for i, (_, line) in enumerate(JSONL_LINES))).encode())
    cols, rejects, rows_read = read_records(str(path), ("id", "feature", "partition",
                                                        "observation"))
    assert rejects == Counter(reason for reason, _ in JSONL_LINES if reason) == Counter(
        parse=10, fields=3, empty_key=2, reserved=1, non_finite=4, negative=2)
    assert rows_read == 25
    assert (cols.id_keys, cols.feature_keys, cols.partition_keys) == (
        ["7", "u1", "u2"], ["1.5", "f1"], ["p1", "p2"])
    assert cols.observations.tobytes() == np.array([0.5, 2.0, -0.0]).tobytes()


# command -> (its flags, sha256 of the output, sha256 of <output>.manifest.jsonl),
# for JSON-lines output: a no-DP rank cut by --top-k, and a DP flip
GOLDEN_JSONL = {
    "rank": (("--no-dp", "--top-k", "25"),
             "97d26c7fb8e60c7a03b7d48420b11ca5a30277d528b6ef5fee2b379d13da21de",
             "a56405d4a407a8a1f636163dd67deb939b180327158847e1bab50ffb78b5d514"),
    "flip": (DP,
             "f5dc9351a854527f3358d9a1615f315fe36d77f7f7bc6897f9e7922e5b43f0e6",
             "0d077de6da4e9866f3f5275858599db9b88a233ba1f16e0950c0438d07d0563a"),
}


@pytest.mark.parametrize("command", sorted(GOLDEN_JSONL))
def test_jsonl_output_matches_the_pinned_digests(tmp_path, command):
    flags, *digests = GOLDEN_JSONL[command]
    inp = _seeded_tsv(tmp_path / "in.tsv")
    out = str(tmp_path / f"{command}.jsonl")
    assert main([command, "--input", inp, "--output", out, "--output-format", "jsonl",
                 *flags]) == 0
    assert [_sha256(out), _sha256(out + ".manifest.jsonl")] == digests


# command -> (sha256 of the output, sha256 of <output>.manifest.jsonl), for
# rank and flip reading the aggregate file that `aggregate` released with DP
GOLDEN_FROM_AGGREGATE = {
    "rank": ("1eec6c1f8bc5f20197765457127c8eca29b2a9551fbbc22a2431695c93d8b0e9",
             "a56405d4a407a8a1f636163dd67deb939b180327158847e1bab50ffb78b5d514"),
    "flip": ("fbf84d3e487176060cdce541aaebe67499905cc683fe6f77a085efa08f846506",
             "a56405d4a407a8a1f636163dd67deb939b180327158847e1bab50ffb78b5d514"),
}


@pytest.mark.parametrize("command", sorted(GOLDEN_FROM_AGGREGATE))
def test_ranking_a_saved_dp_aggregate_matches_the_pinned_digests(tmp_path, command):
    inp = _seeded_tsv(tmp_path / "in.tsv")
    agg = str(tmp_path / "agg.jsonl")
    assert main(["aggregate", "--input", inp, "--output", agg, *DP]) == 0
    out = str(tmp_path / f"{command}.out")
    assert main([command, "--aggregate", agg, "--output", out]) == 0
    got = (_sha256(out), _sha256(out + ".manifest.jsonl"))
    assert got == GOLDEN_FROM_AGGREGATE[command]


# file -> sha256, for a two-stage DP fold: stage 1 seeded from the p0 stripe,
# stage 2 from stage 1's top Presence features
GOLDEN_FOLD = {
    "folds.fold1.tsv": "ac0b201381d556d1843808120b83def30c2ad64b2872698ac1043381f9334198",
    "folds.fold2.tsv": "565202940b6ecd44dfa3a845131e3980c0fa9dfd47c3c4c85c07a7992472b784",
    "folds.manifest.jsonl": "0bf8a0f4a442f2f6a6a543af5080d1de05689e364c239ea3b64daf1c37e0d346",
}


def test_two_stage_dp_fold_matches_the_pinned_digests(tmp_path, monkeypatch):
    stage1 = _seeded_tsv(tmp_path / "stage1.tsv")
    stage2 = _seeded_tsv(tmp_path / "stage2.tsv", seed=20240918)
    monkeypatch.chdir(tmp_path)  # the manifest records each stage's output path
    argv = ["fold", "--input", stage1, "--input", stage2, "--output", "folds",
            "--epsilon", "4.0", "--fold-epsilons", "2.0,2.0", "--seeds", "f00,f06",
            "--delta", "1e-3", "--contribution-limit", "2", "--seed", "7"]
    assert main(argv) == 0
    assert {name: _sha256(tmp_path / name) for name in GOLDEN_FOLD} == GOLDEN_FOLD


# one malformed row per rejection reason, filled from (user, feature, partition)
MALFORMED = (
    ("fields", "u{0:04d}\tf{1:02d}"),
    ("empty_key", "\tf{1:02d}\tp{2}\t0.5"),
    ("reserved", "u{0:04d}\t__other__\tp{2}\t0.5"),
    ("parse", "u{0:04d}\tf{1:02d}\tp{2}\tn/a"),
    ("non_finite", "u{0:04d}\tf{1:02d}\tp{2}\t1e400"),
    ("negative", "u{0:04d}\tf{1:02d}\tp{2}\t-0.25"),
)


def _ragged_tsv(path, users=6000, seed=20241020):
    """A seeded TSV of about 230 kB, several 64 KiB reads, that ingest must sort out.

    Rows are drawn as in ``_seeded_tsv``. About one row in 25 is followed by
    a malformed row (``MALFORMED``, every reason), one in 40 by a blank
    line, and one line in three ends in CRLF. Users 7 and 4321 each add a
    valid row with a fifth field.
    """
    draw = _lcg(seed)
    lines = ["id\tfeature\tpartition\tobservation"]
    for u in range(users):
        partition = draw(6)
        for _ in range(1 + draw(3)):
            feature = partition + 6 * draw(6) if draw(10) < 7 else draw(40)
            lines.append(f"u{u:04d}\tf{feature:02d}\tp{partition}\t{draw(150) / 100}")
            if draw(25) == 0:
                lines.append(MALFORMED[draw(len(MALFORMED))][1].format(u, feature, partition))
            if draw(40) == 0:
                lines.append("")
        if u in (7, 4321):
            lines.append(f"u{u:04d}\tf{partition:02d}\tp{partition}\t0.75\textra")
    text = "".join(line + ("\r\n" if draw(3) == 0 else "\n") for line in lines)
    path.write_bytes(text.encode("utf-8"))
    return str(path)


# (command, flags) -> (sha256 of the output, sha256 of <output>.manifest.jsonl), on
# _ragged_tsv: the no-DP aggregate manifest holds rows_read and rows_rejected
GOLDEN_RAGGED = {
    ("aggregate", "nodp"): ("50606b79567280d639f9df175eabbfc5cb17c2647f07ee4bf0251cc5b3e8aba8",
                            "637cd90c2e6d57a7d1ac469a75ebbe5cd5cfa19a342a81b8de6dda027349d2f8"),
    ("rank", "dp"): ("c63d4b24bd35ce7535839d7f8b4762dd69a92ce5d37f867296be0d449566a292",
                     "0d077de6da4e9866f3f5275858599db9b88a233ba1f16e0950c0438d07d0563a"),
}


def test_ragged_input_holds_every_line_kind(tmp_path):
    path = _ragged_tsv(tmp_path / "in.tsv")
    with open(path, "rb") as fh:
        data = fh.read()
    assert len(data) > 3 * 65536
    assert b"\r\n" in data and data.count(b"\n\n") + data.count(b"\n\r\n") > 10
    assert data.count(b"\textra") == 2
    _, rejects, _ = read_records(path, ("id", "feature", "partition", "observation"))
    assert set(rejects) == {reason for reason, _ in MALFORMED}


@pytest.mark.parametrize("command,mode", sorted(GOLDEN_RAGGED))
def test_ragged_input_matches_the_pinned_digests(tmp_path, command, mode):
    inp = _ragged_tsv(tmp_path / "in.tsv")
    out = str(tmp_path / f"{command}.out")
    flags = ("--no-dp",) if mode == "nodp" else DP
    assert main([command, "--input", inp, "--output", out, *flags]) == 0
    got = (_sha256(out), _sha256(out + ".manifest.jsonl"))
    assert got == GOLDEN_RAGGED[(command, mode)]


# file -> sha256, for `eval` sweeping three epsilons over two trials
GOLDEN_EVAL = {
    "sweep.tsv": "beed68f80d3b2999a0bd60f745377ad7295e9d4c4f7b86e65f8fd344295301f5",
    "stability.tsv": "1ccd136187b2c070462cfa845fb0551aa694b475d79730d749e475ea610a2de6",
}


def test_eval_files_match_the_pinned_digests(tmp_path):
    inp = _seeded_tsv(tmp_path / "in.tsv")
    out = tmp_path / "eval"
    argv = ["eval", "--input", inp, "--output", str(out), "--epsilons", "0.5,2,8",
            "--trials", "2", "--top-k", "100", "--delta", "0.2", "--seed", "7"]
    assert main(argv) == 0
    assert {name: _sha256(out / name) for name in GOLDEN_EVAL} == GOLDEN_EVAL


# file -> sha256, for `eval` with the default --stability-epsilon (1.0) among
# the sweep's epsilons, one of which is repeated
GOLDEN_EVAL_SHARED = {
    "sweep.tsv": "1aeb53a79be2dd2ba3d77b40fb5f3efe0ea5556d2bf367c02f35f4f211f20597",
    "stability.tsv": "1ccd136187b2c070462cfa845fb0551aa694b475d79730d749e475ea610a2de6",
}


def test_eval_with_a_shared_and_repeated_epsilon_matches_the_pinned_digests(tmp_path):
    inp = _seeded_tsv(tmp_path / "in.tsv")
    out = tmp_path / "eval"
    argv = ["eval", "--input", inp, "--output", str(out), "--epsilons", "0.5,1,1,4",
            "--trials", "2", "--top-k", "100", "--delta", "0.2", "--seed", "7"]
    assert main(argv) == 0
    assert {name: _sha256(out / name) for name in GOLDEN_EVAL_SHARED} == GOLDEN_EVAL_SHARED
