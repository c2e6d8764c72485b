"""The benchmark's three batch workloads: seeded inputs, one job, output check.

Each workload runs in one process with threads=1. ``setup`` builds the
seeded inputs (and writes the input file, where there is one); ``job`` calls
dpmi exactly as a user would and returns what it produced; ``check`` raises
``CheckFailed`` unless that output is correct. The checks never pin DP noise
bytes, which later changes to the sampler and the pipeline alter on purpose.
"""

from __future__ import annotations

import hashlib
import math
import os
from collections import Counter

import numpy as np

LN2 = math.log(2.0)
# Room for the 12-significant-digit rounding of the output files.
PRINT_SLACK = 1e-9
MI_TOL = 1e-12


class CheckFailed(Exception):
    """A job's output broke one of the workload's invariants."""


def _users(base: int, scale: float) -> int:
    return max(1, round(base * scale))


def mi_2x2(p_x: float, p_y: float, p_xy: float) -> float:
    """Oracle: MI in nats of the 2x2 presence table implied by (p_x, p_y, p_xy).

    Evaluated cell by cell on the contingency table, independently of
    ``dpmi.mi``; empty cells contribute nothing (0 log 0 = 0).
    """
    cells = (
        (p_xy, p_x, p_y),
        (p_x - p_xy, p_x, 1.0 - p_y),
        (p_y - p_xy, 1.0 - p_x, p_y),
        (1.0 - p_x - p_y + p_xy, 1.0 - p_x, 1.0 - p_y),
    )
    return sum(c * math.log(c / (r * k)) for c, r, k in cells if c > 0 and r > 0 and k > 0)


# ---------------------------------------------------------------------------
# rank_dp_file


class RankDpFile:
    """``dpmi rank`` through ``cli.main`` on a seeded TSV file.

    Users each contribute ROWS_PER_USER rows in one partition; features are
    drawn from a partition-planted stripe or from a global power law, so the
    head of the ranking survives censoring. Observations are exponential with
    mean 1, so ``--clamp 0,1`` clips about a third of them, and a contribution
    limit of 2 drops half the rows. Every MALFORMED_EVERY-th line is one of
    three malformed rows, so ingest rejects an exact, nonzero count.
    """

    name = "rank_dp_file"
    BASE_USERS = 25_000
    ROWS_PER_USER = 4
    FEATURES = 2000
    PARTITIONS = 22
    PLANTED = 0.7
    ZIPF = 1.1
    MALFORMED_EVERY = 500
    ARGS = ("--clamp", "0,1", "--contribution-limit", "2", "--epsilon", "4",
            "--delta", "1e-6", "--threads", "1")

    def __init__(self, scale: float = 1.0):
        self.users = _users(self.BASE_USERS, scale)

    def setup(self, seed: int, workdir: str) -> dict:
        rng = np.random.default_rng(seed)
        n = self.users * self.ROWS_PER_USER
        user_part = rng.integers(0, self.PARTITIONS, size=self.users)
        uid = np.repeat(np.arange(self.users), self.ROWS_PER_USER)
        part = user_part[uid]
        weights = (np.arange(self.FEATURES // self.PARTITIONS) + 1.0) ** -self.ZIPF
        planted = rng.choice(len(weights), size=n, p=weights / weights.sum())
        planted = planted * self.PARTITIONS + part
        pool = (np.arange(self.FEATURES) + 1.0) ** -self.ZIPF
        background = rng.permutation(self.FEATURES)[
            rng.choice(self.FEATURES, size=n, p=pool / pool.sum())
        ]
        feature = np.where(rng.random(n) < self.PLANTED, planted, background)
        obs = rng.exponential(1.0, size=n)
        order = rng.permutation(n)
        ids = [f"u{i:06d}" for i in range(self.users)]
        feats = [f"f{i:04d}" for i in range(self.FEATURES)]
        parts = [f"p{i:02d}" for i in range(self.PARTITIONS)]
        malformed = (
            f"{ids[0]}\t{feats[0]}\t{parts[0]}\t-0.5",
            f"\t{feats[1]}\t{parts[1]}\t0.5",
            f"{ids[0]}\t{feats[2]}\t{parts[2]}\tn/a",
        )
        path = os.path.join(workdir, "input.tsv")
        lines = ["id\tfeature\tpartition\tobservation"]
        rejected = 0
        for j, (u, f, p, o) in enumerate(
            zip(uid[order].tolist(), feature[order].tolist(), part[order].tolist(),
                obs[order].tolist())
        ):
            if j % self.MALFORMED_EVERY == self.MALFORMED_EVERY - 1:
                lines.append(malformed[rejected % len(malformed)])
                rejected += 1
            lines.append(f"{ids[u]}\t{feats[f]}\t{parts[p]}\t{o:.6f}")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return {
            "path": path,
            "output": os.path.join(workdir, "ranked.tsv"),
            "seed": seed,
            "rows": n + rejected,
            "features": {feats[i] for i in np.unique(feature).tolist()},
            "partitions": {parts[i] for i in np.unique(part).tolist()},
        }

    def job(self, inputs: dict):
        from dpmi import cli

        argv = ["rank", "--input", inputs["path"], "--output", inputs["output"],
                "--seed", str(inputs["seed"]), *self.ARGS]
        code = cli.main(argv)
        if code != 0:
            raise CheckFailed(f"dpmi rank exited with {code}")
        with open(inputs["output"], "rb") as fh:
            return fh.read()

    def check(self, inputs: dict, output: bytes, state: dict) -> None:
        check_ranked_tsv(output, inputs["features"], inputs["partitions"])
        digest = hashlib.sha256(output).hexdigest()
        if state.setdefault("digest", digest) != digest:
            raise CheckFailed("two jobs of one run wrote different bytes")


def check_ranked_tsv(output: bytes, features: set, partitions: set) -> None:
    """Ranks run 1..n, MI is non-increasing in [0, ln 2], keys come from the input."""
    lines = output.decode("utf-8").splitlines()
    if not lines or lines[0] != "partition\tfeature\tmi\tdirection\trank":
        raise CheckFailed("missing or wrong header")
    if len(lines) < 2:
        raise CheckFailed("no ranked pairs")
    previous = math.inf
    for expected_rank, line in enumerate(lines[1:], start=1):
        partition, feature, mi_text, direction, rank_text = line.split("\t")
        mi = float(mi_text)
        if int(rank_text) != expected_rank:
            raise CheckFailed(f"rank {rank_text} where {expected_rank} was due")
        if not (0.0 <= mi <= LN2 + PRINT_SLACK) or mi > previous:
            raise CheckFailed(f"rank {expected_rank}: MI {mi} out of range or order")
        if partition not in partitions or feature not in features:
            raise CheckFailed(f"rank {expected_rank}: key ({partition}, {feature}) not in input")
        if direction not in ("Presence", "Absence"):
            raise CheckFailed(f"rank {expected_rank}: direction {direction!r}")
        previous = mi


# ---------------------------------------------------------------------------
# eval_sweep


class EvalSweep:
    """``epsilon_sweep`` plus ``head_tail_stability`` on in-memory synthetic users.

    Both result files are written, as ``dpmi eval`` does. Bounding and release
    run again for every (epsilon, trial) pair from the same records.
    """

    name = "eval_sweep"
    BASE_USERS = 10_000
    FEATURES = 500
    PARTITIONS = 10
    STRENGTH = 0.9
    EPSILONS = (0.1, 0.5, 1.0, 2.0, 4.0, 8.0)
    TRIALS = 5
    DELTA = 0.2
    BUCKETS = 10

    def __init__(self, scale: float = 1.0):
        self.users = _users(self.BASE_USERS, scale)

    def setup(self, seed: int, workdir: str) -> dict:
        from dpmi.evaluation import synth_generate

        records = synth_generate(self.users, self.FEATURES, self.PARTITIONS, self.STRENGTH, seed)
        return {"records": records, "seed": seed, "rows": len(records), "workdir": workdir}

    def job(self, inputs: dict):
        from dpmi.evaluation import (epsilon_sweep, head_tail_stability, write_stability_tsv,
                                     write_sweep_tsv)
        from dpmi.model import PrivacyConfig

        privacy = PrivacyConfig(epsilon=1.0, delta=self.DELTA, seed=inputs["seed"])
        records = inputs["records"]
        sweep = epsilon_sweep(records, privacy, epsilons=self.EPSILONS, trials=self.TRIALS,
                              top_k=10000, threads=1)
        sweep_path = os.path.join(inputs["workdir"], "sweep.tsv")
        write_sweep_tsv(sweep, sweep_path)
        stability = head_tail_stability(records, privacy, epsilon=1.0, trials=self.TRIALS,
                                        top_k=100, buckets=self.BUCKETS, threads=1)
        stability_path = os.path.join(inputs["workdir"], "stability.tsv")
        write_stability_tsv(stability, stability_path)
        return sweep_path, stability_path

    def check(self, inputs: dict, output, state: dict) -> None:
        sweep_path, stability_path = output
        with open(sweep_path, encoding="utf-8") as fh:
            sweep = [line.split("\t") for line in fh.read().splitlines()]
        with open(stability_path, encoding="utf-8") as fh:
            stability = [line.split("\t") for line in fh.read().splitlines()]
        check_sweep(sweep, stability, self.EPSILONS, self.BUCKETS)


def check_sweep(sweep: list, stability: list, epsilons, buckets: int) -> None:
    """All values finite, p50 at the largest epsilon <= p50 at the smallest, all buckets."""
    if sweep[0][:4] != ["epsilon", "p10", "p25", "p50"] or len(sweep) != len(epsilons) + 1:
        raise CheckFailed("sweep.tsv has the wrong header or row count")
    if stability[0] != ["rank_bucket", "medae"] or len(stability) != buckets + 1:
        raise CheckFailed(f"stability.tsv does not have {buckets} buckets")
    values = [[float(x) for x in row] for row in sweep[1:] + stability[1:]]
    if not all(math.isfinite(x) for row in values for x in row):
        raise CheckFailed("non-finite value in the sweep or stability file")
    p50 = {row[0]: row[3] for row in values[: len(epsilons)]}
    if [row[0] for row in values[: len(epsilons)]] != list(epsilons):
        raise CheckFailed("sweep epsilons differ from the requested ones")
    if p50[max(epsilons)] > p50[min(epsilons)]:
        raise CheckFailed(f"p50 rises from {p50[min(epsilons)]} to {p50[max(epsilons)]}")
    if [int(row[0]) for row in values[len(epsilons):]] != list(range(1, buckets + 1)):
        raise CheckFailed("stability buckets are not 1..n")


# ---------------------------------------------------------------------------
# onevsall_nodp


class OneVsAllNoDp:
    """``runtime_compare`` with DP off: one batched ranking plus one binary
    ranking per partition, the paper's headline comparison."""

    name = "onevsall_nodp"
    BASE_USERS = 25_000
    FEATURES = 2000
    PARTITIONS = 22
    STRENGTH = 0.9
    ORACLE_SAMPLE = 64

    def __init__(self, scale: float = 1.0):
        self.users = _users(self.BASE_USERS, scale)

    def setup(self, seed: int, workdir: str) -> dict:
        from dpmi.evaluation import synth_generate

        records = synth_generate(self.users, self.FEATURES, self.PARTITIONS, self.STRENGTH, seed)
        return {"records": records, "rows": len(records)}

    def job(self, inputs: dict):
        from dpmi.evaluation import runtime_compare

        return runtime_compare(inputs["records"], threads=1)

    def check(self, inputs: dict, output, state: dict) -> None:
        if "sums" not in state:
            state["sums"] = exact_sums(inputs["records"])
        check_onevsall(output.batched_results, output.binary_results, state["sums"],
                       self.ORACLE_SAMPLE)


def exact_sums(records):
    """Joint, feature and partition sums and the grand total, straight from the records."""
    joint, feats, parts = Counter(), Counter(), Counter()
    for r in records:
        joint[(r.feature, r.partition)] += r.observation
        feats[r.feature] += r.observation
        parts[r.partition] += r.observation
    return joint, feats, parts, math.fsum(parts.values())


def check_onevsall(batched, binary, sums, sample: int) -> None:
    """Batched MI equals binary MI on every pair, and a sample matches the oracle."""
    batched_mi = {(r.partition, r.feature): r.mi for r in batched}
    binary_mi = {
        (r.partition, r.feature): r.mi
        for partition, results in binary.items()
        for r in results
        if r.partition == partition
    }
    if not batched_mi or batched_mi.keys() != binary_mi.keys():
        raise CheckFailed(f"{len(batched_mi)} batched pairs vs {len(binary_mi)} binary pairs")
    worst = max(abs(batched_mi[k] - binary_mi[k]) for k in batched_mi)
    if not worst <= MI_TOL:
        raise CheckFailed(f"batched and binary MI differ by {worst:.3g}")
    joint, feats, parts, total = sums
    step = max(1, len(batched) // sample)
    for r in batched[::step]:
        want = mi_2x2(feats[r.feature] / total, parts[r.partition] / total,
                      joint[(r.feature, r.partition)] / total)
        if not abs(r.mi - want) <= MI_TOL:
            raise CheckFailed(f"({r.partition}, {r.feature}): MI {r.mi} vs oracle {want}")


WORKLOADS = {w.name: w for w in (RankDpFile, EvalSweep, OneVsAllNoDp)}
