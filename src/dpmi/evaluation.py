"""Evaluation harness: epsilon sweeps with rank-error percentiles, head-vs-tail
rank stability, a batched-vs-sequential runtime comparison, and a seeded
synthetic generator with planted feature-partition associations.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from statistics import fmean
from typing import Iterable, Iterator, Sequence

import numpy as np

from .aggregate import accumulate, build_probability_tables, release_aggregate_table
from .dp import prepare_records
from .mi import binary_rank, rank, rank_records
from .model import Columns, PrivacyConfig, Ranking, Record

PERCENTILES = (10, 25, 50, 75, 90)
DEFAULT_EPSILONS = (0.1, 0.5, 1.0, 2.0, 4.0, 8.0)


def fmt_sig(x) -> str:
    """Render a number with 12 significant digits, the stable file format."""
    return format(float(x), ".12g")


def nearest_rank_percentile(sorted_values: Sequence, pct: float) -> float:
    """Nearest-rank percentile: the ceil(pct/100 * n)-th smallest value."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("percentile of an empty multiset")
    idx = max(1, math.ceil(pct / 100.0 * n))
    return float(sorted_values[min(idx, n) - 1])


@dataclass
class RankComparison:
    """Absolute rank displacements of the baseline's top pairs under a private run."""

    pairs_compared: int
    abs_rank_errors: list[int]
    percentiles: dict[int, float]
    dropped: int


def compare_rankings(
    baseline: Ranking,
    private: Ranking,
    top_k: int = 10000,
) -> RankComparison:
    """Rank errors over the baseline's top_k pairs.

    Only pairs present in both rankings enter the error multiset; the
    missing ones are counted as dropped. The 50th percentile is the median
    absolute rank error.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    found = _rank_errors(baseline[:top_k], private)
    errors = sorted(e for e in found if e is not None)
    if not errors:
        raise ValueError("no overlap between the baseline and private rankings")
    percentiles = {p: nearest_rank_percentile(errors, p) for p in PERCENTILES}
    return RankComparison(
        pairs_compared=len(errors),
        abs_rank_errors=errors,
        percentiles=percentiles,
        dropped=len(found) - len(errors),
    )


def _rank_errors(baseline: Ranking, private: Ranking) -> list[int | None]:
    """Each baseline pair's absolute rank error in ``private``; None where
    ``private`` does not hold the pair. Both sides are read from their key
    and rank columns."""
    private_rank = dict(zip(_pairs(private), private.ranks))
    positions = map(private_rank.get, _pairs(baseline))
    return [None if pos is None else abs(r - pos) for r, pos in zip(baseline.ranks, positions)]


def _pairs(ranking: Ranking) -> Iterator[tuple[str, str]]:
    """The (partition, feature) key of each row, in rank order."""
    return zip(ranking.partitions.tolist(), ranking.features.tolist())


@dataclass
class SweepRow:
    epsilon: float
    percentiles: dict[int, float]  # mean over trials
    dropped: float  # mean over trials


@dataclass
class StabilityRow:
    bucket: int  # 1-based; bucket 1 holds the strongest baseline pairs
    medae: float


def _check_sweep_args(epsilons: Sequence[float], trials: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not all(e > 0 for e in epsilons):  # NaN fails too; inf ranks the baseline
        raise ValueError("all epsilons must be positive")


class _Sweep:
    """Sweep reducer: each epsilon's rank comparisons over the trials, and
    their means as one row per requested epsilon, a repeated one included."""

    def __init__(self, baseline: Ranking, epsilons: Sequence[float], top_k: int) -> None:
        self.baseline, self.epsilons, self.top_k = baseline, epsilons, top_k
        self.comparisons: dict[float, list[RankComparison]] = {eps: [] for eps in epsilons}

    def add(self, eps: float, private: Ranking) -> None:
        if eps in self.comparisons:
            self.comparisons[eps].append(compare_rankings(self.baseline, private, self.top_k))

    def rows(self) -> list[SweepRow]:
        return [
            SweepRow(
                epsilon=eps,
                percentiles={p: fmean(c.percentiles[p] for c in self.comparisons[eps])
                             for p in PERCENTILES},
                dropped=fmean(c.dropped for c in self.comparisons[eps]),
            )
            for eps in self.epsilons
        ]


class _Stability:
    """Stability reducer: each trial's median rank error per bucket of the
    baseline's top_k at one epsilon, and their means. A head shorter than
    ``buckets`` is refused on construction, before any trial runs."""

    def __init__(self, baseline: Ranking, epsilon: float, top_k: int, buckets: int) -> None:
        self.head = baseline[:top_k]
        if len(self.head) < buckets:
            raise ValueError(f"need at least {buckets} baseline pairs, got {len(self.head)}")
        self.epsilons = (epsilon,)
        self.edges = [round(j * len(self.head) / buckets) for j in range(buckets + 1)]
        self.per_bucket: list[list[float]] = [[] for _ in range(buckets)]

    def add(self, eps: float, private: Ranking) -> None:
        if eps not in self.epsilons:
            return
        found = _rank_errors(self.head, private)
        for b, medians in enumerate(self.per_bucket):
            errors = sorted(e for e in found[self.edges[b] : self.edges[b + 1]] if e is not None)
            if errors:
                medians.append(nearest_rank_percentile(errors, 50))

    def rows(self) -> list[StabilityRow]:
        return [
            StabilityRow(bucket=b + 1, medae=fmean(medians) if medians else float("nan"))
            for b, medians in enumerate(self.per_bucket)
        ]


def _run_trials(
    cols: Columns,
    privacy: PrivacyConfig,
    trials: int,
    baseline: Ranking,
    reducers: Sequence[_Sweep | _Stability],
) -> None:
    """The one trial loop: each trial's private ranking at every distinct
    epsilon of the reducers, fed to every reducer.

    Trial t runs with seed + t. Bounding, clamping and the group-by depend on
    the seed and not on epsilon, so each trial does them once, and every
    epsilon releases the trial's one accumulator, which draws each cell's
    keyed uniform once and keeps it. Each finite epsilon then releases,
    normalises and ranks; the result equals ``rank_records`` with that
    epsilon and seed. An infinite epsilon ranks with the noiseless baseline.
    No ranking outlives its step: reducers keep only what they derive.
    """
    epsilons = dict.fromkeys(eps for reducer in reducers for eps in reducer.epsilons)
    for trial in range(trials):
        acc = None
        for eps in epsilons:
            if math.isinf(eps):
                private = baseline
            else:
                cfg = replace(privacy, epsilon=eps, seed=privacy.seed + trial)
                if acc is None:
                    acc = accumulate(prepare_records(cols, cfg))
                private = rank(build_probability_tables(release_aggregate_table(acc, cfg)))
            for reducer in reducers:
                reducer.add(eps, private)


def epsilon_sweep(
    records: Columns | Sequence[Record],
    privacy: PrivacyConfig,
    epsilons: Sequence[float] = DEFAULT_EPSILONS,
    trials: int = 5,
    top_k: int = 10000,
    threads: int = 1,
) -> list[SweepRow]:
    """Rank-error percentiles against the noiseless baseline for each epsilon.

    Trial t ranks privately with seed + t at every epsilon; percentiles and
    drop counts are averaged across trials. Within a trial all epsilons
    release the same bounded table from the same keyed uniforms, so each
    epsilon's noise is a scaled copy of one draw per cell. An infinite
    epsilon compares the baseline with itself and yields an all-zero row.
    Records are converted to columns once. ``threads`` is accepted and
    ignored.
    """
    _check_sweep_args(epsilons, trials)
    cols = Columns.from_records(records)
    baseline = rank_records(cols, None)
    sweep = _Sweep(baseline, epsilons, top_k)
    _run_trials(cols, privacy, trials, baseline, [sweep])
    return sweep.rows()


def head_tail_stability(
    records: Columns | Sequence[Record],
    privacy: PrivacyConfig,
    epsilon: float = 1.0,
    trials: int = 5,
    top_k: int = 100,
    buckets: int = 10,
    threads: int = 1,
) -> list[StabilityRow]:
    """Median rank error per baseline-rank bucket of the top pairs.

    The baseline top_k is split into ``buckets`` contiguous rank ranges;
    each bucket's median error is averaged over trials. Pairs censored out
    of a private run are skipped; a bucket empty in every trial reports NaN.
    An infinite epsilon ranks with the baseline, so every bucket reports 0.
    Records are converted to columns once. ``threads`` is accepted and
    ignored.
    """
    _check_sweep_args((epsilon,), trials)
    if buckets < 1:
        raise ValueError(f"buckets must be >= 1, got {buckets}")
    cols = Columns.from_records(records)
    baseline = rank_records(cols, None)
    stability = _Stability(baseline, epsilon, top_k, buckets)
    _run_trials(cols, privacy, trials, baseline, [stability])
    return stability.rows()


def sweep_and_stability(
    records: Columns | Sequence[Record],
    privacy: PrivacyConfig,
    epsilons: Sequence[float],
    stability_epsilon: float,
    trials: int,
    top_k: int,
    stability_top_k: int,
) -> tuple[list[SweepRow], list[StabilityRow]]:
    """``epsilon_sweep`` and a 10-bucket ``head_tail_stability`` in one pass.

    One baseline is ranked, and one trial loop runs at the union of
    ``epsilons`` and ``stability_epsilon``, each distinct epsilon once, so
    a stability epsilon among the sweep's costs no extra release. The rows
    equal those the two functions return. A stability head shorter than
    its buckets fails before any trial runs.
    """
    _check_sweep_args((*epsilons, stability_epsilon), trials)
    cols = Columns.from_records(records)
    baseline = rank_records(cols, None)
    sweep = _Sweep(baseline, epsilons, top_k)
    stability = _Stability(baseline, stability_epsilon, stability_top_k, buckets=10)
    _run_trials(cols, privacy, trials, baseline, [sweep, stability])
    return sweep.rows(), stability.rows()


@dataclass
class RuntimeComparison:
    rows: int
    partitions: int
    batched_seconds: float
    binary_seconds: float
    ratio: float
    batched_results: Ranking
    binary_results: dict[str, Ranking]


def runtime_compare(
    records: Columns | Sequence[Record],
    threads: int = 1,
) -> RuntimeComparison:
    """Wall-clock of one batched multi-partition ranking vs sequential
    one-vs-all reruns over the same records.

    Both sides run without privacy, so only the compute paths differ.
    Records are converted to columns once, before either clock starts, and
    both sides are timed from that one table. The per-partition rankings
    are kept so callers can check that both paths agree on MI values.
    ``threads`` is accepted and ignored.
    """
    cols = Columns.from_records(records)
    rows = np.bincount(cols.partitions, minlength=len(cols.partition_keys)).tolist()
    partitions = [key for key, n in zip(cols.partition_keys, rows) if n]
    if len(partitions) < 2:
        raise ValueError(f"need at least 2 partitions, got {len(partitions)}")
    start = time.perf_counter()
    batched = rank_records(cols, None)
    batched_seconds = time.perf_counter() - start
    binary_results: dict[str, Ranking] = {}
    binary_seconds = 0.0
    for partition in partitions:
        start = time.perf_counter()
        binary_results[partition] = binary_rank(cols, partition, None)
        binary_seconds += time.perf_counter() - start
    return RuntimeComparison(
        rows=len(cols),
        partitions=len(partitions),
        batched_seconds=batched_seconds,
        binary_seconds=binary_seconds,
        ratio=binary_seconds / batched_seconds,
        batched_results=batched,
        binary_results=binary_results,
    )


def synth_generate(
    users: int,
    features: int,
    partitions: int,
    association_strength: float,
    seed: int,
    zipf_exponent: float = 1.3,
) -> list[Record]:
    """Seeded synthetic corpus: one feature and one partition per user.

    Partitions are assigned uniformly. With probability association_strength
    a user's feature comes from the partition's planted list (features
    striped by index, weights following a power law with the given
    exponent), otherwise uniformly from the whole pool. Planted pairs
    therefore dominate the head of the MI ranking as strength grows, and at
    strength 1 each planted feature occurs in exactly one partition.
    """
    if users < 1 or features < 1 or partitions < 1:
        raise ValueError("users, features and partitions must all be >= 1")
    if not 0.0 <= association_strength <= 1.0:
        raise ValueError(f"association_strength must lie in [0, 1], got {association_strength}")
    if features < partitions:
        raise ValueError("need at least one planted feature per partition")
    rng = np.random.default_rng(seed & 0xFFFFFFFFFFFFFFFF)
    part_idx = rng.integers(0, partitions, size=users)
    planted = rng.random(users) < association_strength
    feature_idx = rng.integers(0, features, size=users)
    for p in range(partitions):
        mask = planted & (part_idx == p)
        n = int(mask.sum())
        if n == 0:
            continue
        stripe = np.arange(p, features, partitions)
        weights = (np.arange(len(stripe)) + 1.0) ** -zipf_exponent
        weights /= weights.sum()
        feature_idx[mask] = rng.choice(stripe, size=n, p=weights)
    width_f = len(str(features - 1))
    width_p = len(str(partitions - 1))
    feature_names = [f"f{i:0{width_f}d}" for i in range(features)]
    partition_names = [f"p{i:0{width_p}d}" for i in range(partitions)]
    width_u = len(str(users - 1))
    return [
        Record(f"u{i:0{width_u}d}", feature_names[f], partition_names[p], 1.0)
        for i, (f, p) in enumerate(zip(feature_idx.tolist(), part_idx.tolist()))
    ]


def write_sweep_tsv(rows: Iterable[SweepRow], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epsilon\tp10\tp25\tp50\tp75\tp90\tdropped\n")
        for row in rows:
            cells = [fmt_sig(row.epsilon)]
            cells += [fmt_sig(row.percentiles[p]) for p in PERCENTILES]
            cells.append(fmt_sig(row.dropped))
            fh.write("\t".join(cells) + "\n")


def write_stability_tsv(rows: Iterable[StabilityRow], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("rank_bucket\tmedae\n")
        for row in rows:
            fh.write(f"{row.bucket}\t{fmt_sig(row.medae)}\n")


def write_runtime_tsv(rt: RuntimeComparison, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("rows\tpartitions\tbatched_s\tbinary_s\tratio\n")
        fh.write(
            f"{rt.rows}\t{rt.partitions}\t{fmt_sig(rt.batched_seconds)}\t"
            f"{fmt_sig(rt.binary_seconds)}\t{fmt_sig(rt.ratio)}\n"
        )
