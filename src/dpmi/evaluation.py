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
from .model import PrivacyConfig, RankedResult, Record

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
    baseline: Sequence[RankedResult],
    private: Sequence[RankedResult],
    top_k: int = 10000,
) -> RankComparison:
    """Rank errors over the baseline's top_k pairs.

    Only pairs present in both rankings enter the error multiset; the
    missing ones are counted as dropped. The 50th percentile is the median
    absolute rank error.
    """
    if top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    private_rank = {(r.partition, r.feature): r.rank for r in private}
    errors: list[int] = []
    dropped = 0
    for r in baseline[:top_k]:
        private_pos = private_rank.get((r.partition, r.feature))
        if private_pos is None:
            dropped += 1
        else:
            errors.append(abs(r.rank - private_pos))
    if not errors:
        raise ValueError("no overlap between the baseline and private rankings")
    errors.sort()
    percentiles = {p: nearest_rank_percentile(errors, p) for p in PERCENTILES}
    return RankComparison(
        pairs_compared=len(errors),
        abs_rank_errors=errors,
        percentiles=percentiles,
        dropped=dropped,
    )


@dataclass
class SweepRow:
    epsilon: float
    percentiles: dict[int, float]  # mean over trials
    dropped: float  # mean over trials


def _check_sweep_args(epsilons: Sequence[float], trials: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if any(e <= 0 for e in epsilons):
        raise ValueError("all epsilons must be positive")


def _private_rankings(
    records: Sequence[Record],
    privacy: PrivacyConfig,
    epsilons: Sequence[float],
    trials: int,
    baseline: list[RankedResult],
    threshold_override: float | None,
) -> Iterator[tuple[int, float, list[RankedResult]]]:
    """Yield (trial, epsilon, private ranking) for every trial and epsilon.

    Trial t runs with seed + t. Bounding, clamping and the group-by depend on
    the seed and not on epsilon, so each trial does them once, and its
    releases share one memo: the exact sums are finalised, and each cell's
    keyed uniform drawn, once per trial. Each finite epsilon then releases,
    normalises and ranks; the result equals ``rank_records`` with that
    epsilon and seed. An infinite epsilon yields the noiseless baseline.
    """
    for trial in range(trials):
        acc = None
        memo: dict = {}
        for eps in epsilons:
            if math.isinf(eps):
                yield trial, eps, baseline
                continue
            cfg = replace(privacy, epsilon=eps, dp_enabled=True, seed=privacy.seed + trial)
            if acc is None:
                acc = accumulate(prepare_records(records, cfg))
            table = release_aggregate_table(
                acc, cfg, threshold_override=threshold_override, memo=memo
            )
            yield trial, eps, rank(build_probability_tables(table))


def epsilon_sweep(
    records: Sequence[Record],
    privacy: PrivacyConfig,
    epsilons: Sequence[float] = DEFAULT_EPSILONS,
    trials: int = 5,
    top_k: int = 10000,
    threads: int = 1,
    threshold_override: float | None = None,
) -> list[SweepRow]:
    """Rank-error percentiles against the noiseless baseline for each epsilon.

    Trial t ranks privately with seed + t at every epsilon; percentiles and
    drop counts are averaged across trials. Within a trial all epsilons
    release the same bounded table from the same keyed uniforms, so each
    epsilon's noise is a scaled copy of one draw per cell. An infinite
    epsilon compares the baseline with itself and yields an all-zero row.
    Every ranking uses the fixed MI floor ``mi.TOL``. ``threads`` is
    accepted and ignored.
    """
    _check_sweep_args(epsilons, trials)
    baseline = rank_records(records, replace(privacy, dp_enabled=False))
    percentiles: dict[float, list[dict[int, float]]] = {eps: [] for eps in epsilons}
    dropped: dict[float, list[int]] = {eps: [] for eps in epsilons}
    for _, eps, private in _private_rankings(
        records, privacy, epsilons, trials, baseline, threshold_override
    ):
        cmp = compare_rankings(baseline, private, top_k)
        percentiles[eps].append(cmp.percentiles)
        dropped[eps].append(cmp.dropped)
    return [
        SweepRow(
            epsilon=eps,
            percentiles={p: fmean(c[p] for c in percentiles[eps]) for p in PERCENTILES},
            dropped=fmean(dropped[eps]),
        )
        for eps in epsilons
    ]


@dataclass
class StabilityRow:
    bucket: int  # 1-based; bucket 1 holds the strongest baseline pairs
    medae: float


def head_tail_stability(
    records: Sequence[Record],
    privacy: PrivacyConfig,
    epsilon: float = 1.0,
    trials: int = 5,
    top_k: int = 100,
    buckets: int = 10,
    threads: int = 1,
    threshold_override: float | None = None,
) -> list[StabilityRow]:
    """Median rank error per baseline-rank bucket of the top pairs.

    The baseline top_k is split into ``buckets`` contiguous rank ranges;
    each bucket's median error is averaged over trials. Pairs censored out
    of a private run are skipped; a bucket empty in every trial reports NaN.
    An infinite epsilon ranks with the baseline, so every bucket reports 0.
    ``threads`` is accepted and ignored.
    """
    _check_sweep_args((epsilon,), trials)
    if buckets < 1:
        raise ValueError(f"buckets must be >= 1, got {buckets}")
    baseline = rank_records(records, replace(privacy, dp_enabled=False))
    head = baseline[:top_k]
    if len(head) < buckets:
        raise ValueError(f"need at least {buckets} baseline pairs, got {len(head)}")
    edges = [round(j * len(head) / buckets) for j in range(buckets + 1)]
    per_bucket: list[list[float]] = [[] for _ in range(buckets)]
    for _, _, private in _private_rankings(
        records, privacy, (epsilon,), trials, baseline, threshold_override
    ):
        private_rank = {(r.partition, r.feature): r.rank for r in private}
        for b in range(buckets):
            errors = []
            for r in head[edges[b] : edges[b + 1]]:
                private_pos = private_rank.get((r.partition, r.feature))
                if private_pos is not None:
                    errors.append(abs(r.rank - private_pos))
            if errors:
                errors.sort()
                per_bucket[b].append(nearest_rank_percentile(errors, 50))
    return [
        StabilityRow(bucket=b + 1, medae=fmean(vals) if vals else float("nan"))
        for b, vals in enumerate(per_bucket)
    ]


@dataclass
class RuntimeComparison:
    rows: int
    partitions: int
    batched_seconds: float
    binary_seconds: float
    ratio: float
    batched_results: list[RankedResult]
    binary_results: dict[str, list[RankedResult]]


def runtime_compare(
    records: Sequence[Record],
    threads: int = 1,
) -> RuntimeComparison:
    """Wall-clock of one batched multi-partition ranking vs sequential
    one-vs-all reruns over the same records.

    Privacy is disabled on both sides, and both rank at the fixed MI floor
    ``mi.TOL``, so only the compute paths differ. The per-partition result
    lists are kept so callers can check that both paths agree on MI values.
    ``threads`` is accepted and ignored.
    """
    partitions = sorted({r.partition for r in records})
    if len(partitions) < 2:
        raise ValueError(f"need at least 2 partitions, got {len(partitions)}")
    nodp = PrivacyConfig(epsilon=1.0, dp_enabled=False)
    start = time.perf_counter()
    batched = rank_records(records, nodp)
    batched_seconds = time.perf_counter() - start
    binary_results: dict[str, list[RankedResult]] = {}
    binary_seconds = 0.0
    for partition in partitions:
        start = time.perf_counter()
        binary_results[partition] = binary_rank(records, partition, nodp)
        binary_seconds += time.perf_counter() - start
    return RuntimeComparison(
        rows=len(records),
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
