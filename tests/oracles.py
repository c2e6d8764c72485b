"""Independent reference implementations used to cross-check the library.

These deliberately avoid the library's code paths: MI is evaluated directly
on the 2x2 contingency table, and percentiles go through numpy's
inverted-CDF method. The sweep and stability oracles are the plain per-cell
loops: one full ``rank_records`` run for every (epsilon, trial) pair. The
bounding oracle is a per-user loop over Python integers, and ``clamp`` is the
scalar reference for the column clamp in ``prepare_records``.
"""

from __future__ import annotations

import math
from dataclasses import replace
from statistics import fmean

import numpy as np

from dpmi.dp import _keyed_u64
from dpmi.evaluation import (
    PERCENTILES,
    StabilityRow,
    SweepRow,
    compare_rankings,
    nearest_rank_percentile,
)
from dpmi.mi import rank_records

_U64 = 2**64 - 1


def mi_2x2(p_x: float, p_y: float, p_xy: float) -> float:
    """Direct MI of the 2x2 table implied by (p_x, p_y, p_xy), in nats.

    Cells with zero mass are skipped, per the usual 0 log 0 = 0 convention.
    """
    cells = (
        (p_xy, p_x, p_y),
        (p_x - p_xy, p_x, 1.0 - p_y),
        (p_y - p_xy, 1.0 - p_x, p_y),
        (1.0 - p_x - p_y + p_xy, 1.0 - p_x, 1.0 - p_y),
    )
    total = 0.0
    for cell, row, col in cells:
        if cell > 0.0 and row > 0.0 and col > 0.0:
            total += cell * math.log(cell / (row * col))
    return total


def clamp(observation: float, lo: float, hi: float) -> float:
    """min(hi, max(lo, observation)): a value equal to a bound becomes that bound."""
    return min(hi, max(lo, observation))


def random_valid_triple(rng, lo: float = 0.01, hi: float = 0.99):
    """A (p_x, p_y, p_xy) triple whose 2x2 table has no negative cell."""
    p_x = rng.uniform(lo, hi)
    p_y = rng.uniform(lo, hi)
    low = max(0.0, p_x + p_y - 1.0)
    high = min(p_x, p_y)
    p_xy = rng.uniform(low, high)
    return p_x, p_y, p_xy


def percentile_nearest_rank(values, pct: float) -> float:
    """Nearest-rank percentile via numpy's inverted CDF."""
    return float(np.percentile(np.asarray(values, dtype=float), pct, method="inverted_cdf"))


def epsilon_sweep_oracle(records, privacy, epsilons=(), trials=5, top_k=10000,
                         threshold_override=None):
    """Sweep rows from one private ``rank_records`` run per (epsilon, trial)."""
    baseline = rank_records(records, replace(privacy, dp_enabled=False))
    rows = []
    for eps in epsilons:
        cells = []
        for trial in range(trials):
            if math.isinf(eps):
                private = baseline
            else:
                cfg = replace(privacy, epsilon=eps, dp_enabled=True, seed=privacy.seed + trial)
                private = rank_records(records, cfg, threshold_override=threshold_override)
            cells.append(compare_rankings(baseline, private, top_k))
        rows.append(
            SweepRow(
                epsilon=eps,
                percentiles={p: fmean(c.percentiles[p] for c in cells) for p in PERCENTILES},
                dropped=fmean(c.dropped for c in cells),
            )
        )
    return rows


def head_tail_stability_oracle(records, privacy, epsilon=1.0, trials=5, top_k=100,
                               buckets=10, threshold_override=None):
    """Stability rows from one private ``rank_records`` run per trial."""
    baseline = rank_records(records, replace(privacy, dp_enabled=False))
    head = baseline[:top_k]
    edges = [round(j * len(head) / buckets) for j in range(buckets + 1)]
    per_bucket = [[] for _ in range(buckets)]
    for trial in range(trials):
        cfg = replace(privacy, epsilon=epsilon, dp_enabled=True, seed=privacy.seed + trial)
        private = rank_records(records, cfg, threshold_override=threshold_override)
        private_rank = {(r.partition, r.feature): r.rank for r in private}
        for b in range(buckets):
            errors = sorted(
                abs(r.rank - private_rank[(r.partition, r.feature)])
                for r in head[edges[b] : edges[b + 1]]
                if (r.partition, r.feature) in private_rank
            )
            if errors:
                per_bucket[b].append(nearest_rank_percentile(errors, 50))
    return [
        StabilityRow(bucket=b + 1, medae=fmean(vals) if vals else float("nan"))
        for b, vals in enumerate(per_bucket)
    ]


def _splitmix64(x: int) -> int:
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _U64
    return x ^ (x >> 31)


def _row_key(r):
    """(feature, partition, observation), with 0.0 before -0.0."""
    return (r.feature, r.partition, r.observation, math.copysign(1.0, r.observation) < 0)


def bound_contributions_oracle(records, limit, seed):
    """Bounding survivors, one user at a time.

    A user's rows are sorted by ``_row_key``. A user with more than ``limit``
    rows keeps the ``limit`` rows of lowest priority, where row j's priority
    is splitmix64(key + (j + 1) * 0x9E3779B97F4A7C15) with key the keyed
    hash of (seed, "bound", id); equal priorities keep the lower j.
    """
    by_user = {}
    for r in records:
        by_user.setdefault(r.id, []).append(r)
    survivors = []
    for uid, rows in by_user.items():
        rows = sorted(rows, key=_row_key)
        if len(rows) > limit:
            key = _keyed_u64(seed, ("bound", uid))
            priority = [
                _splitmix64((key + (j + 1) * 0x9E3779B97F4A7C15) & _U64)
                for j in range(len(rows))
            ]
            chosen = sorted(range(len(rows)), key=lambda j: (priority[j], j))[:limit]
            rows = [rows[j] for j in sorted(chosen)]
        survivors.extend(rows)
    survivors.sort(key=lambda r: (r.id, *_row_key(r)))
    return survivors
