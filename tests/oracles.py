"""Independent reference implementations used to cross-check the library.

These deliberately avoid the library's code paths: MI is evaluated directly
on the 2x2 contingency table, and percentiles go through numpy's
inverted-CDF method. The sweep and stability oracles are the plain per-cell
loops: one full ``rank_records`` run for every (epsilon, trial) pair.
"""

from __future__ import annotations

import math
from dataclasses import replace
from statistics import fmean

import numpy as np

from dpmi.evaluation import (
    PERCENTILES,
    StabilityRow,
    SweepRow,
    compare_rankings,
    nearest_rank_percentile,
)
from dpmi.mi import rank_records


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


def epsilon_sweep_oracle(records, privacy, tol=1e-16, epsilons=(), trials=5, top_k=10000,
                         threshold_override=None):
    """Sweep rows from one private ``rank_records`` run per (epsilon, trial)."""
    baseline = rank_records(records, replace(privacy, dp_enabled=False), tol)
    rows = []
    for eps in epsilons:
        cells = []
        for trial in range(trials):
            if math.isinf(eps):
                private = baseline
            else:
                cfg = replace(privacy, epsilon=eps, dp_enabled=True, seed=privacy.seed + trial)
                private = rank_records(records, cfg, tol, threshold_override=threshold_override)
            cells.append(compare_rankings(baseline, private, top_k))
        rows.append(
            SweepRow(
                epsilon=eps,
                percentiles={p: fmean(c.percentiles[p] for c in cells) for p in PERCENTILES},
                dropped=fmean(c.dropped for c in cells),
            )
        )
    return rows


def head_tail_stability_oracle(records, privacy, tol=1e-16, epsilon=1.0, trials=5, top_k=100,
                               buckets=10, threshold_override=None):
    """Stability rows from one private ``rank_records`` run per trial."""
    baseline = rank_records(records, replace(privacy, dp_enabled=False), tol)
    head = baseline[:top_k]
    edges = [round(j * len(head) / buckets) for j in range(buckets + 1)]
    per_bucket = [[] for _ in range(buckets)]
    for trial in range(trials):
        cfg = replace(privacy, epsilon=epsilon, dp_enabled=True, seed=privacy.seed + trial)
        private = rank_records(records, cfg, tol, threshold_override=threshold_override)
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
