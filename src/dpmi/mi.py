"""Mutual-information ranking core.

A (feature, partition) pair is scored as the MI of the 2x2 table induced by
feature presence against partition membership. The complement cells make each
partition a one-vs-all comparison, so a single batched pass covers every
partition at once. MI values are reported in nats.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .aggregate import accumulate, build_probability_tables, release_aggregate_table
from .dp import BudgetAccountant, prepare_records
from .model import (
    Columns,
    PrivacyConfig,
    ProbabilityTables,
    Ranking,
    Record,
)

logger = logging.getLogger(__name__)

COHORT_LABEL = "cohort"
REST_LABEL = "__rest__"

# Ranking quality degrades when both sides of the comparison are huge; warn
# when the smaller domain crosses this size.
CARDINALITY_WARNING = 1_000_000

# Probability floor of every MI cell (see calc_single_mi).
TOL = 1e-16


def _floor0(x: np.ndarray) -> np.ndarray:
    """max(0.0, x) elementwise: 0.0 unless x > 0, so -0.0 and NaN become 0.0."""
    return np.where(x > 0.0, x, 0.0)


def calc_single_mi(p_x, p_y, p_xy) -> np.ndarray:
    """Each cell's contribution: p_xy * ln(p_xy / max(p_x * p_y, TOL)).

    Takes float64 arrays (or scalars) of one shape. Cells with p_xy below
    TOL contribute nothing, and the marginal product is floored at TOL so
    sparse cells cannot underflow the logarithm. The logarithm is
    ``math.log`` of each cell, not ``np.log``, which may differ from it in
    the last bit; products, quotients and comparisons are numpy's, which
    IEEE 754 rounds exactly as Python does.
    """
    p_x, p_y, p_xy = (np.asarray(v, dtype=np.float64) for v in (p_x, p_y, p_xy))
    live = ~(p_xy < TOL)
    phi = p_x * p_y
    ratio = np.where(live, p_xy / np.where(phi < TOL, TOL, phi), 1.0)
    logs = np.fromiter(map(math.log, ratio.ravel().tolist()), np.float64, ratio.size)
    return np.where(live, p_xy * logs.reshape(ratio.shape), 0.0)[()]


def calc_mi(p_x, p_y, p_xy) -> np.ndarray:
    """Binary MI: the four-cell presence/absence decomposition of each pair.

    Takes float64 arrays (or scalars) of one shape and returns one score per
    element. Complement cells are derived from the triple and floored at
    zero, since noisy inputs can push them slightly negative.
    """
    p_x, p_y, p_xy = (np.asarray(v, dtype=np.float64) for v in (p_x, p_y, p_xy))
    p_nx = _floor0(1.0 - p_x)
    p_ny = _floor0(1.0 - p_y)
    p_x_ny = _floor0(p_x - p_xy)
    p_y_nx = _floor0(p_y - p_xy)
    p_nx_ny = _floor0(1.0 - p_x - p_y + p_xy)
    return (
        calc_single_mi(p_x, p_y, p_xy)
        + calc_single_mi(p_x, p_ny, p_x_ny)
        + calc_single_mi(p_nx, p_y, p_y_nx)
        + calc_single_mi(p_nx, p_ny, p_nx_ny)
    )


def direction(p_x, p_y, p_xy):
    """Presence (True) when the feature's odds inside the partition beat its
    odds outside, Absence (False) otherwise.

    Takes float64 arrays (or scalars) of one shape and returns a bool per
    element: a bool array, or one numpy bool for scalars. Ties resolve to
    Absence because the comparison is strict.
    """
    p_x, p_y, p_xy = (np.asarray(v, dtype=np.float64) for v in (p_x, p_y, p_xy))
    bad = p_y[~((0.0 < p_y) & (p_y < 1.0))]
    if bad.size:
        raise ValueError(
            f"direction needs 0 < p_y < 1, got {bad[0]}; single-partition input is degenerate"
        )
    inside = p_xy / p_y
    outside = (p_x - p_xy) / (1.0 - p_y)
    return inside > outside


def rank(tables: ProbabilityTables, *, compared: str = "partitions") -> Ranking:
    """Score every pair and order globally by MI descending.

    All pairs are scored at once on arrays, and the result holds them as
    columns: no object is built per pair. MI cells use the fixed
    probability floor ``TOL``. Ties break by (partition, feature), which
    the pair codes order as their keys, so repeated runs emit identical
    files. Scores pushed below zero by noise artifacts are clamped to zero.
    When fewer than two partitions were released, a partition has nothing
    to be compared against: the result is empty and a warning, naming the
    ``compared`` side, is logged. So it is when a partition's probability
    is capped at 1, which leaves it no rest. The cardinality warning counts
    the released keys of each side.
    """
    if not len(tables):
        return Ranking.empty()
    if len(tables.partition_keys) < 2:
        logger.warning("fewer than two %s remain; one-vs-all ranking is empty", compared)
        return Ranking.empty()
    if (tables.p_y == 1.0).any():
        logger.warning("one of the %s holds the whole total; one-vs-all ranking is empty", compared)
        return Ranking.empty()
    if min(len(tables.feature_keys), len(tables.partition_keys)) > CARDINALITY_WARNING:
        logger.warning(
            "ranking %d features against %d partitions; quality degrades when both sides are this large",
            len(tables.feature_keys),
            len(tables.partition_keys),
        )
    p_x, p_y, p_xy = tables.p_x, tables.p_y, tables.p_xy
    mi = _floor0(calc_mi(p_x, p_y, p_xy))
    # (partition, feature) is unique, so the order is total.
    order = np.lexsort((tables.features, tables.partitions, -mi))
    return Ranking(
        np.array(tables.partition_keys, dtype=object)[tables.partitions[order]],
        np.array(tables.feature_keys, dtype=object)[tables.features[order]],
        mi[order],
        direction(p_x, p_y, p_xy)[order],
    )


def transpose_tables(tables: ProbabilityTables) -> ProbabilityTables:
    """Swap the feature and partition roles of every pair."""
    return ProbabilityTables(
        tables.partitions, tables.partition_keys, tables.features, tables.feature_keys,
        tables.p_y, tables.p_x, tables.p_xy,
    )


def flip(tables: ProbabilityTables) -> Ranking:
    """Rank partitions per feature, reusing MI symmetry on the transposed table.

    With fewer than two released features the result is empty, as rank's is
    with fewer than two partitions.
    """
    return rank(transpose_tables(tables), compared="features")


def rank_records(
    records: Columns | Iterable[Record],
    privacy: PrivacyConfig | None,
    accountant: BudgetAccountant | None = None,
    *,
    swap: bool = False,
    top_k: int | None = None,
    label_prefix: str = "",
) -> Ranking:
    """Full pipeline from records to a ranking.

    With a privacy config: bound contributions, clamp, aggregate, release
    the three tables under the split budget, normalize, rank. With privacy
    None the exact positive sums are ranked and no randomness is consumed.
    swap ranks partitions per feature by flipping the released table, so it
    spends the same budget as ranking it. top_k, when given, keeps the first
    top_k results and must be at least 1. A Record list is converted to
    columns once; every stage runs on the columns.
    """
    if top_k is not None and top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    prepared = prepare_records(Columns.from_records(records), privacy)
    acc = accumulate(prepared)
    table = release_aggregate_table(acc, privacy, accountant, label_prefix=label_prefix)
    tables = build_probability_tables(table)
    results = flip(tables) if swap else rank(tables)
    return results[:top_k] if top_k is not None else results


def binary_rank(
    records: Columns | Iterable[Record],
    partition: str,
    privacy: PrivacyConfig | None,
) -> Ranking:
    """One-vs-all ranking for a single partition label.

    Rows keep their partition when it matches and collapse into a rest
    bucket otherwise, then flow through the standard pipeline. Only the
    partition code array is relabelled, before bounding; the other columns
    are shared, and no Record is built.
    """
    cols = Columns.from_records(records)
    inside = np.array([key == partition for key in cols.partition_keys], bool)[cols.partitions]
    return rank_records(_relabel(cols, inside, partition), privacy)


def _relabel(cols: Columns, inside: np.ndarray, label: str) -> Columns:
    """The columns with the rows where ``inside`` holds in partition ``label``
    and every other row in REST_LABEL."""
    keys = sorted({label, REST_LABEL})
    codes = np.where(inside, keys.index(label), keys.index(REST_LABEL))
    return replace(cols, partitions=codes, partition_keys=keys)


@dataclass(frozen=True)
class FoldSpec:
    """One cascade stage: the rows it ranks (records or columns) and its budget
    share. top_k bounds how many features feed the next stage.
    """

    records: Columns | Sequence[Record]
    epsilon: float
    top_k: int = 10

    def __post_init__(self) -> None:
        if self.top_k < 1:
            raise ValueError(f"fold top_k must be >= 1, got {self.top_k}")


@dataclass
class FoldResult:
    index: int
    seeds: tuple[str, ...]
    cohort_size: int
    rest_size: int
    epsilon: float
    results: Ranking
    next_seeds: tuple[str, ...]


def _match_cohort(cols: Columns, seeds: tuple[str, ...]) -> set[str]:
    """Ids holding a positive observation of some seed feature."""
    seed_set = set(seeds)
    is_seed = np.array([key in seed_set for key in cols.feature_keys], bool)
    rows = is_seed[cols.features] & (cols.observations > 0)
    return set(map(cols.id_keys.__getitem__, cols.ids[rows].tolist()))


def nfold(
    folds: Sequence[FoldSpec],
    seeds: Sequence[str],
    privacy: PrivacyConfig | None,
    accountant: BudgetAccountant | None = None,
) -> list[FoldResult]:
    """Run the cascade: each stage labels ids cohort-vs-rest and ranks binary MI.

    Stage 1's cohort comes from matching ``seeds`` in its own records; each
    later stage matches the previous stage's top Presence features in the
    previous stage's records (where those features live). With DP, each
    stage's epsilon and their total are checked before any stage runs.
    Every stage uses the run's seed; its noise is keyed apart by its
    ``fold{i}/`` label, which is also its label on the ledger. Each stage's
    records are converted to columns once, and a stage relabels its
    partition column cohort-vs-rest before bounding.
    """
    if not folds:
        raise ValueError("at least one fold is required")
    configs: list[PrivacyConfig | None] = [None] * len(folds)
    if privacy is not None:
        for i, fold in enumerate(folds):
            try:
                configs[i] = replace(privacy, epsilon=fold.epsilon)
            except ValueError as exc:
                raise ValueError(f"fold {i + 1}: {exc}") from None
        if accountant is None:
            accountant = BudgetAccountant(privacy.epsilon)
        accountant.check("the folds' total", math.fsum(f.epsilon for f in folds))
    stages = [Columns.from_records(fold.records) for fold in folds]
    seeds = tuple(seeds)
    out: list[FoldResult] = []
    for i, (fold, cols, match_cols, fold_privacy) in enumerate(
        zip(folds, stages, [stages[0], *stages], configs), start=1
    ):
        if not seeds:
            raise ValueError(f"fold {i} has no seeds to match")
        cohort = _match_cohort(match_cols, seeds)
        if not cohort:
            raise ValueError(f"fold {i}: no ids matched the seed features")
        in_cohort = np.array([key in cohort for key in cols.id_keys], bool)
        present = np.bincount(cols.ids, minlength=len(cols.id_keys)) > 0
        cohort_size = int(np.count_nonzero(in_cohort & present))
        rest_size = int(np.count_nonzero(present)) - cohort_size
        if not cohort_size or not rest_size:
            raise ValueError(f"fold {i}: labeling is degenerate (one side is empty)")
        ranked = rank_records(
            _relabel(cols, in_cohort[cols.ids], COHORT_LABEL),
            fold_privacy,
            accountant,
            label_prefix=f"fold{i}/",
        )
        seeding = ranked.presence & (ranked.partitions == COHORT_LABEL)
        next_seeds = tuple(ranked.features[seeding][: fold.top_k].tolist())
        result = FoldResult(
            index=i,
            seeds=seeds,
            cohort_size=cohort_size,
            rest_size=rest_size,
            epsilon=fold.epsilon if privacy is not None else 0.0,
            results=ranked,
            next_seeds=next_seeds,
        )
        out.append(result)
        seeds = next_seeds
    return out
