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
from typing import Iterable, Mapping, Sequence

from .aggregate import accumulate, build_probability_tables, release_aggregate_table
from .dp import BudgetAccountant, BudgetExceededError, prepare_records
from .model import Direction, PrivacyConfig, ProbabilityTriple, RankedResult, Record

logger = logging.getLogger(__name__)

COHORT_LABEL = "cohort"
REST_LABEL = "__rest__"

# Ranking quality degrades when both sides of the comparison are huge; warn
# when the smaller domain crosses this size.
CARDINALITY_WARNING = 1_000_000

# Probability floor of every MI cell (see calc_single_mi).
TOL = 1e-16


def calc_single_mi(p_x: float, p_y: float, p_xy: float) -> float:
    """One cell's contribution: p_xy * ln(p_xy / max(p_x * p_y, TOL)).

    Cells with p_xy below TOL contribute nothing, and the marginal product is
    floored at TOL so sparse cells cannot underflow the logarithm.
    """
    if p_xy < TOL:
        return 0.0
    phi = p_x * p_y
    if phi < TOL:
        phi = TOL
    return p_xy * math.log(p_xy / phi)


def calc_mi(p_x: float, p_y: float, p_xy: float) -> float:
    """Binary MI: the four-cell presence/absence decomposition of one pair.

    Complement cells are derived from the triple and floored at zero, since
    noisy inputs can push them slightly negative.
    """
    p_nx = max(0.0, 1.0 - p_x)
    p_ny = max(0.0, 1.0 - p_y)
    p_x_ny = max(0.0, p_x - p_xy)
    p_y_nx = max(0.0, p_y - p_xy)
    p_nx_ny = max(0.0, 1.0 - p_x - p_y + p_xy)
    return (
        calc_single_mi(p_x, p_y, p_xy)
        + calc_single_mi(p_x, p_ny, p_x_ny)
        + calc_single_mi(p_nx, p_y, p_y_nx)
        + calc_single_mi(p_nx, p_ny, p_nx_ny)
    )


def direction(p_x: float, p_y: float, p_xy: float) -> Direction:
    """Presence when the feature's odds inside the partition beat its odds outside.

    Ties resolve to Absence because the comparison is strict.
    """
    if not 0.0 < p_y < 1.0:
        raise ValueError(
            f"direction needs 0 < p_y < 1, got {p_y}; single-partition input is degenerate"
        )
    inside = p_xy / p_y
    outside = (p_x - p_xy) / (1.0 - p_y)
    return Direction.PRESENCE if inside > outside else Direction.ABSENCE


def rank(tables: Mapping[tuple[str, str], ProbabilityTriple]) -> list[RankedResult]:
    """Score every pair and order globally by MI descending.

    MI cells use the fixed probability floor ``TOL``. Ties break by
    (partition, feature) so repeated runs emit identical files. Scores
    pushed below zero by noise artifacts are clamped to zero. A partition
    holding the whole total (p_y == 1) means no other partition survived, so
    there is nothing to compare it against: the result is empty and a warning
    is logged.
    """
    if not tables:
        return []
    if any(t.p_y == 1.0 for t in tables.values()):
        logger.warning("fewer than two partitions remain; one-vs-all ranking is empty")
        return []
    n_features = len({f for f, _ in tables})
    n_partitions = len({p for _, p in tables})
    if min(n_features, n_partitions) > CARDINALITY_WARNING:
        logger.warning(
            "ranking %d features against %d partitions; quality degrades when both sides are this large",
            n_features,
            n_partitions,
        )
    scored = []
    for (feature, partition), t in sorted(tables.items()):
        mi = calc_mi(t.p_x, t.p_y, t.p_xy)
        scored.append((max(0.0, mi), direction(t.p_x, t.p_y, t.p_xy), partition, feature))
    scored.sort(key=lambda s: (-s[0], s[2], s[3]))
    return [
        RankedResult(partition=p, feature=f, mi=mi, direction=d, rank=i + 1)
        for i, (mi, d, p, f) in enumerate(scored)
    ]


def transpose_tables(
    tables: Mapping[tuple[str, str], ProbabilityTriple],
) -> dict[tuple[str, str], ProbabilityTriple]:
    """Swap the feature and partition roles in a probability-table map."""
    return {
        (partition, feature): ProbabilityTriple(p_x=t.p_y, p_y=t.p_x, p_xy=t.p_xy)
        for (feature, partition), t in tables.items()
    }


def flip(tables: Mapping[tuple[str, str], ProbabilityTriple]) -> list[RankedResult]:
    """Rank partitions per feature, reusing MI symmetry on the transposed table."""
    return rank(transpose_tables(tables))


def rank_records(
    records: Iterable[Record],
    privacy: PrivacyConfig,
    accountant: BudgetAccountant | None = None,
    *,
    swap: bool = False,
    top_k: int | None = None,
    label_prefix: str = "",
) -> list[RankedResult]:
    """Full pipeline from records to a ranked results list.

    With privacy enabled: bound contributions, clamp, aggregate, release the
    three tables under the split budget, normalize, rank. With privacy
    disabled the exact positive sums are used directly and no randomness is
    consumed. swap ranks partitions per feature by flipping the released
    table, so it spends the same budget as ranking it. top_k, when given,
    keeps the first top_k results and must be at least 1.
    """
    if top_k is not None and top_k < 1:
        raise ValueError(f"top_k must be >= 1, got {top_k}")
    prepared = prepare_records(records, privacy)
    acc = accumulate(prepared)
    table = release_aggregate_table(acc, privacy, accountant, label_prefix=label_prefix)
    tables = build_probability_tables(table)
    results = flip(tables) if swap else rank(tables)
    return results[:top_k] if top_k is not None else results


def binary_rank(
    records: Iterable[Record],
    partition: str,
    privacy: PrivacyConfig,
) -> list[RankedResult]:
    """One-vs-all ranking for a single partition label.

    Records keep their partition when it matches and collapse into a rest
    bucket otherwise, then flow through the standard pipeline.
    """
    relabeled = [
        r if r.partition == partition else Record(r.id, r.feature, REST_LABEL, r.observation)
        for r in records
    ]
    return rank_records(relabeled, privacy)


@dataclass(frozen=True)
class FoldSpec:
    """One cascade stage: the records it ranks, its budget share, and its seeds.

    seeds None means the stage is labeled from the previous stage's top
    Presence features. top_k bounds how many features feed the next stage.
    """

    records: Sequence[Record]
    epsilon: float
    seeds: tuple[str, ...] | None = None
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
    results: list[RankedResult]
    next_seeds: tuple[str, ...]


def _match_cohort(records: Sequence[Record], seeds: tuple[str, ...]) -> set[str]:
    seed_set = set(seeds)
    return {r.id for r in records if r.feature in seed_set and r.observation > 0}


def nfold(
    folds: Sequence[FoldSpec],
    privacy: PrivacyConfig,
    accountant: BudgetAccountant | None = None,
) -> list[FoldResult]:
    """Run the cascade: each stage labels ids cohort-vs-rest and ranks binary MI.

    Stage 1's cohort comes from matching its explicit seeds in its own
    records; later stages match the previous stage's top Presence features in
    the previous stage's records (where those features live). The total
    budget is validated before any stage runs, then charged stage by stage.
    Every stage uses the run's seed; its noise is keyed apart by its
    ``fold{i}/`` label, which is also its label on the ledger.
    """
    if not folds:
        raise ValueError("at least one fold is required")
    if folds[0].seeds is None:
        raise ValueError("the first fold needs explicit seeds")
    if privacy.dp_enabled:
        if accountant is None:
            accountant = BudgetAccountant(privacy.epsilon)
        want = math.fsum(f.epsilon for f in folds)
        if want > accountant.remaining + 1e-9:
            raise BudgetExceededError(
                f"folds need epsilon {want}, accountant has {accountant.remaining} left"
            )
    out: list[FoldResult] = []
    prev: FoldResult | None = None
    for i, fold in enumerate(folds, start=1):
        if fold.seeds is not None:
            seeds = tuple(fold.seeds)
            match_records = fold.records
        else:
            assert prev is not None
            seeds = prev.next_seeds
            match_records = folds[i - 2].records
        if not seeds:
            raise ValueError(f"fold {i} has no seed features")
        cohort = _match_cohort(match_records, seeds)
        if not cohort:
            raise ValueError(f"fold {i}: no ids matched the seed features")
        relabeled = [
            Record(r.id, r.feature, COHORT_LABEL if r.id in cohort else REST_LABEL, r.observation)
            for r in fold.records
        ]
        cohort_ids = {r.id for r in fold.records if r.id in cohort}
        rest_ids = {r.id for r in fold.records if r.id not in cohort}
        if not cohort_ids or not rest_ids:
            raise ValueError(f"fold {i}: labeling is degenerate (one side is empty)")
        fold_privacy = replace(privacy, epsilon=fold.epsilon) if privacy.dp_enabled else privacy
        ranked = rank_records(relabeled, fold_privacy, accountant, label_prefix=f"fold{i}/")
        next_seeds = tuple(
            r.feature
            for r in ranked
            if r.partition == COHORT_LABEL and r.direction is Direction.PRESENCE
        )[: fold.top_k]
        result = FoldResult(
            index=i,
            seeds=seeds,
            cohort_size=len(cohort_ids),
            rest_size=len(rest_ids),
            epsilon=fold.epsilon if privacy.dp_enabled else 0.0,
            results=ranked,
            next_seeds=next_seeds,
        )
        out.append(result)
        prev = result
    return out
