"""Group-by and release stages.

One pass fills an accumulator that keeps per-key value multisets rather than
running sums; the final sums come from math.fsum, whose exactly-rounded
result makes them bit-identical for any order of the input records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

from .dp import BudgetAccountant, CellRng, CensoringPolicy, censor_threshold, release_sums
from .model import AggregateTable, PrivacyConfig, ProbabilityTriple, Record

QUERY_JOINT = "joint"
QUERY_FEATURE = "feature_marginal"
QUERY_PARTITION = "partition_marginal"

# Noise can leave a joint sum above one of its marginals; repaired joints are
# pulled this far below the smaller marginal probability.
CONTAINMENT_MARGIN = 1e-12


@dataclass
class Accumulator:
    """Grouped observations at the three aggregation levels."""

    partial_joint: dict[tuple[str, str], list[float]] = field(default_factory=dict)
    partial_feature: dict[str, list[float]] = field(default_factory=dict)
    partial_partition: dict[str, list[float]] = field(default_factory=dict)
    row_count: int = 0

    def add(self, record: Record) -> None:
        obs = record.observation
        self.partial_joint.setdefault((record.feature, record.partition), []).append(obs)
        self.partial_feature.setdefault(record.feature, []).append(obs)
        self.partial_partition.setdefault(record.partition, []).append(obs)
        self.row_count += 1

    def joint_sums(self) -> dict[tuple[str, str], float]:
        return {key: math.fsum(vals) for key, vals in sorted(self.partial_joint.items())}

    def feature_sums(self) -> dict[str, float]:
        return {key: math.fsum(vals) for key, vals in sorted(self.partial_feature.items())}

    def partition_sums(self) -> dict[str, float]:
        return {key: math.fsum(vals) for key, vals in sorted(self.partial_partition.items())}


def accumulate(records: Iterable[Record]) -> Accumulator:
    """Group records in one pass.

    Records must already be contribution-bounded and clamped.
    """
    acc = Accumulator()
    for rec in records:
        acc.add(rec)
    return acc


def release_aggregate_table(
    acc: Accumulator,
    privacy: PrivacyConfig,
    accountant: BudgetAccountant | None = None,
    *,
    threshold_override: float | None = None,
    label_prefix: str = "",
    manifest: list | None = None,
    memo: dict | None = None,
) -> AggregateTable:
    """Run the three releases (joint, feature, partition) and assemble the table.

    With privacy enabled, each query is charged its budget_split share before
    release and gets its own censoring threshold. With privacy disabled each
    query spends epsilon 0, has no threshold, and keeps the positive exact
    sums. The grand total is derived from the released partition marginals,
    so it consumes no extra budget. Joint cells whose feature or partition
    marginal did not survive are removed here, keeping the table internally
    consistent. When ``manifest`` is given, one dict per query is appended
    describing epsilon, threshold, and censoring counts.

    ``memo`` is a dict the caller keeps across releases of this same ``acc``
    (at several epsilons, say): each query's exact sums are then finalised,
    and each cell's keyed uniform drawn, once for all of them. The released
    table is the same with or without it.
    """
    dp = privacy.dp_enabled
    memo = {} if memo is None else memo
    shares = [w * privacy.epsilon if dp else 0.0 for w in privacy.budget_split]
    queries = (
        (QUERY_JOINT, acc.joint_sums, shares[0]),
        (QUERY_FEATURE, acc.feature_sums, shares[1]),
        (QUERY_PARTITION, acc.partition_sums, shares[2]),
    )
    if dp and accountant is not None:
        for label, _, eps_q in queries:
            accountant.charge(label_prefix + label, eps_q)
    sens = privacy.sensitivity
    tables = []
    for label, sums, eps_q in queries:
        name = label_prefix + label
        if (privacy.seed, name) not in memo:
            memo[privacy.seed, name] = (sums(), CellRng(privacy.seed, name))
        exact, rng = memo[privacy.seed, name]
        if dp:
            tau = (
                threshold_override
                if threshold_override is not None
                else censor_threshold(eps_q, privacy.delta, sens)
            )
            released = release_sums(exact, sens, eps_q, CensoringPolicy(tau), rng)
        else:
            tau = None
            released = {key: value for key, value in exact.items() if value > 0}
        tables.append(released)
        if manifest is not None:
            survivors = sum(1 for key in exact if key in released)
            manifest.append(
                {
                    "query": name,
                    "epsilon": eps_q,
                    "threshold": tau,
                    "cells_exact": len(exact),
                    "cells_released": len(released),
                    "cells_censored": len(exact) - survivors,
                }
            )
    released_joint, released_feats, released_parts = tables

    released_joint = {
        (f, p): value
        for (f, p), value in released_joint.items()
        if f in released_feats and p in released_parts
    }
    total = math.fsum(released_parts[key] for key in sorted(released_parts))
    if not total > 0:
        raise ValueError("no partitions survived the release; total is not positive")
    return AggregateTable(
        joint=released_joint,
        feature_marginals=released_feats,
        partition_marginals=released_parts,
        total=total,
        epsilon_spent=math.fsum(shares),
    )


def build_probability_tables(
    table: AggregateTable,
) -> dict[tuple[str, str], ProbabilityTriple]:
    """Normalize released sums into per-pair probability triples.

    All three probability families share the released grand total as their
    denominator. Pairs whose feature or partition marginal was censored are
    dropped. Noise can leave p_xy above min(p_x, p_y); such triples are
    repaired by pulling p_xy just below the smaller marginal.
    """
    if not table.total > 0:
        raise ValueError(f"released total must be > 0, got {table.total}")
    total = table.total
    out: dict[tuple[str, str], ProbabilityTriple] = {}
    for feature, partition in sorted(table.joint):
        if feature not in table.feature_marginals or partition not in table.partition_marginals:
            continue
        p_x = min(table.feature_marginals[feature] / total, 1.0)
        p_y = min(table.partition_marginals[partition] / total, 1.0)
        p_xy = table.joint[(feature, partition)] / total
        cap = min(p_x, p_y)
        if p_xy > cap:
            p_xy = cap * (1.0 - CONTAINMENT_MARGIN)
        out[(feature, partition)] = ProbabilityTriple(p_x=p_x, p_y=p_y, p_xy=p_xy)
    return out
