"""Group-by and release stages.

One pass over the input columns fills an accumulator that keeps each joint
cell's value multiset rather than a running sum. A marginal's multiset is
the union of its cells' multisets. Every sum comes from math.fsum, whose
exactly-rounded result makes it bit-identical for any order of the input
rows.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from itertools import chain

from .dp import BudgetAccountant, censor_threshold, keyed_uniforms, release_sums
from .model import AggregateTable, Columns, PrivacyConfig, ProbabilityTriple

QUERY_JOINT = "joint"
QUERY_FEATURE = "feature_marginal"
QUERY_PARTITION = "partition_marginal"

# Noise can leave a joint sum above one of its marginals; repaired joints are
# pulled this far below the smaller marginal probability.
CONTAINMENT_MARGIN = 1e-12


@dataclass
class Accumulator:
    """Observations grouped by (feature, partition) cell.

    Each joint cell holds the list of its rows' observations as Python
    floats, in row order; only the joint cells hold values. A feature's or a
    partition's marginal sum is the fsum over the union of its cells' lists:
    the same multiset a per-marginal list would hold, so the exactly rounded
    sum has the same bits.
    """

    partial_joint: dict[tuple[str, str], list[float]] = field(default_factory=dict)
    row_count: int = 0

    def joint_sums(self) -> dict[tuple[str, str], float]:
        return {key: math.fsum(vals) for key, vals in sorted(self.partial_joint.items())}

    def feature_sums(self) -> dict[str, float]:
        return self._marginal_sums(0)

    def partition_sums(self) -> dict[str, float]:
        return self._marginal_sums(1)

    def _marginal_sums(self, axis: int) -> dict[str, float]:
        cells: dict[str, list[list[float]]] = {}
        for key, vals in self.partial_joint.items():
            cells.setdefault(key[axis], []).append(vals)
        return {key: math.fsum(chain.from_iterable(lists)) for key, lists in sorted(cells.items())}


def accumulate(cols: Columns) -> Accumulator:
    """Group the rows of the columns in one pass.

    Each row's observation goes to the value list of its (feature,
    partition) cell. The columns must already be contribution-bounded and
    clamped.
    """
    acc = Accumulator(row_count=len(cols))
    joint = acc.partial_joint
    for key, value in zip(zip(cols.features, cols.partitions), cols.observations.tolist()):
        joint.setdefault(key, []).append(value)
    return acc


def table_digest(acc: Accumulator, joint: dict[tuple[str, str], float]) -> bytes:
    """blake2b of the exact joint table, which keys the release noise.

    ``joint`` is ``acc.joint_sums()``, whose sums and key order are reused.
    Each cell adds its keys' byte lengths, its row count, its sum's bits and
    its keys, so any change to the table changes the digest.
    """
    pack = struct.Struct("<IIqd").pack
    parts: list[bytes] = []
    for (feature, partition), total in joint.items():
        f, p = feature.encode("utf-8"), partition.encode("utf-8")
        parts += (pack(len(f), len(p), len(acc.partial_joint[feature, partition]), total), f, p)
    return hashlib.blake2b(b"".join(parts), digest_size=16).digest()


def release_aggregate_table(
    acc: Accumulator,
    privacy: PrivacyConfig,
    accountant: BudgetAccountant | None = None,
    *,
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

    Noise is keyed by (seed, table_digest, label, cell), so a release on
    neighbouring data at the same seed draws fresh noise and does not reveal
    the difference. ``memo`` is a dict the caller keeps across releases of
    this same ``acc`` (at several epsilons, say): it holds each query's exact
    sums and, with DP on, each cell's keyed uniform, so the digest, the sums
    and the draws are computed once for all of them. The released table is
    the same with or without it.
    """
    dp = privacy.dp_enabled
    memo = {} if memo is None else memo
    shares = [w * privacy.epsilon if dp else 0.0 for w in privacy.budget_split]
    names = [label_prefix + q for q in (QUERY_JOINT, QUERY_FEATURE, QUERY_PARTITION)]
    if dp and accountant is not None:
        for name, eps_q in zip(names, shares):
            accountant.charge(name, eps_q)
    memo_key = (privacy.seed, label_prefix, dp)
    if memo_key not in memo:
        exact_sums = (acc.joint_sums(), acc.feature_sums(), acc.partition_sums())
        digest = table_digest(acc, exact_sums[0]) if dp else b""
        memo[memo_key] = [
            (e, keyed_uniforms(privacy.seed, (digest, n), e) if dp else None)
            for e, n in zip(exact_sums, names)
        ]
    sens = privacy.sensitivity
    tables = []
    for name, eps_q, (exact, uniforms) in zip(names, shares, memo[memo_key]):
        if dp:
            tau = censor_threshold(eps_q, privacy.delta, sens)
            released = release_sums(exact, sens, eps_q, tau, uniforms)
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
    denominator; AggregateTable guarantees it is positive and that every
    joint cell has both marginals. Noise can leave p_xy above
    min(p_x, p_y); such triples are repaired by pulling p_xy just below the
    smaller marginal.
    """
    total = table.total
    out: dict[tuple[str, str], ProbabilityTriple] = {}
    for feature, partition in sorted(table.joint):
        p_x = min(table.feature_marginals[feature] / total, 1.0)
        p_y = min(table.partition_marginals[partition] / total, 1.0)
        p_xy = table.joint[(feature, partition)] / total
        cap = min(p_x, p_y)
        if p_xy > cap:
            p_xy = cap * (1.0 - CONTAINMENT_MARGIN)
        out[(feature, partition)] = ProbabilityTriple(p_x=p_x, p_y=p_y, p_xy=p_xy)
    return out
