"""Group-by and release stages.

The group-by sorts the rows once by their (feature, partition) cell code,
so each joint cell's rows, and each feature's, form one slice of the
sorted observations. Every sum is one math.fsum over its rows, and fsum is
exactly rounded: its result depends only on the multiset of values, so it
is bit-identical for any order of the input rows and any sort kind.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

from .dp import BudgetAccountant, censor_threshold, keyed_uniforms, release_sums
from .model import AggregateTable, Columns, PrivacyConfig, ProbabilityTables

QUERY_JOINT = "joint"
QUERY_FEATURE = "feature_marginal"
QUERY_PARTITION = "partition_marginal"

# Noise can leave a joint sum above one of its marginals; repaired joints are
# pulled this far below the smaller marginal probability.
CONTAINMENT_MARGIN = 1e-12


@dataclass
class Accumulator:
    """Exact sums of the rows at the three grouping levels.

    ``partial_joint`` maps each (feature, partition) cell that has rows to
    the fsum of their observations, and ``cell_rows`` to their count; the
    marginal maps do the same for each feature and each partition. Every
    map is in key order.
    """

    partial_joint: dict[tuple[str, str], float]
    cell_rows: dict[tuple[str, str], int]
    feature_totals: dict[str, float]
    partition_totals: dict[str, float]
    row_count: int

    def joint_sums(self) -> dict[tuple[str, str], float]:
        return self.partial_joint

    def feature_sums(self) -> dict[str, float]:
        return self.feature_totals

    def partition_sums(self) -> dict[str, float]:
        return self.partition_totals


def _groups(codes: np.ndarray, values: list[float]) -> tuple[np.ndarray, list[float], list[int]]:
    """Each run of equal sorted ``codes``: the code, its ``values``' fsum and the run length."""
    if not len(codes):
        return codes, [], []
    bounds = [0, *(np.flatnonzero(np.diff(codes)) + 1).tolist(), len(codes)]
    slices = map(values.__getitem__, map(slice, bounds, bounds[1:]))
    return codes[bounds[:-1]], list(map(math.fsum, slices)), np.diff(bounds).tolist()


def accumulate(cols: Columns) -> Accumulator:
    """Group the rows of the columns by one sort of their cell codes.

    The cell code feature * P + partition orders cells as their (feature,
    partition) keys, and a feature's cells are contiguous in that order, so
    each joint cell and each feature marginal is an fsum over one slice of
    the sorted observations. Each partition marginal is an fsum over its
    own rows. The columns must already be contribution-bounded and clamped.
    """
    fkeys, pkeys = cols.feature_keys, cols.partition_keys
    n_partitions = max(1, len(pkeys))
    cell = cols.features * n_partitions + cols.partitions
    order = np.argsort(cell)
    cell, values = cell[order], cols.observations[order].tolist()
    cells, sums, counts = _groups(cell, values)
    features, feature_sums, _ = _groups(cell // n_partitions, values)
    order = np.argsort(cols.partitions)
    partitions, partition_sums, _ = _groups(
        cols.partitions[order], cols.observations[order].tolist()
    )
    del order, cell, values
    keys = list(zip(map(fkeys.__getitem__, (cells // n_partitions).tolist()),
                    map(pkeys.__getitem__, (cells % n_partitions).tolist())))
    return Accumulator(
        partial_joint=dict(zip(keys, sums)),
        cell_rows=dict(zip(keys, counts)),
        feature_totals=dict(zip(map(fkeys.__getitem__, features.tolist()), feature_sums)),
        partition_totals=dict(zip(map(pkeys.__getitem__, partitions.tolist()), partition_sums)),
        row_count=len(cols),
    )


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
        parts += (pack(len(f), len(p), acc.cell_rows[feature, partition], total), f, p)
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
    this same ``acc`` (at several epsilons, say): with DP on it holds each
    cell's keyed uniform, so the digest and the draws are computed once for
    all of them. The released table is the same with or without it.
    """
    dp = privacy.dp_enabled
    memo = {} if memo is None else memo
    shares = [w * privacy.epsilon if dp else 0.0 for w in privacy.budget_split]
    names = [label_prefix + q for q in (QUERY_JOINT, QUERY_FEATURE, QUERY_PARTITION)]
    if dp and accountant is not None:
        for name, eps_q in zip(names, shares):
            accountant.charge(name, eps_q)
    exact_sums = (acc.joint_sums(), acc.feature_sums(), acc.partition_sums())
    memo_key = (privacy.seed, label_prefix)
    if dp and memo_key not in memo:
        digest = table_digest(acc, exact_sums[0])
        memo[memo_key] = [
            keyed_uniforms(privacy.seed, (digest, n), e) for e, n in zip(exact_sums, names)
        ]
    sens = privacy.sensitivity
    tables = []
    all_uniforms = memo[memo_key] if dp else (None, None, None)
    for name, eps_q, exact, uniforms in zip(names, shares, exact_sums, all_uniforms):
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


def build_probability_tables(table: AggregateTable) -> ProbabilityTables:
    """Normalize released sums into the probability arrays of every joint pair.

    All three probability families share the released grand total as their
    denominator; AggregateTable guarantees it is positive and that every
    joint cell has both marginals. Pairs keep the joint table's order. Noise
    can leave p_xy above min(p_x, p_y); such pairs are repaired by pulling
    p_xy just below the smaller marginal.
    """
    total = table.total
    features = [f for f, _ in table.joint]
    partitions = [p for _, p in table.joint]
    n = len(features)
    p_x = np.fromiter(map(table.feature_marginals.__getitem__, features), np.float64, n) / total
    p_y = np.fromiter(map(table.partition_marginals.__getitem__, partitions), np.float64, n) / total
    p_x, p_y = np.minimum(p_x, 1.0), np.minimum(p_y, 1.0)
    p_xy = np.fromiter(table.joint.values(), np.float64, n) / total
    cap = np.minimum(p_x, p_y)
    p_xy = np.where(p_xy > cap, cap * (1.0 - CONTAINMENT_MARGIN), p_xy)
    return ProbabilityTables(
        features, partitions, p_x, p_y, p_xy,
        n_features=len(table.feature_marginals),
        n_partitions=len(table.partition_marginals),
    )
