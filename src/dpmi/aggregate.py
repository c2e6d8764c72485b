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
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .dp import BudgetAccountant, censor_threshold, keyed_uniforms, release_sums
from .model import AggregateTable, Columns, PrivacyConfig, ProbabilityTables

# The three release queries' labels, in release order.
QUERIES = ("joint", "feature_marginal", "partition_marginal")

# Noise can leave a joint sum above one of its marginals; repaired joints are
# pulled this far below the smaller marginal probability.
CONTAINMENT_MARGIN = 1e-12


@dataclass
class Accumulator:
    """Exact sums of the rows at the three grouping levels.

    ``partial_joint`` maps each (feature, partition) cell that has rows to
    the fsum of their observations, and ``cell_rows`` to their count; the
    marginal maps do the same for each feature and each partition. Every
    map is in key order, and none changes once ``uniforms`` has drawn.
    """

    partial_joint: dict[tuple[str, str], float]
    cell_rows: dict[tuple[str, str], int]
    feature_totals: dict[str, float]
    partition_totals: dict[str, float]
    row_count: int
    _draws: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def uniforms(self, seed: int, label_prefix: str) -> list[dict]:
        """Each query's keyed uniform per cell, drawn once per (seed, label_prefix).

        The draws are keyed by (seed, table_digest, label, cell), so they
        belong to this table alone; its releases at several epsilons reuse
        them, and a neighbouring table's accumulator draws its own.
        """
        key = (seed, label_prefix)
        if key not in self._draws:
            digest = table_digest(self)
            sums = (self.partial_joint, self.feature_totals, self.partition_totals)
            self._draws[key] = [
                keyed_uniforms(seed, (digest, label_prefix + q), cells)
                for q, cells in zip(QUERIES, sums)
            ]
        return self._draws[key]


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


def table_digest(acc: Accumulator) -> bytes:
    """blake2b of the exact joint table, which keys the release noise.

    Each cell adds its keys' byte lengths, its row count, its sum's bits and
    its keys, so any change to the table changes the digest.
    """
    pack = struct.Struct("<IIqd").pack
    parts: list[bytes] = []
    for (feature, partition), total in acc.partial_joint.items():
        f, p = feature.encode("utf-8"), partition.encode("utf-8")
        parts += (pack(len(f), len(p), acc.cell_rows[feature, partition], total), f, p)
    return hashlib.blake2b(b"".join(parts), digest_size=16).digest()


def release_aggregate_table(
    acc: Accumulator,
    privacy: PrivacyConfig | None,
    accountant: BudgetAccountant | None = None,
    *,
    label_prefix: str = "",
    manifest: list | None = None,
) -> AggregateTable:
    """Run the three releases (joint, feature, partition) and assemble the table.

    With a privacy config, each query is charged its budget_split share
    before release, gets its own censoring threshold, and draws its noise
    from ``acc.uniforms``. With privacy None each query spends epsilon 0,
    has no threshold, and keeps the positive exact sums. Joint cells whose
    feature or partition marginal did not survive are removed here, keeping
    the table internally consistent. When ``manifest`` is given, one dict
    per query is appended describing epsilon, threshold, and censoring
    counts.

    Noise is keyed by (seed, table_digest, label, cell), so a release on
    neighbouring data at the same seed draws fresh noise and does not reveal
    the difference. The draws live on ``acc``, so releases of one table at
    several epsilons compute them once, and no release can use another
    table's.
    """
    names = [label_prefix + q for q in QUERIES]
    exact_sums = (acc.partial_joint, acc.feature_totals, acc.partition_totals)
    if privacy is None:
        shares, thresholds = (0.0, 0.0, 0.0), (None, None, None)
        tables = [{key: value for key, value in exact.items() if value > 0} for exact in exact_sums]
    else:
        shares = [w * privacy.epsilon for w in privacy.budget_split]
        if accountant is not None:
            for name, eps_q in zip(names, shares):
                accountant.charge(name, eps_q)
        sens = privacy.sensitivity
        thresholds = [censor_threshold(eps_q, privacy.delta, sens) for eps_q in shares]
        draws = acc.uniforms(privacy.seed, label_prefix)
        tables = [release_sums(exact, sens, eps_q, tau, uniforms)
                  for exact, eps_q, tau, uniforms in zip(exact_sums, shares, thresholds, draws)]
    if manifest is not None:
        for name, eps_q, tau, exact, released in zip(names, shares, thresholds, exact_sums, tables):
            manifest.append(
                {
                    "query": name,
                    "epsilon": eps_q,
                    "threshold": tau,
                    "cells_exact": len(exact),
                    "cells_released": len(released),
                    "cells_censored": len(exact) - len(released),
                }
            )
    released_joint, released_feats, released_parts = tables
    released_joint = {
        (f, p): value
        for (f, p), value in released_joint.items()
        if f in released_feats and p in released_parts
    }
    return AggregateTable(
        joint=released_joint,
        feature_marginals=released_feats,
        partition_marginals=released_parts,
    )


def build_probability_tables(table: AggregateTable) -> ProbabilityTables:
    """Normalize released sums into the probability arrays of every joint pair.

    All three probability families share the released grand total as their
    denominator; AggregateTable guarantees it is positive and that every
    joint cell has both marginals. Each marginal is normalized once per key
    and indexed by the pairs' codes into its sorted keys. Pairs keep the
    joint table's order. Noise can leave p_xy above min(p_x, p_y); such
    pairs are repaired by pulling p_xy just below the smaller marginal.
    """
    total = table.total
    pair_features, pair_partitions = [f for f, _ in table.joint], [p for _, p in table.joint]
    feature_keys, features, p_x = _coded(table.feature_marginals, pair_features, total)
    partition_keys, partitions, p_y = _coded(table.partition_marginals, pair_partitions, total)
    p_xy = np.fromiter(table.joint.values(), np.float64, len(table.joint)) / total
    cap = np.minimum(p_x, p_y)
    p_xy = np.where(p_xy > cap, cap * (1.0 - CONTAINMENT_MARGIN), p_xy)
    return ProbabilityTables(features, feature_keys, partitions, partition_keys, p_x, p_y, p_xy)


def _coded(
    marginals: Mapping[str, float], pair_keys: list[str], total: float
) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The sorted marginal keys, each pair key's code among them, and each
    pair's marginal probability, capped at 1."""
    keys = sorted(marginals)
    index = dict(zip(keys, range(len(keys))))
    codes = np.fromiter(map(index.__getitem__, pair_keys), np.int64, len(pair_keys))
    probability = np.fromiter(map(marginals.__getitem__, keys), np.float64, len(keys)) / total
    return keys, codes, np.minimum(probability, 1.0)[codes]
