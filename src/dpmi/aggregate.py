"""Group-by and release stages, on coded arrays from the rows to the probability tables.

The group-by sorts the rows once by their (feature, partition) cell code,
so each joint cell's rows, and each feature's, form one slice of the
sorted observations. Every sum is one math.fsum over its rows, and fsum is
exactly rounded: its result depends only on the multiset of values, so it
is bit-identical for any order of the input rows and any sort kind.

Every table between the group-by and the probability tables is a set of
code arrays with their sums, indexing the columns' sorted key lists: the
releases add noise and censor whole arrays, and normalisation indexes the
released marginals by code. Keys are looked up only to hash them for the
noise draws and the table digest.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .dp import (BudgetAccountant, Released, censor_threshold, pack_keys, packed_uniforms,
                 release_sums)
from .model import AggregateTable, Columns, PrivacyConfig, ProbabilityTables

# The three release queries' labels, in release order.
QUERIES = ("joint", "feature_marginal", "partition_marginal")

# Noise can leave a joint sum above one of its marginals; repaired joints are
# pulled this far below the smaller marginal probability.
CONTAINMENT_MARGIN = 1e-12

# The fixed part of a cell's table_digest record: its keys' UTF-8 byte
# lengths, its row count and its sum's bits, little-endian and unpadded.
_CELL_HEAD = np.dtype([("feature_len", "<u4"), ("partition_len", "<u4"), ("rows", "<i8"),
                       ("sum", "<f8")])


@dataclass(eq=False)
class Accumulator:
    """Exact sums of the rows at the three grouping levels, as code arrays.

    ``cells`` holds each (feature, partition) cell that has rows, as the
    code feature * P + partition with P = max(1, len(partition_keys)),
    ascending, so in (feature, partition) key order; ``partial_joint``
    holds each cell's fsum and ``cell_rows`` its row count. ``features``
    and ``partitions`` hold each code that has rows, ascending, with their
    fsums in ``feature_totals`` and ``partition_totals``. Codes index the
    columns' sorted key lists, which may hold keys that no row uses. No
    array changes once ``uniforms`` has drawn.
    """

    cells: np.ndarray
    partial_joint: np.ndarray
    cell_rows: np.ndarray
    features: np.ndarray
    feature_totals: np.ndarray
    partitions: np.ndarray
    partition_totals: np.ndarray
    feature_keys: list[str]
    partition_keys: list[str]
    row_count: int
    _draws: dict = field(default_factory=dict, init=False, repr=False)

    def cell_codes(self) -> tuple[np.ndarray, np.ndarray]:
        """Each joint cell's feature code and partition code."""
        return np.divmod(self.cells, max(1, len(self.partition_keys)))

    def uniforms(self, seed: int, label_prefix: str) -> list[np.ndarray]:
        """Each query's keyed uniform per cell, drawn once per (seed, label_prefix).

        The draws are keyed by (seed, table_digest, label, cell keys), so they
        belong to this table alone; its releases at several epsilons reuse
        them, and a neighbouring table's accumulator draws its own.
        """
        key = (seed, label_prefix)
        if key not in self._draws:
            digest = table_digest(self)
            # Each key is packed once; a joint cell's message is its feature's
            # packed bytes and then its partition's.
            fkeys, pkeys = pack_keys(self.feature_keys), pack_keys(self.partition_keys)
            features, partitions = (codes.tolist() for codes in self.cell_codes())
            messages = (
                map(bytes.__add__, map(fkeys.__getitem__, features),
                    map(pkeys.__getitem__, partitions)),
                map(fkeys.__getitem__, self.features.tolist()),
                map(pkeys.__getitem__, self.partitions.tolist()),
            )
            self._draws[key] = [
                packed_uniforms(seed, (digest, label_prefix + q), cells)
                for q, cells in zip(QUERIES, messages)
            ]
        return self._draws[key]


def _groups(codes: np.ndarray, values: list[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each run of equal sorted ``codes``: the code, its ``values``' fsum and the run length."""
    if not len(codes):
        return codes, np.empty(0), codes
    bounds = [0, *(np.flatnonzero(np.diff(codes)) + 1).tolist(), len(codes)]
    sums = map(math.fsum, map(values.__getitem__, map(slice, bounds, bounds[1:])))
    return codes[bounds[:-1]], np.fromiter(sums, np.float64, len(bounds) - 1), np.diff(bounds)


def accumulate(cols: Columns) -> Accumulator:
    """Group the rows of the columns by one sort of their cell codes.

    The cell code feature * P + partition orders cells as their (feature,
    partition) keys, and a feature's cells are contiguous in that order, so
    each joint cell and each feature marginal is an fsum over one slice of
    the sorted observations. Each partition marginal is an fsum over its
    own rows. The columns must already be contribution-bounded and clamped.
    """
    n_partitions = max(1, len(cols.partition_keys))
    cell = cols.features * n_partitions + cols.partitions
    order = np.argsort(cell)
    cell, values = cell[order], cols.observations[order].tolist()
    cells, sums, counts = _groups(cell, values)
    features, feature_sums, _ = _groups(cell // n_partitions, values)
    order = np.argsort(cols.partitions)
    partitions, partition_sums, _ = _groups(
        cols.partitions[order], cols.observations[order].tolist()
    )
    return Accumulator(cells, sums, counts, features, feature_sums, partitions, partition_sums,
                       cols.feature_keys, cols.partition_keys, len(cols))


def table_digest(acc: Accumulator) -> bytes:
    """blake2b of the exact joint table, which keys the release noise.

    Each cell adds, in cell order, its keys' byte lengths, its row count,
    its sum's bits and its keys, so any change to the table changes the
    digest.
    """
    fbytes = [key.encode("utf-8") for key in acc.feature_keys]
    pbytes = [key.encode("utf-8") for key in acc.partition_keys]
    features, partitions = acc.cell_codes()
    head = np.empty(len(acc.cells), _CELL_HEAD)
    head["feature_len"] = np.fromiter(map(len, fbytes), np.uint32, len(fbytes))[features]
    head["partition_len"] = np.fromiter(map(len, pbytes), np.uint32, len(pbytes))[partitions]
    head["rows"], head["sum"] = acc.cell_rows, acc.partial_joint
    raw, size = head.tobytes(), _CELL_HEAD.itemsize
    heads = map(raw.__getitem__,
                map(slice, range(0, len(raw), size), range(size, len(raw) + 1, size)))
    parts = zip(heads, map(fbytes.__getitem__, features.tolist()),
                map(pbytes.__getitem__, partitions.tolist()))
    return hashlib.blake2b(b"".join(chain.from_iterable(parts)), digest_size=16).digest()


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
    the table internally consistent, and the table's key lists hold the
    released marginal keys alone. When ``manifest`` is given, one dict per
    query is appended describing epsilon, threshold, and censoring counts.

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
        kept = [np.flatnonzero(exact > 0) for exact in exact_sums]
        releases = [Released(index, exact[index]) for index, exact in zip(kept, exact_sums)]
    else:
        shares = [w * privacy.epsilon for w in privacy.budget_split]
        if accountant is not None:
            for name, eps_q in zip(names, shares):
                accountant.charge(name, eps_q)
        sens = privacy.sensitivity
        thresholds = [censor_threshold(eps_q, privacy.delta, sens) for eps_q in shares]
        draws = acc.uniforms(privacy.seed, label_prefix)
        releases = [release_sums(exact, sens, eps_q, tau, uniforms)
                    for exact, eps_q, tau, uniforms in zip(exact_sums, shares, thresholds, draws)]
    if manifest is not None:
        for name, eps_q, tau, exact, released in zip(names, shares, thresholds, exact_sums,
                                                     releases):
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
    joint, feature_marginals, partition_marginals = releases
    feature_keys, feature_at = _released_keys(acc.feature_keys, acc.features, feature_marginals)
    partition_keys, partition_at = _released_keys(acc.partition_keys, acc.partitions,
                                                  partition_marginals)
    features, partitions = (codes[joint.index] for codes in acc.cell_codes())
    features, partitions = feature_at[features], partition_at[partitions]
    both = (features >= 0) & (partitions >= 0)
    return AggregateTable(features[both], partitions[both], joint.sums[both],
                          feature_keys, feature_marginals.sums,
                          partition_keys, partition_marginals.sums)


def _released_keys(
    keys: list[str], codes: np.ndarray, released: Released
) -> tuple[list[str], np.ndarray]:
    """The keys of a marginal's released codes, in code order, and each
    code's position among them: -1 for a code that was not released."""
    codes = codes[released.index]
    position = np.full(len(keys), -1, np.int64)
    position[codes] = np.arange(len(codes))
    return list(map(keys.__getitem__, codes.tolist())), position


def build_probability_tables(table: AggregateTable) -> ProbabilityTables:
    """Normalize released sums into the probability arrays of every joint pair.

    All three probability families share the released grand total as their
    denominator; AggregateTable guarantees it is positive and that every
    joint cell has both marginals. Each marginal is normalized once per key,
    capped at 1, and indexed by the pairs' codes. Pairs keep the joint
    table's order. Noise can leave p_xy above min(p_x, p_y); such pairs are
    repaired by pulling p_xy just below the smaller marginal. A pair whose
    sums are so far below the total that a probability underflows to 0 has
    no probability to rank and is dropped; the key lists keep its keys.
    """
    total = table.total
    features, partitions = table.features, table.partitions
    p_x = np.minimum(table.feature_marginals / total, 1.0)[features]
    p_y = np.minimum(table.partition_marginals / total, 1.0)[partitions]
    p_xy = table.joint / total
    cap = np.minimum(p_x, p_y)
    p_xy = np.where(p_xy > cap, cap * (1.0 - CONTAINMENT_MARGIN), p_xy)
    ranked = p_xy > 0  # p_xy <= min(p_x, p_y), so p_x and p_y are positive too
    if not ranked.all():
        features, partitions, p_x, p_y, p_xy = (
            column[ranked] for column in (features, partitions, p_x, p_y, p_xy))
    return ProbabilityTables(features, table.feature_keys, partitions, table.partition_keys,
                             p_x, p_y, p_xy)
