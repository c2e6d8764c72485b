"""Group-by and release stages, on coded arrays from the rows to the probability tables.

The group-by sorts the rows once by their (feature, partition) cell code,
so each joint cell's rows, and each feature's, form one slice of the
sorted observations. Every sum is the exactly rounded sum of its rows, the
bits math.fsum gives, so it depends only on the multiset of values and is
bit-identical for any order of the input rows and any sort kind. Two
reducers give it: numpy sums when the observations lie on a binary grid
fine enough that every partial sum is exact (_on_grid), and otherwise one
math.fsum per slice, with a second sort for the partition marginals.

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
    holds each cell's exactly rounded sum (the bits math.fsum gives, from
    either reducer) and ``cell_rows`` its row count. ``features`` and
    ``partitions`` hold each code that has rows, ascending, with their
    exactly rounded sums in ``feature_totals`` and ``partition_totals``.
    Codes index the columns' sorted key lists, which may hold keys that no
    row uses. No array changes once ``uniforms`` has drawn.
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


# math.fsum of rows that are all -0.0: +0.0 on some CPython versions and
# -0.0 on others; the grid reducer gives such a group this running value.
_NEGATIVE_ZERO_SUM = math.fsum([-0.0])


def _on_grid(values: np.ndarray) -> bool:
    """Whether every partial sum of ``values``, in any order, is exact in float64.

    Let 2**e_min be the lowest set bit of any nonzero value and every
    |value| be below 2**e_max. Every partial sum is then a multiple of
    2**e_min below n * 2**(e_max - e_min) units, so it is exact when
    e_max - e_min + n.bit_length() <= 53 and below the float range when
    e_max + n.bit_length() <= 1024. The check reads the frexp mantissas as
    53-bit integers and adds no floats. A non-finite value fails it.
    """
    if not np.isfinite(values).all():
        return False
    mantissas, exponents = np.frexp(values[values != 0])
    if not len(mantissas):
        return True
    units = np.ldexp(mantissas, 53).astype(np.int64)
    # the lowest set bit of each value is 2**(exponent - 53 + trailing zeros)
    trailing = np.frexp((units & -units).astype(np.float64))[1] - 1
    e_min, e_max = int((exponents + trailing).min()) - 53, int(exponents.max())
    width = len(values).bit_length()
    return e_max - e_min + width <= 53 and e_max + width <= 1024


def _groups(codes: np.ndarray, values: list[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each run of equal sorted ``codes``: the code, its ``values``' fsum and the run length."""
    if not len(codes):
        return codes, np.empty(0), codes
    bounds = [0, *(np.flatnonzero(np.diff(codes)) + 1).tolist(), len(codes)]
    sums = map(math.fsum, map(values.__getitem__, map(slice, bounds, bounds[1:])))
    return codes[bounds[:-1]], np.fromiter(sums, np.float64, len(bounds) - 1), np.diff(bounds)


def _fsum_reducer(cell: np.ndarray, observations: np.ndarray, cols: Columns,
                  n_partitions: int) -> tuple[np.ndarray, ...]:
    """The group-by's seven arrays as fsums over slices, for any observations.

    ``cell`` and ``observations`` are sorted by cell code; the partition
    marginals come from a second sort of the columns by partition.
    """
    values = observations.tolist()
    cells, sums, counts = _groups(cell, values)
    features, feature_sums, _ = _groups(cell // n_partitions, values)
    order = np.argsort(cols.partitions)
    partitions, partition_sums, _ = _groups(
        cols.partitions[order], cols.observations[order].tolist()
    )
    return cells, sums, counts, features, feature_sums, partitions, partition_sums


def _grid_reducer(cell: np.ndarray, observations: np.ndarray, cols: Columns,
                  n_partitions: int) -> tuple[np.ndarray, ...]:
    """The group-by's seven arrays from numpy sums, for observations _on_grid.

    Cell sums are one np.add.reduceat over the sorted rows and row counts
    the run lengths; each marginal is an np.bincount over its cells' sums.
    Every sum is exact, and a group of rows that are all -0.0 takes fsum's
    value for them.
    """
    starts = np.flatnonzero(np.diff(cell, prepend=-1))
    cells = cell[starts]
    sums = np.add.reduceat(observations, starts)
    counts = np.diff(starts, append=len(cell))
    # the sign of a zero sum depends on numpy's summation, so the cells whose
    # rows are all -0.0 are read from the rows; such a cell's sum is zero
    negative_zero = np.zeros(len(cells), bool)
    if not sums.all():
        negative_zero = np.logical_and.reduceat(
            (observations == 0) & np.signbit(observations), starts)
    features, feature_sums = _totals(cells // n_partitions, sums, negative_zero)
    partitions, partition_sums = _totals(cells % n_partitions, sums, negative_zero)
    sums[negative_zero] = _NEGATIVE_ZERO_SUM
    return cells, sums, counts, features, feature_sums, partitions, partition_sums


def _totals(codes: np.ndarray, sums: np.ndarray,
            negative_zero: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each code that has cells, ascending, and the sum of its cells' ``sums``;
    a code whose cells are all ``negative_zero`` takes fsum's value for -0.0."""
    cells_per_code = np.bincount(codes)
    present = np.flatnonzero(cells_per_code)
    totals = np.bincount(codes, weights=sums)[present]
    if negative_zero.any():
        all_negative = np.bincount(codes, weights=negative_zero) == cells_per_code
        totals[all_negative[present]] = _NEGATIVE_ZERO_SUM
    return present, totals


def accumulate(cols: Columns) -> Accumulator:
    """Group the rows of the columns by one sort of their cell codes.

    The cell code feature * P + partition orders cells as their (feature,
    partition) keys, and a feature's cells are contiguous in that order, so
    each joint cell and each feature marginal is a sum over one slice of
    the sorted observations. When the observations are _on_grid the sums
    are numpy's, which are exact; otherwise each is an fsum, and each
    partition marginal an fsum over its own rows. Both give the same bits.
    The columns must already be contribution-bounded and clamped.
    """
    n_partitions = max(1, len(cols.partition_keys))
    cell = cols.features * n_partitions + cols.partitions
    order = np.argsort(cell)
    # an empty table takes the fsum path, whose empty sums are float64
    grid = len(cols) and _on_grid(cols.observations)
    reducer = _grid_reducer if grid else _fsum_reducer
    return Accumulator(*reducer(cell[order], cols.observations[order], cols, n_partitions),
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
