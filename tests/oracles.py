"""Independent reference implementations used to cross-check the library.

These deliberately avoid the library's code paths: MI is evaluated directly
on the 2x2 contingency table, and percentiles go through numpy's
inverted-CDF method. The sweep and stability oracles are the plain per-cell
loops: one full ``rank_records`` run for every (epsilon, trial) pair. The
bounding oracle is a per-user loop over Python integers, ``clamp`` is the
scalar reference for the column clamp in ``prepare_records``, and
``keyed_u64``/``keyed_uniform`` hash one key at a time from scratch, the
reference for ``dp.keyed_u64s`` and ``dp.keyed_uniforms``. ``calc_single_mi``,
``calc_mi`` and ``direction`` are the scalar references for the array
versions in ``dpmi.mi``, and ``binary_rank_oracle`` relabels Records by hand
before ``rank_records``. ``read_records_oracle`` is the per-line reader of
delimited input that ``cli.read_records`` replaced: each line is split and
validated on its own, and each key column is encoded at the end by sorting
its distinct keys (``encode_oracle``). ``rank_oracle`` is the per-pair ranking that
``mi.rank`` replaced: it scores the pairs on arrays as ``rank`` does, then
builds one ``RankedResult`` per pair, in rank order. ``ListAccumulator`` is
the reference group-by for ``aggregate.accumulate``: one list of values per
joint cell, and each marginal the fsum over its cells' lists. ``records_of``
turns columns back into Records so tests can compare stage outputs row by
row.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from itertools import chain
from statistics import fmean

import numpy as np

from dpmi.evaluation import (
    PERCENTILES,
    StabilityRow,
    SweepRow,
    compare_rankings,
    nearest_rank_percentile,
)
from dpmi import mi
from dpmi.mi import REST_LABEL, TOL, rank_records
from dpmi.model import Columns, Direction, RankedResult, Record, validate_record

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


def records_of(cols) -> list[Record]:
    """The rows of a ``Columns`` table as Records, in order, with every code decoded."""
    return [
        Record(cols.id_keys[i], cols.feature_keys[f], cols.partition_keys[p], obs)
        for i, f, p, obs in zip(cols.ids.tolist(), cols.features.tolist(),
                                cols.partitions.tolist(), cols.observations.tolist())
    ]


def encode_oracle(keys):
    """The distinct keys in sorted order, and each key's index among them."""
    index = dict.fromkeys(keys)
    distinct = sorted(index)
    index.update(zip(distinct, range(len(distinct))))
    return distinct, np.fromiter(map(index.__getitem__, keys), np.int64, len(keys))


def read_records_oracle(path, columns):
    """``cli.read_records`` on delimited input, one line at a time.

    The header is the first non-blank line. Each later non-empty line is
    split on the delimiter; a line too short for the mapped columns is a
    "fields" reject, and any other goes through validate_record. Returns
    (the valid rows as Columns, rejection counts by reason, rows read).
    """
    rows, rejects, rows_read = [], Counter(), 0
    with open(path, "r", encoding="utf-8-sig") as fh:
        header_line = next(line for line in fh if line.strip()).rstrip("\r\n")
        delim = "\t" if "\t" in header_line else ","
        header = header_line.split(delim)
        indices = [header.index(name) for name in columns]
        for line in fh:
            line = line.rstrip("\r\n")
            if not line:
                continue
            rows_read += 1
            fields = line.split(delim)
            if max(indices) < len(fields):
                parsed = validate_record([fields[i] for i in indices])
            else:
                parsed = "fields"
            if isinstance(parsed, str):
                rejects[parsed] += 1
            else:
                rows.append(parsed)
    (id_keys, ids), (feature_keys, features), (partition_keys, partitions) = (
        encode_oracle([row[k] for row in rows]) for k in range(3))
    observations = np.array([row[3] for row in rows], np.float64)
    cols = Columns(ids, id_keys, features, feature_keys, partitions, partition_keys, observations)
    return cols, rejects, rows_read


@dataclass
class ListAccumulator:
    """Observations grouped by (feature, partition) cell, as value lists.

    Each joint cell holds its rows' observations in row order. A feature's
    or a partition's marginal sum is the fsum over the union of its cells'
    lists, the same multiset as its own rows.
    """

    partial_joint: dict[tuple[str, str], list[float]] = field(default_factory=dict)
    row_count: int = 0

    @classmethod
    def of(cls, records) -> ListAccumulator:
        acc = cls(row_count=len(records))
        for r in records:
            acc.partial_joint.setdefault((r.feature, r.partition), []).append(r.observation)
        return acc

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


def binary_rank_oracle(records, partition, privacy):
    """One-vs-all ranking by rebuilding every Record outside ``partition``
    into the rest bucket, then the full ``rank_records`` pipeline."""
    relabeled = [
        r if r.partition == partition else Record(r.id, r.feature, REST_LABEL, r.observation)
        for r in records
    ]
    return rank_records(relabeled, privacy)


def rank_oracle(tables) -> list[RankedResult]:
    """Every pair of ``tables`` as a RankedResult, ordered by MI descending and
    then by (partition, feature); empty when ``mi.rank`` warns and ranks none."""
    if not len(tables) or len(tables.partition_keys) < 2 or (tables.p_y == 1.0).any():
        return []
    p_x, p_y, p_xy = tables.p_x, tables.p_y, tables.p_xy
    scores = mi.calc_mi(p_x, p_y, p_xy)
    scores = np.where(scores > 0.0, scores, 0.0)
    order = np.lexsort((tables.features, tables.partitions, -scores))
    columns = (
        list(map(tables.partition_keys.__getitem__, tables.partitions[order].tolist())),
        list(map(tables.feature_keys.__getitem__, tables.features[order].tolist())),
        scores[order].tolist(),
        mi.direction(p_x, p_y, p_xy)[order].tolist(),
        range(1, len(order) + 1),
    )
    # RankedResult's fields in order: partition, feature, mi, direction, rank
    return list(map(RankedResult, *columns))


def clamp(observation: float, lo: float, hi: float) -> float:
    """min(hi, max(lo, observation)): a value equal to a bound becomes that bound."""
    return min(hi, max(lo, observation))


def keyed_u64(seed: int, parts: tuple) -> int:
    h = hashlib.blake2b(digest_size=8)
    h.update(seed.to_bytes(8, "little", signed=True))
    for part in parts:
        data = part if isinstance(part, bytes) else str(part).encode("utf-8")
        h.update(len(data).to_bytes(4, "little"))
        h.update(data)
    return int.from_bytes(h.digest(), "little")


def keyed_uniform(seed: int, *parts) -> float:
    """Uniform draw in (0, 1) that depends only on (seed, *parts)."""
    return ((keyed_u64(seed, parts) >> 11) + 0.5) * 2.0**-53


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


def epsilon_sweep_oracle(records, privacy, epsilons=(), trials=5, top_k=10000):
    """Sweep rows from one private ``rank_records`` run per (epsilon, trial)."""
    baseline = rank_records(records, None)
    rows = []
    for eps in epsilons:
        cells = []
        for trial in range(trials):
            if math.isinf(eps):
                private = baseline
            else:
                cfg = replace(privacy, epsilon=eps, seed=privacy.seed + trial)
                private = rank_records(records, cfg)
            cells.append(compare_rankings(baseline, private, top_k))
        rows.append(
            SweepRow(
                epsilon=eps,
                percentiles={p: fmean(c.percentiles[p] for c in cells) for p in PERCENTILES},
                dropped=fmean(c.dropped for c in cells),
            )
        )
    return rows


def head_tail_stability_oracle(records, privacy, epsilon=1.0, trials=5, top_k=100, buckets=10):
    """Stability rows from one private ``rank_records`` run per trial."""
    baseline = rank_records(records, None)
    head = baseline[:top_k]
    edges = [round(j * len(head) / buckets) for j in range(buckets + 1)]
    per_bucket = [[] for _ in range(buckets)]
    for trial in range(trials):
        cfg = replace(privacy, epsilon=epsilon, seed=privacy.seed + trial)
        private = rank_records(records, cfg)
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
            key = keyed_u64(seed, ("bound", uid))
            priority = [
                _splitmix64((key + (j + 1) * 0x9E3779B97F4A7C15) & _U64)
                for j in range(len(rows))
            ]
            chosen = sorted(range(len(rows)), key=lambda j: (priority[j], j))[:limit]
            rows = [rows[j] for j in sorted(chosen)]
        survivors.extend(rows)
    survivors.sort(key=lambda r: (r.id, *_row_key(r)))
    return survivors
