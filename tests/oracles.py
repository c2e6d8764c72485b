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
before ``rank_records``. ``read_records_oracle`` is the per-line reader
that ``cli.read_records`` replaced: each delimited line is split, or each
JSON line loaded and type-checked, and validated on its own, and each key
column is encoded at the end by sorting its distinct keys
(``encode_oracle``). ``rank_oracle`` is the per-pair ranking that
``mi.rank`` replaced: it scores the pairs on arrays as ``rank`` does, then
builds one ``RankedResult`` per pair, in rank order. ``ListAccumulator`` is
the reference group-by for ``aggregate.accumulate``: one list of values per
joint cell, and each marginal the fsum over its cells' lists.
``release_oracle`` is the release that ``aggregate.release_aggregate_table``
replaced, one dict per query keyed by key strings: ``table_digest_oracle``
packs each cell with ``struct``, each key draws ``keyed_uniform`` on its
own, and ``release_sums_oracle`` loops over the sorted keys, adding
``laplace_oracle``, the scalar inverse-CDF transform, to each sum.
``records_of`` turns columns back into Records, and
``accumulator_mappings``/``table_mappings`` turn an ``Accumulator`` or an
``AggregateTable`` into dicts, so tests can compare stage outputs key by
key.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import partial
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
from dpmi.dp import censor_threshold
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


def _jsonl_row_oracle(line, columns):
    """One JSON line's validate_record result, after JSON's typed checks.

    A line that does not load is "parse", and one that is not an object
    holding every mapped field is "fields". A null key is "empty_key", and
    a boolean, array or object key, or a boolean observation, is "parse".
    """
    try:
        obj = json.loads(line)
    except ValueError:
        return "parse"
    try:
        row = [obj[name] for name in columns]
    except (KeyError, TypeError):
        return "fields"
    if any(value is None for value in row[:3]):
        return "empty_key"
    if any(isinstance(value, (bool, list, dict)) for value in row[:3]) or isinstance(row[3], bool):
        return "parse"
    return validate_record(row)


def _delimited_row_oracle(line, delim, indices):
    """One delimited line's validate_record result; a line too short is "fields"."""
    fields = line.split(delim)
    return validate_record([fields[i] for i in indices]) if max(indices) < len(fields) else "fields"


def read_records_oracle(path, columns):
    """``cli.read_records``, one line at a time.

    A file whose first non-blank line starts with ``{`` is JSON lines, and
    each of its non-empty lines goes through ``_jsonl_row_oracle``. Any other
    file is delimited: its header is the first non-blank line, and each later
    non-empty line goes through ``_delimited_row_oracle``. Returns (the valid
    rows as Columns, rejection counts by reason, rows read).
    """
    rows, rejects, rows_read = [], Counter(), 0
    with open(path, "r", encoding="utf-8-sig") as fh:
        first = next(line for line in fh if line.strip()).rstrip("\r\n")
        if first.startswith("{"):
            fh.seek(0)
            parse = partial(_jsonl_row_oracle, columns=columns)
        else:
            delim = "\t" if "\t" in first else ","
            header = first.split(delim)
            parse = partial(_delimited_row_oracle, delim=delim,
                            indices=[header.index(name) for name in columns])
        for line in fh:
            line = line.rstrip("\r\n")
            if not line:
                continue
            rows_read += 1
            parsed = parse(line)
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

    def cell_rows(self) -> dict[tuple[str, str], int]:
        return {key: len(vals) for key, vals in sorted(self.partial_joint.items())}

    def sums(self) -> tuple[dict, dict, dict, dict]:
        """The joint sums, joint row counts, feature sums and partition sums."""
        return self.joint_sums(), self.cell_rows(), self.feature_sums(), self.partition_sums()

    def feature_sums(self) -> dict[str, float]:
        return self._marginal_sums(0)

    def partition_sums(self) -> dict[str, float]:
        return self._marginal_sums(1)

    def _marginal_sums(self, axis: int) -> dict[str, float]:
        cells: dict[str, list[list[float]]] = {}
        for key, vals in self.partial_joint.items():
            cells.setdefault(key[axis], []).append(vals)
        return {key: math.fsum(chain.from_iterable(lists)) for key, lists in sorted(cells.items())}


def laplace_oracle(u: float, scale: float) -> float:
    """Inverse-CDF Laplace(0, scale) transform of one uniform u in (0, 1)."""
    d = u - 0.5
    magnitude = -scale * math.log1p(-2.0 * abs(d))
    return math.copysign(magnitude, d)


def table_digest_oracle(joint_sums: dict, cell_rows: dict) -> bytes:
    """blake2b over each joint cell in key order: its keys' byte lengths,
    row count and sum packed as ``<IIqd``, then its keys."""
    pack = struct.Struct("<IIqd").pack
    parts: list[bytes] = []
    for (feature, partition), total in sorted(joint_sums.items()):
        f, p = feature.encode("utf-8"), partition.encode("utf-8")
        parts += (pack(len(f), len(p), cell_rows[feature, partition], total), f, p)
    return hashlib.blake2b(b"".join(parts), digest_size=16).digest()


def release_sums_oracle(exact: dict, sensitivity, epsilon_q, threshold, uniforms: dict) -> dict:
    """Each key of ``exact``, in sorted order, whose sum plus its Laplace
    noise reaches ``threshold``, mapped to that noisy sum."""
    scale = sensitivity / epsilon_q
    released = {}
    for key in sorted(exact):
        noisy = exact[key] + laplace_oracle(uniforms[key], scale)
        if noisy >= threshold:
            released[key] = noisy
    return released


def release_oracle(joint_sums, cell_rows, feature_sums, partition_sums, privacy,
                   label_prefix: str = ""):
    """The (joint, feature, partition) dicts ``release_aggregate_table``
    releases from these exact sums, and the set of joint cells the joint
    query released but the table dropped.

    With privacy None each query keeps its positive exact sums. Otherwise
    each query's keys draw ``keyed_uniform(seed, digest, label, *key)``, and
    each query releases at its budget share and censoring threshold. Joint
    cells without both released marginals are then dropped.
    """
    exact = (joint_sums, feature_sums, partition_sums)
    if privacy is None:
        tables = [{key: value for key, value in sums.items() if value > 0} for sums in exact]
    else:
        digest = table_digest_oracle(joint_sums, cell_rows)
        sens = privacy.sensitivity
        tables = []
        for query, weight, sums in zip(("joint", "feature_marginal", "partition_marginal"),
                                       privacy.budget_split, exact):
            eps_q = weight * privacy.epsilon
            uniforms = {
                key: keyed_uniform(privacy.seed, digest, label_prefix + query,
                                   *(key if isinstance(key, tuple) else (key,)))
                for key in sums
            }
            tau = censor_threshold(eps_q, privacy.delta, sens)
            tables.append(release_sums_oracle(sums, sens, eps_q, tau, uniforms))
    released, features, partitions = tables
    joint = {(f, p): v for (f, p), v in released.items() if f in features and p in partitions}
    return joint, features, partitions, set(released) - set(joint)


def accumulator_mappings(acc):
    """An ``Accumulator``'s joint sums, feature sums, partition sums and joint
    row counts, as dicts by key in key order."""
    fk, pk = acc.feature_keys, acc.partition_keys
    features, partitions = (codes.tolist() for codes in acc.cell_codes())
    cells = list(zip(map(fk.__getitem__, features), map(pk.__getitem__, partitions)))
    return (dict(zip(cells, acc.partial_joint.tolist())),
            dict(zip(map(fk.__getitem__, acc.features.tolist()), acc.feature_totals.tolist())),
            dict(zip(map(pk.__getitem__, acc.partitions.tolist()), acc.partition_totals.tolist())),
            dict(zip(cells, acc.cell_rows.tolist())))


def table_mappings(table):
    """An ``AggregateTable``'s (joint, feature, partition) sums as dicts by key."""
    fk, pk = table.feature_keys, table.partition_keys
    cells = zip(map(fk.__getitem__, table.features.tolist()),
                map(pk.__getitem__, table.partitions.tolist()))
    return (dict(zip(cells, table.joint.tolist())),
            dict(zip(fk, table.feature_marginals.tolist())),
            dict(zip(pk, table.partition_marginals.tolist())))


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
        list(map(Direction.of, mi.direction(p_x, p_y, p_xy)[order].tolist())),
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
    """Bounding survivors, one user at a time, in input order.

    A user's rows are sorted by ``_row_key``, rows with equal keys in input
    order. A user with more than ``limit`` rows keeps the ``limit`` rows of
    lowest priority, where row j's priority is
    splitmix64(key + (j + 1) * 0x9E3779B97F4A7C15) with key the keyed hash
    of (seed, "bound", id); equal priorities keep the lower j. Every row of
    the other users survives.
    """
    by_user = {}
    for i, r in enumerate(records):
        by_user.setdefault(r.id, []).append(i)
    kept = []
    for uid, rows in by_user.items():
        if len(rows) > limit:
            rows = sorted(rows, key=lambda i: _row_key(records[i]))
            key = keyed_u64(seed, ("bound", uid))
            priority = [
                _splitmix64((key + (j + 1) * 0x9E3779B97F4A7C15) & _U64)
                for j in range(len(rows))
            ]
            chosen = sorted(range(len(rows)), key=lambda j: (priority[j], j))[:limit]
            rows = [rows[j] for j in chosen]
        kept.extend(rows)
    return [records[i] for i in sorted(kept)]
