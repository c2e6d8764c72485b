"""Domain types shared by the aggregation, privacy, ranking, and evaluation layers."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import compress, count
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

_SPLIT_TOL = 1e-12

# Aggregate files written by earlier versions could pool censored dimensions
# under this key; it stays reserved, so no input row may use it as a feature
# or partition and an input key can never be mistaken for such a pool.
OTHER_KEY = "__other__"
# The keys each key column reserves, in (id, feature, partition) order.
_RESERVED_KEYS = ((), (OTHER_KEY,), (OTHER_KEY,))


class Direction(str, Enum):
    """Whether a feature distinguishes a partition by being present or absent there."""

    PRESENCE = "Presence"
    ABSENCE = "Absence"

    @classmethod
    def of(cls, presence) -> Direction:
        """Presence for a true presence flag, Absence for a false one."""
        return cls.PRESENCE if presence else cls.ABSENCE


@dataclass(frozen=True, slots=True)
class Record:
    """One input row: a user's observation of a feature within a partition."""

    id: str
    feature: str
    partition: str
    observation: float


class KeyCoder:
    """Codes one key column as it arrives, block by block, then in string order.

    ``code`` gives each key the number of the row it first occurred in,
    counting rows over every block coded so far; a block is coded in one
    pass of dict lookups, and only the distinct keys are held. ``finish``
    sorts the keys that the given codes use, once, and remaps those codes to
    the keys' sorted positions with one take, so codes follow Python string
    order and sorting by code sorts by key. A dict holds the keys because
    numpy ``U`` arrays drop trailing NULs and would merge ``"u"`` with
    ``"u\\x00"``.
    """

    def __init__(self) -> None:
        self.index: dict[str, int] = {}  # key -> the row it first occurred in
        self.rows = 0

    def code(self, keys: Sequence[str]) -> np.ndarray:
        """The keys' first-occurrence codes, the keys taken as the next rows."""
        codes = np.fromiter(map(self.index.setdefault, keys, count(self.rows)), np.int64,
                            len(keys))
        self.rows += len(keys)
        return codes

    def finish(self, codes: np.ndarray) -> tuple[list[str], np.ndarray]:
        """The distinct keys that ``codes`` use, sorted, and each code's index among them."""
        firsts = np.fromiter(self.index.values(), np.int64, len(self.index))
        used = np.zeros(self.rows, bool)
        used[codes] = True
        keys = sorted(compress(self.index, used[firsts].tolist()))
        position = np.empty(self.rows, np.int64)
        position[np.fromiter(map(self.index.__getitem__, keys), np.int64, len(keys))] = (
            np.arange(len(keys)))
        return keys, position[codes]


def encode(keys: Sequence[str]) -> tuple[list[str], np.ndarray]:
    """The distinct keys in sorted order, and each key's index among them."""
    coder = KeyCoder()
    return coder.finish(coder.code(keys))


@dataclass(eq=False, slots=True)
class Columns:
    """Input rows as coded columns, the form every pipeline stage works on.

    Ids, features and partitions are each an int64 code array plus the
    sorted list of distinct keys it indexes: row i's feature is
    ``feature_keys[features[i]]``. Codes follow string order, so a stage can
    sort, group or relabel rows on the integer codes and still order them as
    their keys. A key list may hold keys that no row uses any more, after a
    take or a relabel. The observations are one float64 array.
    """

    ids: np.ndarray
    id_keys: list[str]
    features: np.ndarray
    feature_keys: list[str]
    partitions: np.ndarray
    partition_keys: list[str]
    observations: np.ndarray

    def __len__(self) -> int:
        return len(self.observations)

    @classmethod
    def from_records(cls, records: Columns | Iterable[Record]) -> Columns:
        """The columns of a Record list; a Columns passes through unchanged."""
        if isinstance(records, Columns):
            return records
        records = list(records)
        (id_keys, ids), (feature_keys, features), (partition_keys, partitions) = (
            encode(keys) for keys in ([r.id for r in records], [r.feature for r in records],
                                      [r.partition for r in records]))
        observations = np.fromiter((r.observation for r in records), np.float64, len(records))
        return cls(ids, id_keys, features, feature_keys, partitions, partition_keys, observations)

    def take(self, index: np.ndarray) -> Columns:
        """The rows at ``index``, in that order; the key lists are shared."""
        return Columns(
            self.ids[index], self.id_keys, self.features[index], self.feature_keys,
            self.partitions[index], self.partition_keys, self.observations[index],
        )


def validate_record(row: Sequence) -> tuple[str, str, str, float] | str:
    """Parse a raw (id, feature, partition, observation) row.

    Returns the (id, feature, partition, observation) fields on success,
    otherwise the reason for the first problem found: "fields", "empty_key",
    "reserved", "parse", "non_finite" or "negative". Keys are treated as
    opaque strings, except that a feature or partition may not be the
    reserved OTHER_KEY; the observation must parse as a finite number >= 0.
    """
    if len(row) != 4:
        return "fields"
    *raw_keys, raw_obs = row
    keys = tuple(map(str, raw_keys))
    if not all(keys):
        return "empty_key"
    if any(key in reserved for key, reserved in zip(keys, _RESERVED_KEYS)):
        return "reserved"
    try:
        obs = float(raw_obs)
    except OverflowError:  # a JSON integer beyond the float range
        return "non_finite"
    except (TypeError, ValueError):
        return "parse"
    if math.isnan(obs) or math.isinf(obs):
        return "non_finite"
    if obs < 0:
        return "negative"
    return (*keys, obs)


def valid_mask(coders: Sequence[KeyCoder], codes: Sequence[np.ndarray],
               observations: np.ndarray) -> np.ndarray:
    """Which rows validate_record accepts, checked a whole column at a time.

    ``codes`` are the (id, feature, partition) code columns as ``coders``
    coded them, and ``observations`` the parsed values, NaN where one does
    not parse. A row fails on an empty or reserved key, or an observation
    that is not a finite number >= 0; validate_record names its reason.
    """
    with np.errstate(invalid="ignore"):  # NaN fails both comparisons
        ok = (observations >= 0) & (observations < math.inf)
    for coder, column, reserved in zip(coders, codes, _RESERVED_KEYS):
        for key in ("", *reserved):
            if key in coder.index:
                ok &= column != coder.index[key]
    return ok


@dataclass(frozen=True)
class PrivacyConfig:
    """Knobs of a differentially private run; a stage given None runs without DP.

    budget_split gives the (joint, feature-marginal, partition-marginal)
    shares of epsilon; the three tables are released as separate queries, so
    each share must be positive.
    delta drives only the censoring threshold, never the noise itself; it
    lies in (0, 1/2], where the threshold is at least the sensitivity.
    seed, the secret key of the noise draws, has no default.
    """

    epsilon: float
    delta: float = 1e-6
    clamp_lo: float = 0.0
    clamp_hi: float = 1.0
    contribution_limit: int = 1
    budget_split: tuple[float, float, float] = (0.5, 0.25, 0.25)
    seed: int = field(kw_only=True)

    def __post_init__(self) -> None:
        object.__setattr__(self, "budget_split", tuple(self.budget_split))
        if not 0 < self.epsilon < math.inf:
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if not 0 < self.delta <= 0.5:
            raise ValueError(f"delta must lie in (0, 0.5], got {self.delta}")
        if not (math.isfinite(self.clamp_lo) and math.isfinite(self.clamp_hi)):
            raise ValueError(f"clamp bounds must be finite, got ({self.clamp_lo}, {self.clamp_hi})")
        if not self.clamp_lo < self.clamp_hi:
            raise ValueError(
                f"clamp bounds must satisfy lo < hi, got ({self.clamp_lo}, {self.clamp_hi})"
            )
        if self.contribution_limit < 1:
            raise ValueError(f"contribution_limit must be >= 1, got {self.contribution_limit}")
        split = self.budget_split
        if len(split) != 3 or not all(w > 0 for w in split):
            raise ValueError(f"budget_split needs three positive weights, got {split!r}")
        if abs(sum(split) - 1.0) > _SPLIT_TOL:
            raise ValueError(f"budget_split must sum to 1 within {_SPLIT_TOL}, got {sum(split)!r}")
        if not INT64_MIN <= self.seed <= INT64_MAX:
            raise ValueError("seed must fit in a signed 64-bit integer")
        try:
            finite = math.isfinite(self.sensitivity)
        except OverflowError:  # a limit past the float range
            finite = False
        if not finite:
            raise ValueError(
                f"sensitivity overflows: clamp ({self.clamp_lo}, {self.clamp_hi}) times "
                f"contribution_limit {self.contribution_limit} is not finite"
            )

    @property
    def sensitivity(self) -> float:
        """Worst-case change one user can induce in any released sum.

        Adding or removing a user adds or removes up to contribution_limit
        clamped values, each at most max(|clamp_lo|, |clamp_hi|) in size.
        """
        return max(abs(self.clamp_lo), abs(self.clamp_hi)) * self.contribution_limit


@dataclass(frozen=True, eq=False)
class AggregateTable:
    """Released (post-noise, post-censoring) sums at the three grouping levels, coded.

    The key lists are sorted and hold exactly the released marginal keys:
    ``feature_marginals[j]`` is the released sum of ``feature_keys[j]``, and
    likewise for partitions. Joint cell i is (feature_keys[features[i]],
    partition_keys[partitions[i]]) with released sum ``joint[i]``; cells are
    distinct and in (feature, partition) order, and every joint cell's
    feature and partition have a released marginal. Marginals are released
    separately from the joint sums, so a marginal is not in general the sum
    of its surviving joint cells.
    """

    features: np.ndarray
    partitions: np.ndarray
    joint: np.ndarray
    feature_keys: list[str]
    feature_marginals: np.ndarray
    partition_keys: list[str]
    partition_marginals: np.ndarray

    def __post_init__(self) -> None:
        for name in ("features", "partitions"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        for name in ("joint", "feature_marginals", "partition_marginals"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        fk, pk, features, partitions = (self.feature_keys, self.partition_keys,
                                        self.features, self.partitions)
        n = len(self.joint)
        if (len(features), len(partitions), len(self.feature_marginals),
                len(self.partition_marginals)) != (n, n, len(fk), len(pk)):
            raise ValueError("aggregate table columns differ in length")
        cells = features * max(1, len(pk)) + partitions
        if n and not (features.min() >= 0 and features.max() < len(fk) and partitions.min() >= 0
                      and partitions.max() < len(pk) and (np.diff(cells) > 0).all()):
            raise ValueError("joint cells must be distinct codes into the marginal keys, "
                             "in (feature, partition) order")
        for name, values, key_of in (
            ("joint", self.joint, lambda i: (fk[features[i]], pk[partitions[i]])),
            ("feature_marginals", self.feature_marginals, fk.__getitem__),
            ("partition_marginals", self.partition_marginals, pk.__getitem__),
        ):
            bad = np.flatnonzero(~(values > 0))
            if bad.size:
                i = bad[0]
                raise ValueError(f"{name}[{key_of(i)!r}] must be > 0, got {values[i].item()}")
        if not self.total > 0:
            raise ValueError("no partitions survived the release; total is not positive")

    @classmethod
    def of(
        cls,
        joint: Mapping[tuple[str, str], float],
        feature_marginals: Mapping[str, float],
        partition_marginals: Mapping[str, float],
    ) -> AggregateTable:
        """The table of sums given by key, in any key order."""
        fk, pk = sorted(feature_marginals), sorted(partition_marginals)
        findex, pindex = dict(zip(fk, count())), dict(zip(pk, count()))
        cells = sorted(joint)
        for feature, partition in cells:
            if feature not in findex:
                raise ValueError(f"joint feature {feature!r} missing from feature_marginals")
            if partition not in pindex:
                raise ValueError(f"joint partition {partition!r} missing from partition_marginals")
        return cls(
            [findex[f] for f, _ in cells], [pindex[p] for _, p in cells],
            list(map(joint.__getitem__, cells)),
            fk, list(map(feature_marginals.__getitem__, fk)),
            pk, list(map(partition_marginals.__getitem__, pk)),
        )

    @property
    def total(self) -> float:
        """The grand total, derived, not stored: the released partition marginals' fsum."""
        return math.fsum(self.partition_marginals.tolist())


@dataclass(frozen=True, eq=False)
class ProbabilityTables:
    """Normalized joint and marginal probabilities of (feature, partition) pairs.

    Pairs are coded as Columns rows are: pair i is (feature_keys[features[i]],
    partition_keys[partitions[i]]), with feature probability p_x[i],
    partition probability p_y[i] and joint probability p_xy[i]. The key
    lists are sorted and hold every key of the released marginal tables,
    which may hold keys that no pair does. Every probability lies in (0, 1].
    """

    features: np.ndarray
    feature_keys: list[str]
    partitions: np.ndarray
    partition_keys: list[str]
    p_x: np.ndarray
    p_y: np.ndarray
    p_xy: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.features)
        if len(self.partitions) != n:
            raise ValueError(f"{n} features but {len(self.partitions)} partitions")
        for name in ("features", "partitions"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.int64))
        for name in ("p_x", "p_y", "p_xy"):
            values = np.asarray(getattr(self, name), dtype=np.float64)
            if values.shape != (n,):
                raise ValueError(f"{name} has shape {values.shape}, expected ({n},)")
            bad = values[~((0.0 < values) & (values <= 1.0))]
            if bad.size:
                raise ValueError(f"{name} must lie in (0, 1], got {bad[0]}")
            object.__setattr__(self, name, values)

    def __len__(self) -> int:
        return len(self.features)


@dataclass(frozen=True, slots=True)
class RankedResult:
    """One scored (feature, partition) pair in the global descending-MI order."""

    partition: str
    feature: str
    mi: float
    direction: Direction
    rank: int


@dataclass(frozen=True, eq=False)
class Ranking(Sequence[RankedResult]):
    """Scored (feature, partition) pairs in the global descending-MI order, as columns.

    Row i pairs ``partitions[i]`` with ``features[i]`` (object arrays of
    key strings), scores it ``mi[i]`` (float64), is a Presence pair where
    ``presence[i]`` (bool) holds and an Absence pair elsewhere, and has rank
    ``ranks[i]``: i + 1, unless the Ranking is a slice of a longer one. A
    Ranking is a read-only sequence of RankedResult rows, built only when a
    caller iterates or indexes it; only a row holds a Direction. A slice is
    a Ranking whose rows keep their ranks. Equality with another Ranking or
    a list compares the rows.
    """

    partitions: np.ndarray
    features: np.ndarray
    mi: np.ndarray
    presence: np.ndarray
    ranks: range = None  # type: ignore[assignment]  # range(1, n + 1) when omitted

    def __post_init__(self) -> None:
        if self.ranks is None:
            object.__setattr__(self, "ranks", range(1, len(self.mi) + 1))
        sizes = {len(column) for column in (self.partitions, self.features, self.mi,
                                            self.presence, self.ranks)}
        if len(sizes) != 1:
            raise ValueError(f"ranking columns differ in length: {sorted(sizes)}")

    @classmethod
    def empty(cls) -> Ranking:
        keys = np.empty(0, dtype=object)
        return cls(keys, keys, np.empty(0, dtype=np.float64), np.empty(0, dtype=bool))

    def __len__(self) -> int:
        return len(self.ranks)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Ranking(self.partitions[index], self.features[index], self.mi[index],
                           self.presence[index], self.ranks[index])
        rank = self.ranks[index]  # raises IndexError past either end
        return RankedResult(self.partitions[index], self.features[index],
                            float(self.mi[index]), Direction.of(self.presence[index]), rank)

    def __iter__(self) -> Iterator[RankedResult]:
        # RankedResult's fields in order: partition, feature, mi, direction, rank
        return map(RankedResult, self.partitions.tolist(), self.features.tolist(),
                   self.mi.tolist(), map(Direction.of, self.presence.tolist()), self.ranks)

    def __eq__(self, other) -> bool:
        if isinstance(other, (Ranking, list)):
            return list(self) == list(other)
        return NotImplemented
