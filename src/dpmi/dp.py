"""Privacy mechanisms: per-user contribution bounding, clamping, seeded Laplace
noise, noisy-threshold censoring, and additive budget accounting.

Censoring only drops: a cell whose noisy sum falls below the threshold is
left out of the release, and no value is derived from the dropped cells, so
under censor_threshold's threshold a cell that exists only because of one
user is released with probability at most delta.

All randomness derives from a 64-bit seed through one keyed hash,
packed_u64s, over key parts packed as length-prefixed bytes: callers pack
each distinct key once and join the packed bytes per cell, and keyed_u64s
packs arbitrary keys for them. Release noise is keyed by (seed, table
digest, query label, cell key), so it never depends on the order the cells
are visited in, and a rerun on changed data has another digest and draws
fresh noise. Bounding works the same way on the input columns and touches
only the users over the contribution limit: each of their rows gets a
priority mixed from the (seed, "bound", id) hash and the row's place among
the user's canonical rows, so the survivors depend only on the seed and the
user's own rows, never on the input order. Every other row survives where
it stands.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

import numpy as np

from .model import Columns, PrivacyConfig

# Headroom so charges that exactly split the budget are not rejected by
# floating-point rounding.
_BUDGET_SLACK = 1e-9


class BudgetExceededError(RuntimeError):
    """A charge would push cumulative spend past the configured budget."""


# A packed part's 4-byte little-endian length prefix.
_LENGTH = struct.Struct("<I").pack


def pack_part(part) -> bytes:
    """One key part as the keyed hash reads it: its bytes (bytes, or else its
    str() in UTF-8) after their 4-byte little-endian length."""
    data = part if isinstance(part, bytes) else str(part).encode("utf-8")
    return _LENGTH(len(data)) + data


def pack_keys(keys: Iterable[str]) -> list[bytes]:
    """pack_part of each str key, in order."""
    return [_LENGTH(len(data)) + data for data in map(str.encode, keys)]


def packed_u64s(seed: int, prefix: tuple, messages: Iterable[bytes]) -> np.ndarray:
    """The 64-bit keyed hash of (seed, *prefix) and then each message, as a uint64 array.

    A message is the concatenation of its key's packed parts (pack_part), so
    callers pack each distinct key once and join the packed bytes per cell.
    (seed, *prefix) is hashed once; each message copies that state, adds its
    bytes and takes the digest, and the digests are read as one array.
    """
    base = hashlib.blake2b(seed.to_bytes(8, "little", signed=True), digest_size=8)
    base.update(b"".join(map(pack_part, prefix)))
    copy, digests = base.copy, []
    for message in messages:
        h = copy()
        h.update(message)
        digests.append(h.digest())
    return np.frombuffer(b"".join(digests), "<u8")


def packed_uniforms(seed: int, prefix: tuple, messages: Iterable[bytes]) -> np.ndarray:
    """Each packed message's uniform draw in (0, 1): the top 53 bits of its
    packed_u64s hash, centred in their interval."""
    x = packed_u64s(seed, prefix, messages)
    return ((x >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def _messages(keys: Iterable) -> Iterator[bytes]:
    """Each key, one part or a tuple of parts, as one packed message."""
    for key in keys:
        yield b"".join(map(pack_part, key)) if isinstance(key, tuple) else pack_part(key)


def keyed_u64s(seed: int, prefix: tuple, keys: Iterable) -> np.ndarray:
    """The 64-bit keyed hash of (seed, *prefix, *key) for each key, as a uint64 array.

    A key is one part or a tuple of parts; each part is hashed as pack_part
    packs it. This packs every key afresh; a caller that hashes many cells
    of few distinct keys packs the keys once and calls packed_u64s.
    """
    return packed_u64s(seed, prefix, _messages(keys))


def keyed_uniforms(seed: int, prefix: tuple, keys: Iterable) -> np.ndarray:
    """Each key's uniform draw in (0, 1), in the order of ``keys``; a draw
    depends only on (seed, *prefix, *key)."""
    return packed_uniforms(seed, prefix, _messages(keys))


def laplace_from_uniform(u: np.ndarray, scale: float) -> np.ndarray:
    """Inverse-CDF Laplace(0, scale) transform of each uniform in ``u``, all in (0, 1).

    The logarithm is ``math.log1p`` mapped over the values: ``np.log1p`` may
    differ from it in the last bit on some CPUs, which would move output bytes.
    """
    if scale <= 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    d = u - 0.5
    log = np.fromiter(map(math.log1p, (-2.0 * np.abs(d)).tolist()), np.float64, len(d))
    return np.copysign(-scale * log, d)


def censor_threshold(epsilon_q: float, delta: float, sensitivity: float) -> float:
    """Noisy-sum survival threshold.

    tau = sensitivity + (sensitivity / epsilon_q) * ln(1 / (2 delta)) keeps a
    dimension backed by a single user alive with probability at most delta
    under Laplace(sensitivity / epsilon_q) noise. delta lies in (0, 1/2], so
    tau is at least the sensitivity.
    """
    if not 0 < delta <= 0.5:
        raise ValueError(f"delta must lie in (0, 0.5], got {delta}")
    if epsilon_q <= 0:
        raise ValueError(f"epsilon_q must be > 0, got {epsilon_q}")
    if sensitivity <= 0:
        raise ValueError(f"sensitivity must be > 0, got {sensitivity}")
    return sensitivity + (sensitivity / epsilon_q) * math.log(1.0 / (2.0 * delta))


class BudgetAccountant:
    """Additive epsilon ledger for sequential composition across queries."""

    def __init__(self, total_epsilon: float):
        if not total_epsilon > 0:
            raise ValueError(f"total epsilon must be > 0, got {total_epsilon}")
        self.total_epsilon = float(total_epsilon)
        self.spent: list[tuple[str, float]] = []

    @property
    def spent_epsilon(self) -> float:
        return math.fsum(eps for _, eps in self.spent)

    def check(self, what: str, epsilon: float) -> None:
        """Raise BudgetExceededError unless spending ``epsilon`` more fits the budget."""
        if self.spent_epsilon + epsilon > self.total_epsilon + _BUDGET_SLACK:
            raise BudgetExceededError(
                f"{what} of {epsilon} exceeds budget: "
                f"already spent {self.spent_epsilon} of {self.total_epsilon}"
            )

    def charge(self, label: str, epsilon_q: float) -> None:
        """Record a charge; raises BudgetExceededError if it would overflow."""
        if not epsilon_q > 0:
            raise ValueError(f"charge {label!r} must be > 0, got {epsilon_q}")
        self.check(f"charge {label!r}", epsilon_q)
        self.spent.append((label, float(epsilon_q)))


# splitmix64 constants (Steele, Lea and Flood, "Fast splittable pseudorandom
# number generators", OOPSLA 2014).
_GOLDEN_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finaliser over a uint64 array, with wrapping arithmetic."""
    x = (x ^ (x >> np.uint64(30))) * _MIX1
    x = (x ^ (x >> np.uint64(27))) * _MIX2
    return x ^ (x >> np.uint64(31))


def _bounded_order(cols: Columns, limit: int, seed: int) -> np.ndarray | None:
    """Indices of the rows that survive bounding, in input order; None when
    no user is over the limit, so that every row survives."""
    user = cols.ids
    counts = np.bincount(user, minlength=len(cols.id_keys))
    is_over = counts > limit
    over = np.flatnonzero(is_over)
    if not len(over):
        return None
    # The rows of over-limit users in canonical order: by user, then by the
    # user's own rows. Codes follow string order, so the cell code orders
    # rows as their (feature, partition) keys, and the sign bit orders -0.0
    # after 0.0, so no tie depends on the input order.
    rows = np.flatnonzero(is_over[user])
    obs = cols.observations[rows]
    cell = cols.features[rows] * max(1, len(cols.partition_keys)) + cols.partitions[rows]
    rows = rows[np.lexsort((np.signbit(obs), obs, cell, user[rows]))]
    # j is a row's index among its user's canonical rows.
    sizes = counts[over]
    j = np.arange(len(rows)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    keys = packed_u64s(seed, ("bound",), pack_keys(map(cols.id_keys.__getitem__, over.tolist())))
    counter = (j.astype(np.uint64) + np.uint64(1)) * _GOLDEN_GAMMA
    priority = _splitmix64(np.repeat(keys, sizes) + counter)
    # Within each user, lowest priority first (ties keep canonical order), so
    # the first `limit` of every user's block are its survivors.
    ranked = np.lexsort((priority, user[rows]))
    keep = ~is_over[user]
    keep[rows[ranked[j < limit]]] = True
    return np.flatnonzero(keep)


def bound_contributions(cols: Columns, limit: int, seed: int) -> Columns:
    """Cap each user id at ``limit`` rows, chosen by a keyed per-row priority.

    Only the rows of users with more than ``limit`` rows are sorted: each
    such user's rows are put in canonical order (feature, partition,
    observation), row j gets the priority splitmix64(key + (j + 1) * gamma),
    where key hashes (seed, id), and the ``limit`` rows of lowest priority
    survive: a uniformly random subset that depends only on the seed and the
    user's own rows, never on their order or on other users. The survivors,
    every row of the other users among them, are an index take of the
    columns in input order; with no user over the limit, the columns are
    returned as they are. Every later stage sums with math.fsum and reads no
    row order, so outputs do not depend on the input order either.
    """
    if limit < 1:
        raise ValueError(f"contribution limit must be >= 1, got {limit}")
    order = _bounded_order(cols, limit, seed)
    return cols if order is None else cols.take(order)


def prepare_records(cols: Columns, privacy: PrivacyConfig | None) -> Columns:
    """Contribution-bound and clamp the columns; with privacy None, return them as they are.

    The result is new columns that share the bounded code arrays and carry a
    new clamped observation array, so no row is rebuilt and no array of
    ``cols`` is written.
    """
    if privacy is None:
        return cols
    bounded = bound_contributions(cols, privacy.contribution_limit, privacy.seed)
    lo, hi = privacy.clamp_lo, privacy.clamp_hi
    obs = bounded.observations
    # min(hi, max(lo, x)) on a column: unlike np.clip, a value equal to a
    # bound becomes that bound, so the sign of a zero is the bound's.
    return replace(bounded, observations=np.where(obs > lo, np.where(obs < hi, obs, hi), lo))


@dataclass(frozen=True, eq=False)
class Released:
    """The cells a release kept: ``index`` holds their positions in the exact
    table, ascending, and ``sums`` their released values."""

    index: np.ndarray
    sums: np.ndarray

    def __len__(self) -> int:
        return len(self.index)


def release_sums(
    exact: np.ndarray,
    sensitivity: float,
    epsilon_q: float,
    threshold: float,
    uniforms: np.ndarray,
) -> Released:
    """Release a table of sums under Laplace(sensitivity / epsilon_q) noise.

    The noise on cell i is the inverse-CDF transform of ``uniforms[i]``.
    Cells whose noisy sum falls below ``threshold`` are dropped and nothing
    is derived from their values, so under censor_threshold's threshold a
    cell backed by one user alone survives with probability at most delta.
    Survivors keep their noisy values. epsilon_q must already be charged to
    the budget accountant.
    """
    if epsilon_q <= 0:
        raise ValueError(f"epsilon_q must be > 0, got {epsilon_q}")
    if sensitivity <= 0:
        raise ValueError(f"sensitivity must be > 0, got {sensitivity}")
    if not threshold > 0:
        raise ValueError(f"censoring threshold must be > 0, got {threshold}")
    noisy = exact + laplace_from_uniform(uniforms, sensitivity / epsilon_q)
    index = np.flatnonzero(noisy >= threshold)
    return Released(index, noisy[index])
