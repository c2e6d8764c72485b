"""Privacy mechanisms: per-user contribution bounding, clamping, seeded Laplace
noise, noisy-threshold censoring, and additive budget accounting.

Censoring only drops: a cell whose noisy sum falls below the threshold is
left out of the release, and no value is derived from the dropped cells, so
under censor_threshold's threshold a cell that exists only because of one
user is released with probability at most delta.

All randomness derives from a 64-bit seed through a counter-based keyed hash,
so the noise on a released sum depends only on (seed, query label, cell key)
and never on the order the cells are visited in. Bounding works the same way
on numpy columns: each row of a user over the contribution limit gets a
priority mixed from a (seed, id) key and the row's place among the user's
rows in canonical order, so the survivors depend only on the seed and the
user's own rows, never on the order of the input.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .model import PrivacyConfig, Record

# Headroom so charges that exactly split the budget are not rejected by
# floating-point rounding.
_BUDGET_SLACK = 1e-9


class BudgetExceededError(RuntimeError):
    """A charge would push cumulative spend past the configured budget."""


def _keyed_u64(seed: int, parts: tuple) -> int:
    h = hashlib.blake2b(digest_size=8)
    h.update(seed.to_bytes(8, "little", signed=True))
    for part in parts:
        data = part if isinstance(part, bytes) else str(part).encode("utf-8")
        h.update(len(data).to_bytes(4, "little"))
        h.update(data)
    return int.from_bytes(h.digest(), "little")


def keyed_uniform(seed: int, *parts) -> float:
    """Uniform draw in (0, 1) that depends only on (seed, *parts)."""
    return ((_keyed_u64(seed, parts) >> 11) + 0.5) * 2.0**-53


class CellRng:
    """Cell-keyed uniform draws for one (seed, query label).

    for_key(*parts) is keyed_uniform(seed, label, *parts), memoised per
    instance: the draw depends only on the key, so releasing the same cells
    again from one instance (at another epsilon, say) hashes each cell once.
    """

    def __init__(self, seed: int, label: str = ""):
        self.seed = seed
        self.label = label
        self._draws: dict[tuple, float] = {}

    def for_key(self, *parts) -> float:
        u = self._draws.get(parts)
        if u is None:
            u = self._draws[parts] = keyed_uniform(self.seed, self.label, *parts)
        return u


def laplace_from_uniform(u: float, scale: float) -> float:
    """Inverse-CDF Laplace(0, scale) transform of a uniform u in (0, 1)."""
    if scale <= 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    d = u - 0.5
    magnitude = -scale * math.log1p(-2.0 * abs(d))
    return math.copysign(magnitude, d)


def censor_threshold(epsilon_q: float, delta: float, sensitivity: float) -> float:
    """Noisy-sum survival threshold.

    tau = sensitivity + (sensitivity / epsilon_q) * ln(1 / (2 delta)) keeps a
    dimension backed by a single user alive with probability at most delta
    under Laplace(sensitivity / epsilon_q) noise.
    """
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    if epsilon_q <= 0:
        raise ValueError(f"epsilon_q must be > 0, got {epsilon_q}")
    if sensitivity <= 0:
        raise ValueError(f"sensitivity must be > 0, got {sensitivity}")
    return sensitivity + (sensitivity / epsilon_q) * math.log(1.0 / (2.0 * delta))


@dataclass(frozen=True)
class CensoringPolicy:
    """The noisy-sum threshold below which a released cell is dropped."""

    threshold: float

    def __post_init__(self) -> None:
        if not self.threshold > 0:
            raise ValueError(f"censoring threshold must be > 0, got {self.threshold}")


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

    @property
    def remaining(self) -> float:
        return self.total_epsilon - self.spent_epsilon

    def charge(self, label: str, epsilon_q: float) -> None:
        """Record a charge; raises BudgetExceededError if it would overflow."""
        if not epsilon_q > 0:
            raise ValueError(f"charge {label!r} must be > 0, got {epsilon_q}")
        if self.spent_epsilon + epsilon_q > self.total_epsilon + _BUDGET_SLACK:
            raise BudgetExceededError(
                f"charge {label!r} of {epsilon_q} exceeds budget: "
                f"already spent {self.spent_epsilon} of {self.total_epsilon}"
            )
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


def _encode(keys: list[str]) -> tuple[list[str], np.ndarray]:
    """The distinct keys in sorted order, and each key's index among them.

    Codes follow Python string order. A dict does the encoding because numpy
    ``U`` arrays drop trailing NULs and would merge ``"u"`` with ``"u\\x00"``.
    """
    distinct = sorted(set(keys))
    index = {key: i for i, key in enumerate(distinct)}
    return distinct, np.fromiter(map(index.__getitem__, keys), np.int64, len(keys))


def _bounded_order(records: list[Record], limit: int, seed: int) -> np.ndarray:
    """Indices of the records that survive bounding, in output order."""
    ids, user = _encode([r.id for r in records])
    _, feature = _encode([r.feature for r in records])
    _, partition = _encode([r.partition for r in records])
    obs = np.fromiter((r.observation for r in records), np.float64, len(records))
    # Canonical order: by user, then by the user's own rows; the sign bit
    # orders -0.0 after 0.0, so no tie depends on the input order.
    order = np.lexsort((np.signbit(obs), obs, partition, feature, user))
    counts = np.bincount(user, minlength=len(ids))
    is_over = counts > limit
    over = np.flatnonzero(is_over)
    if not len(over):
        return order
    # Positions (in canonical order) of the rows of over-limit users, grouped
    # by user; j is a row's index among its user's canonical rows.
    rows = np.flatnonzero(is_over[user[order]])
    sizes = counts[over]
    j = np.arange(len(rows)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    keys = np.array([_keyed_u64(seed, ("bound", ids[u])) for u in over.tolist()], np.uint64)
    counter = (j.astype(np.uint64) + np.uint64(1)) * _GOLDEN_GAMMA
    priority = _splitmix64(np.repeat(keys, sizes) + counter)
    # Within each user, lowest priority first (ties keep canonical order), so
    # the first `limit` of every user's block are its survivors.
    ranked = np.lexsort((priority, np.repeat(np.arange(len(over)), sizes)))
    keep = np.ones(len(order), dtype=bool)
    keep[rows] = False
    keep[rows[ranked[j < limit]]] = True
    return order[keep]


def bound_contributions(records: Iterable[Record], limit: int, seed: int) -> list[Record]:
    """Cap each user id at ``limit`` records, chosen by a keyed per-row priority.

    A user's rows are put in canonical order (feature, partition,
    observation). Row j of a user with more than ``limit`` rows gets the
    priority splitmix64(key + (j + 1) * gamma), where key hashes (seed, id),
    and the ``limit`` rows of lowest priority survive: a uniformly random
    subset that depends only on the seed and the user's own rows, never on
    their order or on other users. Output is sorted by
    (id, feature, partition, observation) so downstream stages see a
    reproducible order.
    """
    if limit < 1:
        raise ValueError(f"contribution limit must be >= 1, got {limit}")
    records = list(records)
    return [records[i] for i in _bounded_order(records, limit, seed).tolist()]


def prepare_records(records: Iterable[Record], privacy: PrivacyConfig) -> list[Record]:
    """Contribution-bound and clamp records when privacy is enabled; no-op otherwise."""
    if not privacy.dp_enabled:
        return list(records)
    bounded = bound_contributions(records, privacy.contribution_limit, privacy.seed)
    lo, hi = privacy.clamp_lo, privacy.clamp_hi
    obs = np.fromiter((r.observation for r in bounded), np.float64, len(bounded))
    # min(hi, max(lo, x)) on a column: unlike np.clip, a value equal to a
    # bound becomes that bound, so the sign of a zero is the bound's. A record
    # whose value the clamp leaves as it is (sign included) is kept as it is.
    clamped = np.where(obs > lo, np.where(obs < hi, obs, hi), lo)
    same = (clamped == obs) & (np.signbit(clamped) == np.signbit(obs))
    return [
        r if keep else Record(r.id, r.feature, r.partition, o)
        for r, keep, o in zip(bounded, same.tolist(), clamped.tolist())
    ]


def release_sums(
    exact: Mapping,
    sensitivity: float,
    epsilon_q: float,
    policy: CensoringPolicy,
    rng: CellRng,
) -> dict:
    """Release a table of sums under Laplace(sensitivity / epsilon_q) noise.

    Keys whose noisy sum falls below policy.threshold are dropped and nothing
    is derived from their values, so under censor_threshold's threshold a
    cell backed by one user alone survives with probability at most delta.
    Survivors keep their noisy values. epsilon_q must already be charged to
    the budget accountant.
    """
    if not exact:
        return {}
    if epsilon_q <= 0:
        raise ValueError(f"epsilon_q must be > 0, got {epsilon_q}")
    if sensitivity <= 0:
        raise ValueError(f"sensitivity must be > 0, got {sensitivity}")
    scale = sensitivity / epsilon_q
    released: dict = {}
    for key in sorted(exact):
        parts = key if isinstance(key, tuple) else (key,)
        noisy = exact[key] + laplace_from_uniform(rng.for_key(*parts), scale)
        if noisy >= policy.threshold:
            released[key] = noisy
    return released
