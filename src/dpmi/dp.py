"""Privacy mechanisms: per-user contribution bounding, clamping, seeded Laplace
noise, noisy-threshold censoring, and additive budget accounting.

Censoring only drops: a cell whose noisy sum falls below the threshold is
left out of the release, and no value is derived from the dropped cells, so
under censor_threshold's threshold a cell that exists only because of one
user is released with probability at most delta.

All randomness derives from a 64-bit seed through one keyed hash,
keyed_u64s. Release noise is keyed by (seed, table digest, query label,
cell key), so it never depends on the order the cells are visited in, and
a rerun on changed data has another digest and draws fresh noise. Bounding
works the same way on the input columns: each row of a user over the
contribution limit gets a priority mixed from the (seed, "bound", id) hash
and the row's place among the user's canonical rows, so the survivors
depend only on the seed and the user's own rows, never on the input order.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .model import Columns, PrivacyConfig

# Headroom so charges that exactly split the budget are not rejected by
# floating-point rounding.
_BUDGET_SLACK = 1e-9


class BudgetExceededError(RuntimeError):
    """A charge would push cumulative spend past the configured budget."""


def keyed_u64s(seed: int, prefix: tuple, keys: Iterable) -> Iterator[int]:
    """The 64-bit keyed hash of (seed, *prefix, *key) for each key in turn.

    A key is one part or a tuple of parts. Each part (bytes, or else its str()
    in UTF-8) is hashed after its 4-byte length. (seed, *prefix) is hashed
    once, and that state is copied for every key.
    """

    def update(h, parts) -> None:
        for part in parts:
            data = part if isinstance(part, bytes) else str(part).encode("utf-8")
            h.update(len(data).to_bytes(4, "little"))
            h.update(data)

    base = hashlib.blake2b(seed.to_bytes(8, "little", signed=True), digest_size=8)
    update(base, prefix)
    for key in keys:
        h = base.copy()
        update(h, key if isinstance(key, tuple) else (key,))
        yield int.from_bytes(h.digest(), "little")


def keyed_uniforms(seed: int, prefix: tuple, keys: Sequence) -> np.ndarray:
    """Each key's uniform draw in (0, 1), in the order of ``keys``; a draw
    depends only on (seed, *prefix, *key)."""
    x = np.fromiter(keyed_u64s(seed, prefix, keys), np.uint64, len(keys))
    return ((x >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


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


def _bounded_order(cols: Columns, limit: int, seed: int) -> np.ndarray:
    """Indices of the rows that survive bounding, in output order."""
    user, obs = cols.ids, cols.observations
    # Canonical order: by user, then by the user's own rows. Codes follow
    # string order, and the sign bit orders -0.0 after 0.0, so no tie
    # depends on the input order.
    order = np.lexsort((np.signbit(obs), obs, cols.partitions, cols.features, user))
    counts = np.bincount(user, minlength=len(cols.id_keys))
    is_over = counts > limit
    over = np.flatnonzero(is_over)
    if not len(over):
        return order
    # Positions (in canonical order) of the rows of over-limit users, grouped
    # by user; j is a row's index among its user's canonical rows.
    rows = np.flatnonzero(is_over[user[order]])
    sizes = counts[over]
    j = np.arange(len(rows)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    ids = map(cols.id_keys.__getitem__, over.tolist())
    keys = np.fromiter(keyed_u64s(seed, ("bound",), ids), np.uint64)
    counter = (j.astype(np.uint64) + np.uint64(1)) * _GOLDEN_GAMMA
    priority = _splitmix64(np.repeat(keys, sizes) + counter)
    # Within each user, lowest priority first (ties keep canonical order), so
    # the first `limit` of every user's block are its survivors.
    ranked = np.lexsort((priority, np.repeat(np.arange(len(over)), sizes)))
    keep = np.ones(len(order), dtype=bool)
    keep[rows] = False
    keep[rows[ranked[j < limit]]] = True
    return order[keep]


def bound_contributions(cols: Columns, limit: int, seed: int) -> Columns:
    """Cap each user id at ``limit`` rows, chosen by a keyed per-row priority.

    A user's rows are put in canonical order (feature, partition,
    observation). Row j of a user with more than ``limit`` rows gets the
    priority splitmix64(key + (j + 1) * gamma), where key hashes (seed, id),
    and the ``limit`` rows of lowest priority survive: a uniformly random
    subset that depends only on the seed and the user's own rows, never on
    their order or on other users. The survivors are an index take of the
    columns, sorted by (id, feature, partition, observation) so downstream
    stages see a reproducible order.
    """
    if limit < 1:
        raise ValueError(f"contribution limit must be >= 1, got {limit}")
    return cols.take(_bounded_order(cols, limit, seed))


def prepare_records(cols: Columns, privacy: PrivacyConfig | None) -> Columns:
    """Contribution-bound and clamp the columns; with privacy None, return them as they are.

    The survivors are an index take and the clamp writes their observation
    array, so no row is rebuilt.
    """
    if privacy is None:
        return cols
    bounded = bound_contributions(cols, privacy.contribution_limit, privacy.seed)
    lo, hi = privacy.clamp_lo, privacy.clamp_hi
    obs = bounded.observations
    # min(hi, max(lo, x)) on a column: unlike np.clip, a value equal to a
    # bound becomes that bound, so the sign of a zero is the bound's.
    bounded.observations = np.where(obs > lo, np.where(obs < hi, obs, hi), lo)
    return bounded


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
