"""Privacy mechanisms: per-user contribution bounding, clamping, seeded Laplace
noise, noisy-threshold censoring, and additive budget accounting.

All randomness derives from a 64-bit seed through a counter-based keyed hash,
so the noise on a released sum depends only on (seed, query label, cell key)
and never on the order the cells are visited in.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Mapping

from .model import OTHER_KEY, PrivacyConfig, Record

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
    """Deterministic uniform source for one query label.

    for_key() gives the cell-keyed draw used by table releases, memoised per
    instance: the draw depends only on the key, so releasing the same cells
    again from one instance (at another epsilon, say) hashes each cell once.
    uniform() walks an internal counter for plain sequential sampling.
    """

    def __init__(self, seed: int, label: str = ""):
        self.seed = seed
        self.label = label
        self._counter = 0
        self._draws: dict[tuple, float] = {}

    def for_key(self, *parts) -> float:
        u = self._draws.get(parts)
        if u is None:
            u = self._draws[parts] = keyed_uniform(self.seed, self.label, *parts)
        return u

    def uniform(self) -> float:
        u = keyed_uniform(self.seed, self.label, self._counter)
        self._counter += 1
        return u


def laplace_from_uniform(u: float, scale: float) -> float:
    """Inverse-CDF Laplace(0, scale) transform of a uniform u in (0, 1)."""
    if scale <= 0:
        raise ValueError(f"scale must be > 0, got {scale}")
    d = u - 0.5
    magnitude = -scale * math.log1p(-2.0 * abs(d))
    return math.copysign(magnitude, d)


def laplace_noise(scale: float, rng) -> float:
    """One Laplace(0, scale) sample from rng.uniform(); deterministic given rng state."""
    return laplace_from_uniform(rng.uniform(), scale)


def clamp(observation: float, lo: float, hi: float) -> float:
    """min(hi, max(lo, observation)); bounds must satisfy lo < hi."""
    if not lo < hi:
        raise ValueError(f"clamp bounds must satisfy lo < hi, got ({lo}, {hi})")
    return min(hi, max(lo, observation))


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


class CensoringMode(Enum):
    DROP = "drop"
    OTHER_BUCKET = "other_bucket"


@dataclass(frozen=True)
class CensoringPolicy:
    """What happens to noisy sums below the threshold: dropped, or pooled."""

    threshold: float
    mode: CensoringMode = CensoringMode.DROP

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


def bound_contributions(records: Iterable[Record], limit: int, seed: int) -> list[Record]:
    """Cap each user id at ``limit`` records via seeded per-user reservoir sampling.

    The reservoir for a user is keyed by (seed, id), so its survivors do not
    depend on how other users' records interleave; they do depend on the
    order of the user's own records. Output is sorted by
    (id, feature, partition, observation) so downstream stages see a
    reproducible order.
    """
    if limit < 1:
        raise ValueError(f"contribution limit must be >= 1, got {limit}")
    kept_by_user: dict[str, list[Record]] = {}
    seen: dict[str, int] = {}
    rngs: dict[str, random.Random] = {}
    for rec in records:
        kept = kept_by_user.setdefault(rec.id, [])
        n = seen.get(rec.id, 0)
        if n < limit:
            kept.append(rec)
        else:
            rng = rngs.get(rec.id)
            if rng is None:
                rng = rngs[rec.id] = random.Random(_keyed_u64(seed, ("bound", rec.id)))
            j = rng.randint(0, n)
            if j < limit:
                kept[j] = rec
        seen[rec.id] = n + 1
    survivors = [rec for kept in kept_by_user.values() for rec in kept]
    survivors.sort(key=lambda r: (r.id, r.feature, r.partition, r.observation))
    return survivors


def prepare_records(records: Iterable[Record], privacy: PrivacyConfig) -> list[Record]:
    """Contribution-bound and clamp records when privacy is enabled; no-op otherwise."""
    if not privacy.dp_enabled:
        return list(records)
    bounded = bound_contributions(records, privacy.contribution_limit, privacy.seed)
    lo, hi = privacy.clamp_lo, privacy.clamp_hi
    return [Record(r.id, r.feature, r.partition, clamp(r.observation, lo, hi)) for r in bounded]


def release_sums(
    exact: Mapping,
    sensitivity: float,
    epsilon_q: float,
    policy: CensoringPolicy,
    rng: CellRng,
    *,
    bucket_key: Callable | None = None,
) -> dict:
    """Release a table of sums under Laplace(sensitivity / epsilon_q) noise.

    Keys whose noisy sum falls below policy.threshold are censored: dropped,
    or pooled under bucket_key(key) when the policy mode is OTHER_BUCKET
    (pooled buckets are kept only while positive). Survivors keep their noisy
    values. epsilon_q must already be charged to the budget accountant.
    """
    if not exact:
        return {}
    if epsilon_q <= 0:
        raise ValueError(f"epsilon_q must be > 0, got {epsilon_q}")
    if sensitivity <= 0:
        raise ValueError(f"sensitivity must be > 0, got {sensitivity}")
    scale = sensitivity / epsilon_q
    if bucket_key is None:
        bucket_key = lambda key: OTHER_KEY  # noqa: E731
    released: dict = {}
    pooled: dict = {}
    for key in sorted(exact):
        parts = key if isinstance(key, tuple) else (key,)
        noisy = exact[key] + laplace_from_uniform(rng.for_key(*parts), scale)
        if noisy >= policy.threshold:
            released[key] = noisy
        elif policy.mode is CensoringMode.OTHER_BUCKET:
            bucket = bucket_key(key)
            pooled[bucket] = pooled.get(bucket, 0.0) + noisy
    for bucket in sorted(pooled):
        if pooled[bucket] > 0:
            released[bucket] = released.get(bucket, 0.0) + pooled[bucket]
    return released
