"""Domain types shared by the aggregation, privacy, ranking, and evaluation layers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

INT64_MIN = -(2**63)
INT64_MAX = 2**63 - 1

_SPLIT_TOL = 1e-12

# Aggregate files written by earlier versions could pool censored dimensions
# under this key; it stays reserved, so no input row may use it as a feature
# or partition and an input key can never be mistaken for such a pool.
OTHER_KEY = "__other__"


class Direction(str, Enum):
    """Whether a feature distinguishes a partition by being present or absent there."""

    PRESENCE = "Presence"
    ABSENCE = "Absence"


@dataclass(frozen=True, slots=True)
class Record:
    """One input row: a user's observation of a feature within a partition."""

    id: str
    feature: str
    partition: str
    observation: float


def validate_record(row: Sequence) -> Record | str:
    """Parse a raw (id, feature, partition, observation) row.

    Returns a Record on success, otherwise the reason for the first problem
    found: "fields", "empty_key", "reserved", "parse", "non_finite" or
    "negative". Keys are treated as opaque strings, except that a feature or
    partition may not be the reserved OTHER_KEY; the observation must parse
    as a finite number >= 0.
    """
    if len(row) != 4:
        return "fields"
    raw_id, raw_feature, raw_partition, raw_obs = row
    rid, feature, partition = str(raw_id), str(raw_feature), str(raw_partition)
    if not rid or not feature or not partition:
        return "empty_key"
    if OTHER_KEY in (feature, partition):
        return "reserved"
    try:
        obs = float(raw_obs)
    except (TypeError, ValueError):
        return "parse"
    if math.isnan(obs) or math.isinf(obs):
        return "non_finite"
    if obs < 0:
        return "negative"
    return Record(rid, feature, partition, obs)


@dataclass(frozen=True)
class PrivacyConfig:
    """Knobs for the differentially private release path.

    budget_split gives the (joint, feature-marginal, partition-marginal)
    shares of epsilon; the three tables are released as separate queries, so
    each share must be positive.
    delta drives only the censoring threshold, never the noise itself.
    """

    epsilon: float
    delta: float = 1e-6
    clamp_lo: float = 0.0
    clamp_hi: float = 1.0
    contribution_limit: int = 1
    budget_split: tuple[float, float, float] = (0.5, 0.25, 0.25)
    seed: int = 0
    dp_enabled: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "budget_split", tuple(self.budget_split))
        if self.dp_enabled and not self.epsilon > 0:
            raise ValueError(f"epsilon must be > 0 when privacy is enabled, got {self.epsilon}")
        if not 0 < self.delta < 1:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
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

    @property
    def sensitivity(self) -> float:
        """Worst-case change one user can induce in any released sum.

        Adding or removing a user adds or removes up to contribution_limit
        clamped values, each at most max(|clamp_lo|, |clamp_hi|) in size.
        """
        return max(abs(self.clamp_lo), abs(self.clamp_hi)) * self.contribution_limit


@dataclass(frozen=True)
class AggregateTable:
    """Released (post-noise, post-censoring) sums at the three grouping levels.

    Marginals are released separately from the joint sums, so a marginal is
    not in general the sum of its surviving joint cells. ``total`` is derived
    from the released partition marginals and costs no extra budget.
    """

    joint: Mapping[tuple[str, str], float]
    feature_marginals: Mapping[str, float]
    partition_marginals: Mapping[str, float]
    total: float
    epsilon_spent: float = 0.0

    def __post_init__(self) -> None:
        if not self.total > 0:
            raise ValueError(f"released total must be > 0, got {self.total}")
        for name, table in (
            ("joint", self.joint),
            ("feature_marginals", self.feature_marginals),
            ("partition_marginals", self.partition_marginals),
        ):
            for key, value in table.items():
                if not value > 0:
                    raise ValueError(f"{name}[{key!r}] must be > 0, got {value}")
        for feature, partition in self.joint:
            if feature not in self.feature_marginals:
                raise ValueError(f"joint feature {feature!r} missing from feature_marginals")
            if partition not in self.partition_marginals:
                raise ValueError(f"joint partition {partition!r} missing from partition_marginals")


@dataclass(frozen=True, slots=True)
class ProbabilityTriple:
    """Normalized joint and marginal probabilities for one (feature, partition) pair."""

    p_x: float
    p_y: float
    p_xy: float

    def __post_init__(self) -> None:
        for name, value in (("p_x", self.p_x), ("p_y", self.p_y), ("p_xy", self.p_xy)):
            if not 0.0 < value <= 1.0:
                raise ValueError(f"{name} must lie in (0, 1], got {value}")


@dataclass(frozen=True, slots=True)
class RankedResult:
    """One scored (feature, partition) pair in the global descending-MI order."""

    partition: str
    feature: str
    mi: float
    direction: Direction
    rank: int
