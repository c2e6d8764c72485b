"""Domain type validation and record ingestion."""

import dataclasses

import pytest

from dpmi.model import PrivacyConfig, ProbabilityTriple, Record, validate_record


class TestValidateRecord:
    def test_accepts_plain_row(self):
        rec = validate_record(("u1", "f1", "p1", "200.0"))
        assert rec == Record("u1", "f1", "p1", 200.0)

    def test_rejects_negative_observation(self):
        assert validate_record(("u1", "f1", "p1", "-3")) == "negative"

    def test_rejects_non_numeric_observation(self):
        assert validate_record(("u1", "f1", "p1", "abc")) == "parse"

    def test_rejects_empty_keys(self):
        assert validate_record(("u1", "", "p1", "1")) == "empty_key"
        assert validate_record(("", "f1", "p1", "1")) == "empty_key"

    def test_rejects_non_finite(self):
        assert validate_record(("u1", "f1", "p1", "nan")) == "non_finite"
        assert validate_record(("u1", "f1", "p1", "inf")) == "non_finite"

    def test_rejects_wrong_arity(self):
        assert validate_record(("u1", "f1", "p1")) == "fields"

    def test_zero_observation_is_valid(self):
        rec = validate_record(("u1", "f1", "p1", "0"))
        assert isinstance(rec, Record)
        assert rec.observation == 0.0


class TestRecord:
    def test_round_trips_through_dict(self):
        rec = Record("u1", "f/1", "pé", 1.5)
        again = Record(**dataclasses.asdict(rec))
        assert again == rec

    def test_is_hashable_and_immutable(self):
        rec = Record("u1", "f1", "p1", 1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.observation = 2.0  # type: ignore[misc]
        assert hash(rec) == hash(Record("u1", "f1", "p1", 1.0))


class TestPrivacyConfig:
    def test_default_split_sums_to_one(self):
        cfg = PrivacyConfig(epsilon=1.0, seed=1)
        assert sum(cfg.budget_split) == pytest.approx(1.0, abs=1e-12)

    def test_rejects_bad_split(self):
        with pytest.raises(ValueError, match="budget_split"):
            PrivacyConfig(epsilon=1.0, seed=1, budget_split=(0.5, 0.25, 0.2))

    def test_rejects_negative_split_weight(self):
        with pytest.raises(ValueError, match="budget_split"):
            PrivacyConfig(epsilon=1.0, seed=1, budget_split=(1.2, -0.1, -0.1))

    def test_rejects_zero_split_weight(self):
        # a query with no budget cannot be released
        with pytest.raises(ValueError, match="budget_split"):
            PrivacyConfig(epsilon=1.0, seed=1, budget_split=(1.0, 0.0, 0.0))

    def test_rejects_nonpositive_epsilon_when_enabled(self):
        with pytest.raises(ValueError, match="epsilon"):
            PrivacyConfig(epsilon=0.0, seed=1)

    def test_epsilon_unchecked_when_disabled(self):
        cfg = PrivacyConfig(epsilon=0.0, seed=1, dp_enabled=False)
        assert not cfg.dp_enabled

    def test_rejects_inverted_clamp(self):
        with pytest.raises(ValueError, match="clamp"):
            PrivacyConfig(epsilon=1.0, seed=1, clamp_lo=1.0, clamp_hi=1.0)

    def test_rejects_zero_contribution_limit(self):
        with pytest.raises(ValueError, match="contribution_limit"):
            PrivacyConfig(epsilon=1.0, seed=1, contribution_limit=0)

    def test_sensitivity(self):
        cfg = PrivacyConfig(epsilon=1.0, seed=1, clamp_lo=0.0, clamp_hi=2.0, contribution_limit=3)
        assert cfg.sensitivity == 6.0

    def test_sensitivity_with_positive_lower_clamp(self):
        # removing one user drops up to clamp_hi per row, not clamp_hi - clamp_lo
        cfg = PrivacyConfig(epsilon=1.0, seed=1, clamp_lo=0.5, clamp_hi=1.0)
        assert cfg.sensitivity == 1.0
        cfg = PrivacyConfig(epsilon=1.0, seed=1, clamp_lo=0.5, clamp_hi=1.0, contribution_limit=2)
        assert cfg.sensitivity == 2.0


class TestProbabilityTriple:
    def test_accepts_valid(self):
        ProbabilityTriple(0.5, 0.5, 0.25)

    @pytest.mark.parametrize("bad", [dict(p_x=0.0), dict(p_y=1.5), dict(p_xy=-0.1)])
    def test_rejects_out_of_range(self, bad):
        kwargs = dict(p_x=0.5, p_y=0.5, p_xy=0.25)
        kwargs.update(bad)
        with pytest.raises(ValueError):
            ProbabilityTriple(**kwargs)
