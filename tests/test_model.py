"""Domain type validation and record ingestion."""

import dataclasses
import math
import re

import numpy as np
import pytest

from dpmi.model import (Direction, KeyCoder, PrivacyConfig, ProbabilityTables, RankedResult,
                        Ranking, Record, valid_mask, validate_record)


class TestValidateRecord:
    def test_accepts_plain_row(self):
        rec = validate_record(("u1", "f1", "p1", "200.0"))
        assert rec == ("u1", "f1", "p1", 200.0)

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

    def test_integer_past_the_float_range_is_non_finite(self):
        # JSON integers reach validate_record as int, which float() cannot always hold
        assert validate_record(("u1", "f1", "p1", 10**400)) == "non_finite"
        assert validate_record(("u1", "f1", "p1", 10**300)) == ("u1", "f1", "p1", 1e300)

    def test_rejects_wrong_arity(self):
        assert validate_record(("u1", "f1", "p1")) == "fields"

    def test_zero_observation_is_valid(self):
        rec = validate_record(("u1", "f1", "p1", "0"))
        assert isinstance(rec, tuple)
        assert rec[3] == 0.0

    def test_reserved_key_is_refused_as_feature_or_partition_only(self):
        assert validate_record(("u1", "__other__", "p1", "1")) == "reserved"
        assert validate_record(("u1", "f1", "__other__", "1")) == "reserved"
        assert validate_record(("__other__", "f1", "p1", "1")) == ("__other__", "f1", "p1", 1.0)
        assert validate_record(("u1", "", "__other__", "1")) == "empty_key"  # checked first


class TestValidMask:
    def test_agrees_with_validate_record(self):
        rows = [("u1", "f1", "p1", "1"), ("__other__", "f1", "p1", "0"), ("u1", "f1", "p1", "-0.0"),
                ("u1", "__other__", "p1", "1"), ("u1", "f1", "__other__", "1"),
                ("", "f1", "p1", "1"), ("u1", "", "p1", "1"), ("u1", "f1", "", "1"),
                ("u1", "f1", "p1", "-1"), ("u1", "f1", "p1", "nan"), ("u1", "f1", "p1", "inf"),
                ("u1", "f1", "p1", "1e400"), ("u1", "f1", "p1", "x"), ("u1", "f1", "p1", " 2 ")]

        def parse(text):
            try:
                return float(text)
            except ValueError:
                return math.nan

        coders = KeyCoder(), KeyCoder(), KeyCoder()
        codes = [coder.code(column) for coder, column in zip(coders, list(zip(*rows))[:3])]
        observations = np.array([parse(row[3]) for row in rows], np.float64)
        assert valid_mask(coders, codes, observations).tolist() == [
            isinstance(validate_record(row), tuple) for row in rows]


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
    def test_seed_has_no_default(self):
        # the seed keys the noise, so a default would be a published key
        with pytest.raises(TypeError, match="seed"):
            PrivacyConfig(epsilon=1.0)

    @pytest.mark.parametrize("seed", [2**63, -(2**63) - 1])
    def test_rejects_seed_outside_int64(self, seed):
        with pytest.raises(ValueError, match="signed 64-bit"):
            PrivacyConfig(epsilon=1.0, seed=seed)

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

    def test_rejects_infinite_epsilon_when_enabled(self):
        with pytest.raises(ValueError, match="epsilon must be finite"):
            PrivacyConfig(epsilon=math.inf, seed=1)

    @pytest.mark.parametrize("lo,hi", [(0.0, math.inf), (-math.inf, 1.0), (-math.inf, math.inf)])
    def test_rejects_infinite_clamp(self, lo, hi):
        # an infinite bound makes the sensitivity, and so the noise scale, infinite
        with pytest.raises(ValueError, match="clamp bounds must be finite"):
            PrivacyConfig(epsilon=1.0, seed=1, clamp_lo=lo, clamp_hi=hi)

    def test_rejects_inverted_clamp(self):
        with pytest.raises(ValueError, match="clamp"):
            PrivacyConfig(epsilon=1.0, seed=1, clamp_lo=1.0, clamp_hi=1.0)

    def test_rejects_delta_above_half(self):
        # above 1/2 the derived threshold would sit below the sensitivity
        assert PrivacyConfig(epsilon=1.0, seed=1, delta=0.5).delta == 0.5
        with pytest.raises(ValueError, match=re.escape("delta must lie in (0, 0.5], got 0.6")):
            PrivacyConfig(epsilon=1.0, seed=1, delta=0.6)

    def test_rejects_zero_contribution_limit(self):
        with pytest.raises(ValueError, match="contribution_limit"):
            PrivacyConfig(epsilon=1.0, seed=1, contribution_limit=0)

    def test_sensitivity(self):
        cfg = PrivacyConfig(epsilon=1.0, seed=1, clamp_lo=0.0, clamp_hi=2.0, contribution_limit=3)
        assert cfg.sensitivity == 6.0

    @pytest.mark.parametrize("lo,hi,limit", [(0.0, 1e308, 10), (-1e308, 0.0, 2), (0.0, 1e300, 10**9),
                                             (0.0, 1.0, 10**400)],
                             ids=["huge_hi", "huge_lo", "huge_product", "huge_limit"])
    def test_rejects_overflowing_sensitivity(self, lo, hi, limit):
        # finite bounds times the limit can still overflow the noise scale to
        # inf, and a limit past the float range cannot be converted at all
        with pytest.raises(ValueError, match="sensitivity overflows") as err:
            PrivacyConfig(epsilon=1.0, seed=1, clamp_lo=lo, clamp_hi=hi, contribution_limit=limit)
        assert f"({lo}, {hi})" in str(err.value) and f"contribution_limit {limit}" in str(err.value)

    def test_sensitivity_with_positive_lower_clamp(self):
        # removing one user drops up to clamp_hi per row, not clamp_hi - clamp_lo
        cfg = PrivacyConfig(epsilon=1.0, seed=1, clamp_lo=0.5, clamp_hi=1.0)
        assert cfg.sensitivity == 1.0
        cfg = PrivacyConfig(epsilon=1.0, seed=1, clamp_lo=0.5, clamp_hi=1.0, contribution_limit=2)
        assert cfg.sensitivity == 2.0


class TestProbabilityTables:
    def test_accepts_valid(self):
        tables = ProbabilityTables([0, 1], ["f", "g"], [0, 0], ["p", "q"],
                                   [0.5, 1.0], [0.5, 0.5], [0.25, 0.5])
        assert len(tables) == 2

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="2 features but 1 partitions"):
            ProbabilityTables([0, 1], ["f", "g"], [0], ["p"], [0.5, 0.5], [0.5, 0.5], [0.25, 0.25])

    @pytest.mark.parametrize("name,values,shape", [
        ("p_x", [0.5], "(1,)"), ("p_y", [0.5, 0.5, 0.5], "(3,)"), ("p_xy", [[0.25, 0.25]], "(1, 2)"),
    ])
    def test_rejects_shape_mismatch(self, name, values, shape):
        kwargs = dict(p_x=[0.5, 0.5], p_y=[0.5, 0.5], p_xy=[0.25, 0.25])
        kwargs[name] = values
        with pytest.raises(ValueError, match=re.escape(f"{name} has shape {shape}, expected (2,)")):
            ProbabilityTables([0, 1], ["f", "g"], [0, 0], ["p", "q"], **kwargs)

    @pytest.mark.parametrize("bad", [dict(p_x=0.0), dict(p_y=1.5), dict(p_xy=-0.1)])
    def test_rejects_out_of_range(self, bad):
        # the bad value sits in the second pair; the first is valid
        ((name, value),) = bad.items()
        kwargs = dict(p_x=[0.5, 0.5], p_y=[0.5, 0.5], p_xy=[0.25, 0.25])
        kwargs[name] = [0.25, value]
        with pytest.raises(ValueError, match=re.escape(f"{name} must lie in (0, 1], got {value}")):
            ProbabilityTables([0, 1], ["f", "g"], [0, 0], ["p", "q"], **kwargs)


def _ranking(n):
    """n rows: partition p{i % 2}, feature f{i}, MI (n - i) / n, alternating directions."""
    return Ranking(
        np.array([f"p{i % 2}" for i in range(n)], dtype=object),
        np.array([f"f{i}" for i in range(n)], dtype=object),
        np.arange(n, 0, -1, dtype=np.float64) / n,
        np.array([(Direction.PRESENCE, Direction.ABSENCE)[i % 2] for i in range(n)], dtype=object),
    )


class TestRanking:
    def test_len_is_the_number_of_pairs(self):
        assert len(_ranking(7)) == 7
        assert _ranking(7).ranks == range(1, 8)

    def test_rows_are_ranked_results_with_rank_index_plus_one(self):
        ranking = _ranking(4)
        rows = list(ranking)
        assert all(type(row) is RankedResult for row in rows)
        assert [row.rank for row in rows] == [1, 2, 3, 4]
        assert rows[2] == RankedResult("p0", "f2", 0.5, Direction.PRESENCE, 3)
        assert type(rows[2].mi) is float
        assert [ranking[i] for i in range(4)] == rows

    def test_negative_index_counts_from_the_end(self):
        ranking = _ranking(5)
        assert ranking[-1] == RankedResult("p0", "f4", 0.2, Direction.PRESENCE, 5)
        assert ranking[-5] == ranking[0]
        for index in (5, -6):
            with pytest.raises(IndexError):
                ranking[index]

    def test_slices_keep_their_ranks(self):
        ranking = _ranking(10)
        rows = list(ranking)
        for part in (slice(3), slice(2, 7), slice(None, None, 3), slice(1, None, 4),
                     slice(None, None, -2), slice(8, 20)):
            sliced = ranking[part]
            assert isinstance(sliced, Ranking)
            assert list(sliced) == rows[part]
            assert len(sliced) == len(rows[part])
        assert [row.rank for row in ranking[::3]] == [1, 4, 7, 10]
        assert ranking[::3][-1].rank == 10
        assert ranking[4:][:2] == rows[4:6]

    def test_empty_ranking_is_falsy_and_equals_an_empty_list(self):
        for empty in (Ranking.empty(), _ranking(3)[3:]):
            assert not empty
            assert len(empty) == 0
            assert empty == []
            assert [] == empty
            assert list(empty) == []
        assert _ranking(1)
        assert _ranking(1) != []

    def test_equality_compares_rows(self):
        assert _ranking(4) == _ranking(4)
        assert _ranking(4) == list(_ranking(4))
        assert list(_ranking(4)) == _ranking(4)
        assert _ranking(4) != _ranking(5)
        assert _ranking(4)[1:] != _ranking(3)  # same keys at other ranks
        assert _ranking(4) != tuple(_ranking(4))

    def test_columns_of_unequal_length_are_refused(self):
        ranking = _ranking(3)
        with pytest.raises(ValueError, match="differ in length"):
            Ranking(ranking.partitions, ranking.features[:2], ranking.mi, ranking.directions)

    def test_is_read_only(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            _ranking(2).mi = np.zeros(2)
        with pytest.raises(TypeError):
            _ranking(2)[0] = None
