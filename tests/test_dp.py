"""Privacy mechanism behavior: bounding, clamping, noise, censoring, budget."""

import math
import random
from collections import Counter
from statistics import fmean

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmi.dp import (
    BudgetAccountant,
    BudgetExceededError,
    CellRng,
    CensoringPolicy,
    bound_contributions,
    censor_threshold,
    keyed_uniform,
    laplace_from_uniform,
    prepare_records,
    release_sums,
)
from dpmi.mi import rank_records
from dpmi.model import PrivacyConfig, Record

from oracles import bound_contributions_oracle, clamp


class TestLaplace:
    def test_monte_carlo_mean_and_variance(self):
        n = 200_000
        samples = [laplace_from_uniform(keyed_uniform(7, "mc", i), 1.0) for i in range(n)]
        mean = fmean(samples)
        var = fmean((s - mean) ** 2 for s in samples)
        assert abs(mean) < 0.02
        assert abs(var - 2.0) < 0.1

    def test_same_seed_same_sample(self):
        a = laplace_from_uniform(keyed_uniform(42, "x", 0), 1.0)
        b = laplace_from_uniform(keyed_uniform(42, "x", 0), 1.0)
        assert a == b

    def test_different_seeds_differ(self):
        a = laplace_from_uniform(keyed_uniform(42, "x", 0), 1.0)
        b = laplace_from_uniform(keyed_uniform(43, "x", 0), 1.0)
        assert a != b

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            laplace_from_uniform(0.3, 0.0)

    def test_inverse_cdf_is_monotone_in_scale(self):
        # same uniform, smaller scale, weakly smaller magnitude
        for i in range(200):
            u = keyed_uniform(11, "mono", i)
            assert abs(laplace_from_uniform(u, 0.5)) <= abs(laplace_from_uniform(u, 2.0))

    def test_median_is_zero_sided(self):
        assert laplace_from_uniform(0.5, 1.0) == 0.0
        assert laplace_from_uniform(0.9, 1.0) > 0.0
        assert laplace_from_uniform(0.1, 1.0) < 0.0


class TestKeyedUniform:
    def test_open_interval(self):
        us = [keyed_uniform(3, "u", i) for i in range(10_000)]
        assert all(0.0 < u < 1.0 for u in us)

    def test_key_order_independent(self):
        rng = CellRng(seed=5, label="joint")
        first = [rng.for_key("a", str(i)) for i in range(50)]
        rng2 = CellRng(seed=5, label="joint")
        second = [rng2.for_key("a", str(i)) for i in reversed(range(50))]
        assert first == list(reversed(second))


class TestCensorThreshold:
    def test_plugs_into_formula(self):
        tau = censor_threshold(1.0, math.exp(-19) / 2.0, 1.0)
        assert tau == pytest.approx(20.0, abs=1e-12)

    def test_large_epsilon_limit(self):
        tau = censor_threshold(1e12, 1e-6, 1.0)
        assert tau == pytest.approx(1.0, abs=1e-9)

    def test_half_delta_is_sensitivity(self):
        assert censor_threshold(1.0, 0.5, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_scales_with_sensitivity(self):
        assert censor_threshold(1.0, 0.25, 2.0) == pytest.approx(
            2.0 * censor_threshold(1.0, 0.25, 1.0), abs=1e-12
        )

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            censor_threshold(1.0, 0.0, 1.0)


class TestBudgetAccountant:
    def test_exact_fit_succeeds(self):
        acc = BudgetAccountant(1.0)
        acc.charge("joint", 0.5)
        acc.charge("feature", 0.25)
        acc.charge("partition", 0.25)
        assert acc.spent_epsilon == pytest.approx(1.0, abs=1e-12)
        assert acc.remaining == pytest.approx(0.0, abs=1e-12)

    def test_overflow_names_label(self):
        acc = BudgetAccountant(1.0)
        acc.charge("first", 0.5)
        with pytest.raises(BudgetExceededError, match="second"):
            acc.charge("second", 0.6)

    def test_two_fold_composition_fits(self):
        acc = BudgetAccountant(1.0)
        acc.charge("fold1", 0.5)
        acc.charge("fold2", 0.5)
        assert acc.spent_epsilon == pytest.approx(1.0)

    def test_rejects_nonpositive_charge(self):
        acc = BudgetAccountant(1.0)
        with pytest.raises(ValueError):
            acc.charge("zero", 0.0)

    def test_spend_never_exceeds_total(self):
        acc = BudgetAccountant(0.3)
        acc.charge("a", 0.1)
        acc.charge("b", 0.1)
        acc.charge("c", 0.1)
        with pytest.raises(BudgetExceededError):
            acc.charge("d", 0.01)
        assert acc.spent_epsilon <= acc.total_epsilon + 1e-9


def _user_records(uid, n, feature="f", partition="p"):
    return [Record(uid, f"{feature}{i}", partition, 1.0) for i in range(n)]


class TestBoundContributions:
    def test_under_limit_keeps_record(self):
        recs = _user_records("u1", 1)
        assert bound_contributions(recs, 1, seed=0) == recs

    def test_forces_cardinality(self):
        recs = [Record("u1", "f", "p", 1.0)] * 5
        out = bound_contributions(recs, 2, seed=0)
        assert len(out) == 2

    def test_deterministic_across_runs(self):
        recs = _user_records("u9", 1000)
        first = bound_contributions(recs, 10, seed=123)
        second = bound_contributions(recs, 10, seed=123)
        assert first == second
        assert len(first) == 10

    def test_seed_changes_selection(self):
        recs = _user_records("u9", 1000)
        a = bound_contributions(recs, 10, seed=1)
        b = bound_contributions(recs, 10, seed=2)
        assert a != b

    def test_interleaving_other_users_does_not_change_survivors(self):
        mine = _user_records("u1", 200)
        other = _user_records("u2", 200)
        interleaved = [r for pair in zip(mine, other) for r in pair]
        solo = [r for r in bound_contributions(mine, 7, seed=42)]
        mixed = [r for r in bound_contributions(interleaved, 7, seed=42) if r.id == "u1"]
        assert solo == mixed

    def test_output_sorted(self):
        recs = [Record("b", "f", "p", 1.0), Record("a", "f", "p", 1.0)]
        out = bound_contributions(recs, 5, seed=0)
        assert [r.id for r in out] == ["a", "b"]

    def test_rejects_bad_limit(self):
        with pytest.raises(ValueError):
            bound_contributions([], 0, seed=0)

    @settings(deadline=None)
    @given(st.data(), st.integers(1, 4), st.integers(-(2**63), 2**63 - 1))
    def test_matches_oracle(self, data, limit, seed):
        records = data.draw(_record_lists())
        assert _bits(bound_contributions(records, limit, seed)) == _bits(
            bound_contributions_oracle(records, limit, seed)
        )

    @settings(deadline=None)
    @given(st.data(), st.integers(1, 4), st.integers(0, 2**32),
           st.sampled_from([(0.25, 2.0), (0.0, 1.0), (-0.0, 1.0), (-1.0, 0.0)]))
    def test_prepare_matches_clamped_oracle(self, data, limit, seed, bounds):
        records = data.draw(_record_lists())
        lo, hi = bounds
        privacy = PrivacyConfig(epsilon=1.0, clamp_lo=lo, clamp_hi=hi,
                                contribution_limit=limit, seed=seed)
        expected = [
            Record(r.id, r.feature, r.partition, clamp(r.observation, lo, hi))
            for r in bound_contributions_oracle(records, limit, seed)
        ]
        assert _bits(prepare_records(records, privacy)) == _bits(expected)

    @settings(deadline=None)
    @given(st.data(), st.integers(1, 3), st.integers(0, 2**32))
    def test_removing_another_user_keeps_survivors(self, data, limit, seed):
        records = data.draw(_record_lists())
        gone = data.draw(st.sampled_from(_IDS))
        full = bound_contributions(records, limit, seed)
        neighbour = bound_contributions([r for r in records if r.id != gone], limit, seed)
        assert _bits(neighbour) == _bits([r for r in full if r.id != gone])

    def test_subsets_are_uniform(self):
        recs = _user_records("u1", 6)
        counts = Counter(
            frozenset(r.feature for r in bound_contributions(recs, 2, seed))
            for seed in range(6000)
        )
        assert len(counts) == 15
        assert all(300 <= n <= 500 for n in counts.values()), sorted(counts.values())


_IDS = ["u", "u\x00", "v", "w"]
_OBSERVATIONS = st.one_of(
    st.sampled_from([-0.0, 0.0, 0.25, 2.0, 7.5]),
    st.floats(min_value=0.0, max_value=5.0),
)


@st.composite
def _record_lists(draw):
    """Shuffled records with repeated ids and rows, signed zeros, and values
    on both sides of every clamp range used here."""
    base = draw(st.lists(
        st.builds(Record, st.sampled_from(_IDS), st.sampled_from(["f1", "f2", "f3"]),
                  st.sampled_from(["p1", "p2"]), _OBSERVATIONS),
        max_size=30,
    ))
    repeats = draw(st.lists(st.sampled_from(base), max_size=10)) if base else []
    return draw(st.permutations(base + repeats))


def _bits(records):
    """Records as tuples that also tell -0.0 from 0.0."""
    return [
        (r.id, r.feature, r.partition, r.observation, math.copysign(1.0, r.observation))
        for r in records
    ]


def test_own_row_order_does_not_change_survivors():
    rng = random.Random(5)
    users = [
        [Record(f"u{i}", f"f{rng.randrange(20)}", f"p{i % 4}", rng.random()) for _ in range(3)]
        for i in range(3000)
    ]
    forward = [r for rows in users for r in rows]
    backward = [r for rows in users for r in reversed(rows)]
    privacy = PrivacyConfig(epsilon=4.0, contribution_limit=1, seed=11)
    assert prepare_records(backward, privacy) == prepare_records(forward, privacy)
    ranked = rank_records(forward, privacy)
    assert ranked
    assert rank_records(backward, privacy) == ranked


class TestReleaseSums:
    def test_empty_input_empty_output(self):
        policy = CensoringPolicy(threshold=5.0)
        assert release_sums({}, 1.0, 1.0, policy, CellRng(0, "q")) == {}

    def test_single_user_dimension_censored(self):
        # exact sum 0 from one user, tau=20: survival prob is e^-20 / 2
        policy = CensoringPolicy(threshold=20.0)
        survived = 0
        for trial in range(20_000):
            out = release_sums({"rare": 0.0}, 1.0, 1.0, policy, CellRng(trial, "q"))
            survived += int("rare" in out)
        assert survived == 0

    def test_survivors_keep_noisy_value(self):
        policy = CensoringPolicy(threshold=0.5)
        rng = CellRng(3, "q")
        out = release_sums({"big": 100.0}, 1.0, 1.0, policy, rng)
        expected = 100.0 + laplace_from_uniform(CellRng(3, "q").for_key("big"), 1.0)
        assert out["big"] == expected
        assert out["big"] != 100.0

    def test_iteration_order_does_not_matter(self):
        policy = CensoringPolicy(threshold=0.5)
        exact_a = {"x": 5.0, "y": 7.0, "z": 9.0}
        exact_b = {"z": 9.0, "x": 5.0, "y": 7.0}
        out_a = release_sums(exact_a, 1.0, 1.0, policy, CellRng(1, "q"))
        out_b = release_sums(exact_b, 1.0, 1.0, policy, CellRng(1, "q"))
        assert out_a == out_b

    def test_higher_epsilon_means_weakly_smaller_noise(self):
        policy = CensoringPolicy(threshold=1e-9)
        exact = {f"k{i}": 100.0 for i in range(200)}
        low = release_sums(exact, 1.0, 0.5, policy, CellRng(4, "q"))
        high = release_sums(exact, 1.0, 4.0, policy, CellRng(4, "q"))
        for key in exact:
            assert abs(high[key] - 100.0) <= abs(low[key] - 100.0)

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            release_sums({"a": 1.0}, 1.0, 0.0, CensoringPolicy(1.0), CellRng(0, "q"))
