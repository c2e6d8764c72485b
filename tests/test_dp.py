"""Privacy mechanism behavior: bounding, clamping, noise, censoring, budget."""

import math
import random
from collections import Counter
from statistics import fmean

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmi.dp import (
    BudgetAccountant,
    BudgetExceededError,
    bound_contributions,
    censor_threshold,
    keyed_u64s,
    keyed_uniforms,
    laplace_from_uniform,
    prepare_records,
    release_sums,
)
from dpmi.mi import rank_records
from dpmi.model import Columns, PrivacyConfig, Record

from oracles import (bound_contributions_oracle, clamp, keyed_u64, keyed_uniform, laplace_oracle,
                     records_of)


# Key parts as the release and bounding pass them: strings (empty and
# non-ASCII included), digests as bytes, and integers.
_PARTS = st.one_of(
    st.sampled_from(["", "a", "ab", "bc", "c", "é", "日本", "\x00"]),
    st.text(max_size=4),
    st.binary(max_size=4),
    st.integers(-3, 3),
)


def _laplace(uniforms, scale):
    """``laplace_from_uniform`` over a list of uniforms, as a list."""
    return laplace_from_uniform(np.array(uniforms, np.float64), scale).tolist()


class TestLaplace:
    def test_monte_carlo_mean_and_variance(self):
        n = 200_000
        samples = _laplace([keyed_uniform(7, "mc", i) for i in range(n)], 1.0)
        mean = fmean(samples)
        var = fmean((s - mean) ** 2 for s in samples)
        assert abs(mean) < 0.02
        assert abs(var - 2.0) < 0.1

    def test_same_seed_same_sample(self):
        a = _laplace([keyed_uniform(42, "x", 0)], 1.0)
        b = _laplace([keyed_uniform(42, "x", 0)], 1.0)
        assert a == b

    def test_different_seeds_differ(self):
        a = _laplace([keyed_uniform(42, "x", 0)], 1.0)
        b = _laplace([keyed_uniform(43, "x", 0)], 1.0)
        assert a != b

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(ValueError):
            laplace_from_uniform(0.3, 0.0)

    def test_inverse_cdf_is_monotone_in_scale(self):
        # same uniform, smaller scale, weakly smaller magnitude
        us = [keyed_uniform(11, "mono", i) for i in range(200)]
        for small, large in zip(_laplace(us, 0.5), _laplace(us, 2.0)):
            assert abs(small) <= abs(large)

    def test_median_is_zero_sided(self):
        median, high, low = _laplace([0.5, 0.9, 0.1], 1.0)
        assert (median, high > 0.0, low < 0.0) == (0.0, True, True)


class TestKeyedUniform:
    def test_open_interval(self):
        us = keyed_uniforms(3, ("u",), range(10_000))
        assert len(us) == 10_000
        assert all(0.0 < u < 1.0 for u in us.tolist())

    def test_key_order_independent(self):
        keys = [("a", str(i)) for i in range(50)]
        first = keyed_uniforms(5, (b"", "joint"), keys)
        second = keyed_uniforms(5, (b"", "joint"), keys[::-1])
        assert first.tolist() == second[::-1].tolist()

    @settings(deadline=None)
    @given(
        st.integers(-(2**63), 2**63 - 1),
        st.lists(_PARTS, max_size=3).map(tuple),
        st.lists(st.one_of(_PARTS, st.lists(_PARTS, max_size=3).map(tuple)), max_size=8),
    )
    def test_matches_scalar_oracle(self, seed, prefix, keys):
        parts = [key if isinstance(key, tuple) else (key,) for key in keys]
        expected = [keyed_u64(seed, (*prefix, *p)) for p in parts]
        assert list(keyed_u64s(seed, prefix, keys)) == expected
        drawn = keyed_uniforms(seed, prefix, keys)
        assert drawn.tolist() == [keyed_uniform(seed, *prefix, *p) for p in parts]

    def test_length_prefix_separates_split_parts(self):
        drawn = keyed_uniforms(9, ("q",), [("ab", "c"), ("a", "bc"), ("abc",), ("", "abc")])
        assert len(set(drawn.tolist())) == 4


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

    def test_rejects_delta_above_half(self):
        with pytest.raises(ValueError, match=r"\(0, 0\.5\]"):
            censor_threshold(0.5, 0.9, 1.0)

    @pytest.mark.parametrize("epsilon_q,sensitivity,name", [
        (0.0, 1.0, "epsilon_q"), (-1.0, 1.0, "epsilon_q"), (1.0, 0.0, "sensitivity"),
        (1.0, -2.0, "sensitivity"),
    ])
    def test_rejects_nonpositive_epsilon_or_sensitivity(self, epsilon_q, sensitivity, name):
        with pytest.raises(ValueError, match=f"{name} must be > 0"):
            censor_threshold(epsilon_q, 1e-3, sensitivity)


class TestBudgetAccountant:
    def test_exact_fit_succeeds(self):
        acc = BudgetAccountant(1.0)
        acc.charge("joint", 0.5)
        acc.charge("feature", 0.25)
        acc.charge("partition", 0.25)
        assert acc.spent_epsilon == pytest.approx(1.0, abs=1e-12)
        acc.check("nothing more", 0.0)
        with pytest.raises(BudgetExceededError, match="one more"):
            acc.check("one more", 1e-6)
        assert len(acc.spent) == 3

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

    @pytest.mark.parametrize("total", [0.0, -1.0, float("nan")])
    def test_rejects_nonpositive_total(self, total):
        with pytest.raises(ValueError, match="total epsilon must be > 0"):
            BudgetAccountant(total)

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


def _bound(records, limit, seed):
    """``bound_contributions`` over the columns of a Record list, as Records."""
    return records_of(bound_contributions(Columns.from_records(records), limit, seed))


def _prepare(records, privacy):
    """``prepare_records`` over the columns of a Record list, as Records."""
    return records_of(prepare_records(Columns.from_records(records), privacy))


def _user_records(uid, n, feature="f", partition="p"):
    return [Record(uid, f"{feature}{i}", partition, 1.0) for i in range(n)]


class TestBoundContributions:
    def test_under_limit_keeps_record(self):
        recs = _user_records("u1", 1)
        assert _bound(recs, 1, seed=0) == recs

    def test_forces_cardinality(self):
        recs = [Record("u1", "f", "p", 1.0)] * 5
        out = _bound(recs, 2, seed=0)
        assert len(out) == 2

    def test_deterministic_across_runs(self):
        recs = _user_records("u9", 1000)
        first = _bound(recs, 10, seed=123)
        second = _bound(recs, 10, seed=123)
        assert first == second
        assert len(first) == 10

    def test_seed_changes_selection(self):
        recs = _user_records("u9", 1000)
        a = _bound(recs, 10, seed=1)
        b = _bound(recs, 10, seed=2)
        assert a != b

    def test_interleaving_other_users_does_not_change_survivors(self):
        mine = _user_records("u1", 200)
        other = _user_records("u2", 200)
        interleaved = [r for pair in zip(mine, other) for r in pair]
        solo = [r for r in _bound(mine, 7, seed=42)]
        mixed = [r for r in _bound(interleaved, 7, seed=42) if r.id == "u1"]
        assert solo == mixed

    def test_survivors_keep_input_order(self):
        recs = [Record("b", "f", "p", 1.0), Record("a", "f", "p", 1.0)]
        assert _bound(recs, 5, seed=0) == recs
        over = _user_records("u", 6)
        mixed = [over[3], recs[0], over[0], over[5], recs[1], over[1], over[2], over[4]]
        kept = set(_bound(over, 2, seed=0))
        assert len(kept) == 2
        assert _bound(mixed, 2, seed=0) == [r for r in mixed if r.id != "u" or r in kept]

    def test_rejects_bad_limit(self):
        with pytest.raises(ValueError):
            _bound([], 0, seed=0)

    @settings(deadline=None)
    @given(st.data(), st.integers(1, 4), st.integers(-(2**63), 2**63 - 1))
    def test_matches_oracle(self, data, limit, seed):
        records = data.draw(_record_lists())
        assert _bits(_bound(records, limit, seed)) == _bits(
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
        assert _bits(_prepare(records, privacy)) == _bits(expected)

    @settings(deadline=None)
    @given(st.data(), st.integers(1, 3), st.integers(0, 2**32))
    def test_removing_another_user_keeps_survivors(self, data, limit, seed):
        records = data.draw(_record_lists())
        gone = data.draw(st.sampled_from(_IDS))
        full = _bound(records, limit, seed)
        neighbour = _bound([r for r in records if r.id != gone], limit, seed)
        assert _bits(neighbour) == _bits([r for r in full if r.id != gone])

    def test_subsets_are_uniform(self):
        recs = _user_records("u1", 6)
        counts = Counter(
            frozenset(r.feature for r in _bound(recs, 2, seed))
            for seed in range(6000)
        )
        assert len(counts) == 15
        assert all(300 <= n <= 500 for n in counts.values()), sorted(counts.values())


def _arrays(cols):
    """Every array of a Columns table as (dtype, bytes), and its key lists."""
    arrays = (cols.ids, cols.features, cols.partitions, cols.observations)
    return ([(a.dtype.str, a.tobytes()) for a in arrays],
            [list(cols.id_keys), list(cols.feature_keys), list(cols.partition_keys)])


class TestPrepareRecords:
    # three users with two rows each, values on both sides of the clamp
    # range and on its bounds, signed zeros among them
    RECORDS = [Record(f"u{i % 3}", f"f{i % 4}", f"p{i % 2}", v)
               for i, v in enumerate([-0.0, 0.0, 0.25, 2.0, 7.5, 1.0])]

    @pytest.mark.parametrize("limit", [1, 2])  # every user over the limit; none
    def test_leaves_the_callers_columns_unchanged(self, limit):
        cols = Columns.from_records(self.RECORDS)
        before = _arrays(cols)
        privacy = PrivacyConfig(epsilon=1.0, clamp_lo=0.25, clamp_hi=2.0,
                                contribution_limit=limit, seed=3)
        prepared = prepare_records(cols, privacy)
        assert len(prepared) == 3 * limit
        assert _arrays(cols) == before

    def test_no_user_over_the_limit_keeps_every_row_in_input_order(self):
        records = self.RECORDS[::-1]
        privacy = PrivacyConfig(epsilon=1.0, clamp_lo=0.25, clamp_hi=2.0,
                                contribution_limit=2, seed=3)
        assert _bound(records, 2, seed=3) == records
        assert _bits(_prepare(records, privacy)) == _bits(
            [Record(r.id, r.feature, r.partition, clamp(r.observation, 0.25, 2.0))
             for r in records])


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
    assert _prepare(backward, privacy) == _prepare(forward, privacy)
    ranked = rank_records(forward, privacy)
    assert ranked
    assert rank_records(backward, privacy) == ranked


class TestReleaseSums:
    def test_empty_input_empty_output(self):
        assert len(release_sums(np.empty(0), 1.0, 1.0, 5.0, np.empty(0))) == 0

    def test_single_user_dimension_censored(self):
        # exact sum 0 from one user, tau=20: survival prob is e^-20 / 2
        survived = 0
        for trial in range(20_000):
            uniforms = keyed_uniforms(trial, (b"", "q"), ["rare"])
            out = release_sums(np.array([0.0]), 1.0, 1.0, 20.0, uniforms)
            survived += len(out)
        assert survived == 0

    def test_survivors_keep_noisy_value(self):
        out = release_sums(np.array([100.0]), 1.0, 1.0, 0.5,
                           keyed_uniforms(3, (b"", "q"), ["big"]))
        expected = 100.0 + laplace_oracle(keyed_uniform(3, b"", "q", "big"), 1.0)
        assert (out.index.tolist(), out.sums.tolist()) == ([0], [expected])
        assert expected != 100.0

    def test_iteration_order_does_not_matter(self):
        # a table listed in another order releases the same sum for each key
        def release(exact):
            keys = list(exact)
            out = release_sums(np.array(list(exact.values())), 1.0, 1.0, 0.5,
                               keyed_uniforms(1, (b"", "q"), keys))
            return dict(zip(map(keys.__getitem__, out.index.tolist()), out.sums.tolist()))

        out_a = release({"x": 5.0, "y": 7.0, "z": 9.0})
        assert out_a == release({"z": 9.0, "x": 5.0, "y": 7.0})
        assert len(out_a) == 3

    def test_higher_epsilon_means_weakly_smaller_noise(self):
        exact = np.full(200, 100.0)
        uniforms = keyed_uniforms(4, (b"", "q"), [f"k{i}" for i in range(200)])
        low = release_sums(exact, 1.0, 0.5, 1e-9, uniforms)
        high = release_sums(exact, 1.0, 4.0, 1e-9, uniforms)
        assert len(low) == len(high) == 200
        assert (abs(high.sums - 100.0) <= abs(low.sums - 100.0)).all()

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            release_sums(np.array([1.0]), 1.0, 0.0, 1.0, keyed_uniforms(0, (b"", "q"), ["a"]))

    @pytest.mark.parametrize("sensitivity", [0.0, -1.0])
    def test_rejects_nonpositive_sensitivity(self, sensitivity):
        with pytest.raises(ValueError, match="sensitivity must be > 0"):
            release_sums(np.array([1.0]), sensitivity, 1.0, 1.0,
                         keyed_uniforms(0, (b"", "q"), ["a"]))

    @pytest.mark.parametrize("threshold", [0.0, -1.0, float("nan")])
    def test_rejects_nonpositive_threshold(self, threshold):
        with pytest.raises(ValueError, match="censoring threshold must be > 0"):
            release_sums(np.array([1.0]), 1.0, 1.0, threshold,
                         keyed_uniforms(0, (b"", "q"), ["a"]))
