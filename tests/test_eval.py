"""Evaluation harness: rank comparison, sweep, stability, runtime, synth data."""

import math
import random

import pytest

from dpmi.evaluation import (
    compare_rankings,
    epsilon_sweep,
    head_tail_stability,
    nearest_rank_percentile,
    runtime_compare,
    synth_generate,
)
from dpmi.mi import rank_records
from dpmi.model import Direction, PrivacyConfig, RankedResult, Record

from oracles import epsilon_sweep_oracle, head_tail_stability_oracle, percentile_nearest_rank

NO_DP = PrivacyConfig(epsilon=1.0, seed=0, dp_enabled=False)


def _multi_row_records(users=1500, features=30, partitions=4, seed=0):
    """Users with one to six rows each and observations in [0, 3).

    With contribution_limit 2 and clamp (0.25, 2), bounding drops rows and
    clamping moves values at both ends, so bounding really depends on the
    trial seed.
    """
    rng = random.Random(seed)
    records = []
    for u in range(users):
        partition = rng.randrange(partitions)
        for _ in range(rng.randint(1, 6)):
            planted = rng.random() < 0.7
            feature = partition + partitions * rng.randrange(3) if planted else rng.randrange(features)
            records.append(Record(f"u{u}", f"f{feature}", f"p{partition}", rng.random() * 3.0))
    return records


def _ranked(pairs):
    return [
        RankedResult(partition=p, feature=f, mi=1.0 / r, direction=Direction.PRESENCE, rank=r)
        for (p, f, r) in pairs
    ]


class TestCompareRankings:
    def test_identical_rankings_zero_errors(self):
        ranking = _ranked([("p", "a", 1), ("p", "b", 2), ("p", "c", 3)])
        cmp = compare_rankings(ranking, ranking, top_k=3)
        assert cmp.percentiles == {10: 0.0, 25: 0.0, 50: 0.0, 75: 0.0, 90: 0.0}
        assert cmp.dropped == 0

    def test_hand_enumerated_case(self):
        baseline = _ranked([("p", "a", 1), ("p", "b", 2), ("p", "c", 3)])
        private = _ranked([("p", "b", 1), ("p", "c", 2), ("p", "a", 3)])
        cmp = compare_rankings(baseline, private, top_k=3)
        assert sorted(cmp.abs_rank_errors) == [1, 1, 2]
        assert cmp.percentiles[50] == 1.0

    def test_censored_pair_excluded_and_counted(self):
        baseline = _ranked([("p", "a", 1), ("p", "b", 2), ("p", "gone", 3)])
        private = _ranked([("p", "a", 1), ("p", "b", 2)])
        cmp = compare_rankings(baseline, private, top_k=3)
        assert cmp.dropped == 1
        assert cmp.pairs_compared == 2

    def test_restricts_to_baseline_top_k(self):
        baseline = _ranked([("p", "a", 1), ("p", "b", 2), ("p", "c", 3)])
        private = _ranked([("p", "c", 1), ("p", "b", 2), ("p", "a", 3)])
        cmp = compare_rankings(baseline, private, top_k=1)
        assert cmp.abs_rank_errors == [2]

    def test_error_multiset_symmetric(self):
        rng = random.Random(8)
        perm = list(range(1, 40))
        rng.shuffle(perm)
        a = _ranked([("p", f"f{i}", i) for i in range(1, 40)])
        b = _ranked([("p", f"f{i}", perm[i - 1]) for i in range(1, 40)])
        ab = compare_rankings(a, b, top_k=39).abs_rank_errors
        ba = compare_rankings(b, a, top_k=39).abs_rank_errors
        assert sorted(ab) == sorted(ba)

    def test_empty_intersection_raises(self):
        a = _ranked([("p", "a", 1)])
        b = _ranked([("p", "zzz", 1)])
        with pytest.raises(ValueError, match="overlap"):
            compare_rankings(a, b, top_k=1)


class TestNearestRankPercentile:
    def test_agrees_with_numpy_inverted_cdf(self):
        rng = random.Random(13)
        for _ in range(100):
            values = sorted(rng.randrange(1000) for _ in range(rng.randrange(1, 60)))
            for pct in (10, 25, 50, 75, 90):
                assert nearest_rank_percentile(values, pct) == percentile_nearest_rank(values, pct)

    def test_monotone_in_percentile(self):
        values = sorted(random.Random(4).randrange(100) for _ in range(37))
        pts = [nearest_rank_percentile(values, p) for p in (10, 25, 50, 75, 90)]
        assert pts == sorted(pts)


class TestSynthGenerate:
    def test_deterministic(self):
        a = synth_generate(500, 50, 5, 0.7, seed=21)
        b = synth_generate(500, 50, 5, 0.7, seed=21)
        assert a == b

    def test_seed_changes_stream(self):
        a = synth_generate(500, 50, 5, 0.7, seed=21)
        b = synth_generate(500, 50, 5, 0.7, seed=22)
        assert a != b

    def test_one_row_per_user(self):
        records = synth_generate(300, 30, 3, 0.5, seed=2)
        assert len(records) == 300
        assert len({r.id for r in records}) == 300

    def test_full_strength_plants_disjoint_features(self):
        records = synth_generate(2000, 40, 4, 1.0, seed=5)
        partitions_per_feature = {}
        for r in records:
            partitions_per_feature.setdefault(r.feature, set()).add(r.partition)
        assert all(len(ps) == 1 for ps in partitions_per_feature.values())
        # planted pairs occupy the top ranks
        results = rank_records(records, NO_DP)
        head = results[: len({r.feature for r in records})]
        assert all(r.mi > 0.01 for r in head[:4])

    def test_zero_strength_is_near_independent(self):
        records = synth_generate(20_000, 10, 2, 0.0, seed=9)
        results = rank_records(records, NO_DP)
        assert max(r.mi for r in results) < 5e-3

    def test_rejects_bad_strength(self):
        with pytest.raises(ValueError):
            synth_generate(10, 5, 2, 1.5, seed=0)


class TestEpsilonSweep:
    def test_infinite_epsilon_gives_zero_row(self):
        records = synth_generate(2000, 50, 5, 0.8, seed=3)
        privacy = PrivacyConfig(epsilon=1.0, delta=0.2, seed=3)
        rows = epsilon_sweep(records, privacy, epsilons=(math.inf,), trials=2, top_k=50)
        assert rows[0].percentiles[90] == 0.0
        assert rows[0].dropped == 0.0

    def test_noise_grows_as_epsilon_shrinks(self):
        records = synth_generate(10_000, 500, 10, 0.9, seed=31)
        privacy = PrivacyConfig(epsilon=1.0, delta=0.2, seed=31)
        rows = epsilon_sweep(records, privacy, epsilons=(0.1, 8.0), trials=5, top_k=100)
        assert rows[0].percentiles[50] > rows[1].percentiles[50]

    def test_deterministic_given_seed(self):
        records = synth_generate(2000, 50, 5, 0.8, seed=6)
        privacy = PrivacyConfig(epsilon=1.0, delta=0.2, seed=6)
        a = epsilon_sweep(records, privacy, epsilons=(1.0,), trials=3, top_k=50)
        b = epsilon_sweep(records, privacy, epsilons=(1.0,), trials=3, top_k=50)
        assert a == b

    def test_rejects_nonpositive_epsilon(self):
        with pytest.raises(ValueError):
            epsilon_sweep([], NO_DP, epsilons=(0.0,), trials=1)


class TestSweepMatchesPerCellOracle:
    """The trial-major loop equals one full private run per (epsilon, trial)."""

    EPSILONS = (0.5, math.inf, 2.0, 0.5, 8.0)

    def _privacy(self, other_bucket):
        return PrivacyConfig(epsilon=1.0, delta=0.2, clamp_lo=0.25, clamp_hi=2.0,
                             contribution_limit=2, seed=41, other_bucket=other_bucket)

    def test_records_exercise_bounding_and_clamping(self):
        records = _multi_row_records()
        rows_per_user = {}
        for r in records:
            rows_per_user[r.id] = rows_per_user.get(r.id, 0) + 1
        assert max(rows_per_user.values()) > 2
        assert any(r.observation < 0.25 for r in records)
        assert any(r.observation > 2.0 for r in records)

    @pytest.mark.parametrize("other_bucket", [False, True])
    @pytest.mark.parametrize("threshold", [None, 3.0])
    def test_sweep_equals_oracle(self, other_bucket, threshold):
        records = _multi_row_records()
        privacy = self._privacy(other_bucket)
        kwargs = dict(epsilons=self.EPSILONS, trials=3, top_k=60, threshold_override=threshold)
        rows = epsilon_sweep(records, privacy, **kwargs)
        assert rows == epsilon_sweep_oracle(records, privacy, **kwargs)
        assert [r.epsilon for r in rows] == list(self.EPSILONS)
        assert rows[1].percentiles[90] == 0.0 and rows[1].dropped == 0.0

    @pytest.mark.parametrize("other_bucket", [False, True])
    @pytest.mark.parametrize("threshold", [None, 3.0])
    def test_stability_equals_oracle(self, other_bucket, threshold):
        records = _multi_row_records()
        privacy = self._privacy(other_bucket)
        kwargs = dict(epsilon=2.0, trials=3, top_k=40, buckets=4, threshold_override=threshold)
        rows = head_tail_stability(records, privacy, **kwargs)
        assert all(math.isfinite(r.medae) for r in rows)
        assert rows == head_tail_stability_oracle(records, privacy, **kwargs)


class TestHeadTailStability:
    def test_buckets_cover_top_k(self):
        records = synth_generate(10_000, 500, 10, 0.9, seed=11)
        privacy = PrivacyConfig(epsilon=1.0, delta=0.2, seed=11)
        rows = head_tail_stability(records, privacy, epsilon=2.0, trials=2, top_k=100, buckets=10)
        assert [r.bucket for r in rows] == list(range(1, 11))
        assert all(math.isfinite(r.medae) for r in rows)

    def test_head_more_stable_than_tail(self):
        records = synth_generate(10_000, 500, 10, 0.9, seed=12)
        privacy = PrivacyConfig(epsilon=1.0, delta=0.2, seed=12)
        rows = head_tail_stability(records, privacy, epsilon=1.0, trials=5, top_k=100, buckets=10)
        assert rows[0].medae <= rows[-1].medae

    def test_infinite_epsilon_ranks_with_the_baseline(self):
        records = synth_generate(2000, 50, 5, 0.8, seed=3)
        privacy = PrivacyConfig(epsilon=1.0, delta=0.2, seed=3)
        rows = head_tail_stability(records, privacy, epsilon=math.inf, trials=2, top_k=50, buckets=5)
        assert [(r.bucket, r.medae) for r in rows] == [(b, 0.0) for b in range(1, 6)]

    def test_rejects_zero_trials(self):
        records = synth_generate(2000, 50, 5, 0.8, seed=3)
        privacy = PrivacyConfig(epsilon=1.0, delta=0.2, seed=3)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            head_tail_stability(records, privacy, trials=0, top_k=50, buckets=5)

    def test_rejects_zero_buckets(self):
        records = synth_generate(2000, 50, 5, 0.8, seed=3)
        privacy = PrivacyConfig(epsilon=1.0, delta=0.2, seed=3)
        with pytest.raises(ValueError, match="buckets"):
            head_tail_stability(records, privacy, trials=1, top_k=50, buckets=0)


class TestRuntimeCompare:
    def test_smoke_two_partitions(self):
        records = synth_generate(2000, 30, 2, 0.6, seed=14)
        rt = runtime_compare(records)
        assert rt.partitions == 2
        assert rt.ratio > 0
        assert rt.batched_seconds > 0 and rt.binary_seconds > 0

    def test_paths_agree_on_mi(self):
        records = synth_generate(5000, 60, 4, 0.7, seed=15)
        rt = runtime_compare(records)
        batched = {(r.partition, r.feature): r.mi for r in rt.batched_results}
        for p, results in rt.binary_results.items():
            for r in results:
                if r.partition == p:
                    assert r.mi == pytest.approx(batched[(p, r.feature)], abs=1e-12)

    def test_rejects_single_partition(self):
        records = [Record("u1", "f", "only", 1.0), Record("u2", "g", "only", 1.0)]
        with pytest.raises(ValueError, match="partitions"):
            runtime_compare(records)
