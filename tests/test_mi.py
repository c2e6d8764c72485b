"""MI core: single-cell and 2x2 scores, direction, ranking, flip, cascade."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dpmi.dp import BudgetAccountant, BudgetExceededError
from dpmi.mi import (
    COHORT_LABEL,
    REST_LABEL,
    TOL,
    FoldSpec,
    binary_rank,
    calc_mi,
    calc_single_mi,
    direction,
    flip,
    nfold,
    rank,
    rank_records,
    transpose_tables,
)
from dpmi.model import Direction, PrivacyConfig, ProbabilityTables, Record

import oracles
from oracles import binary_rank_oracle, mi_2x2, random_valid_triple

NO_DP = None


class TestCalcSingleMi:
    def test_zero_joint_is_zero(self):
        assert calc_single_mi(0.5, 0.5, 0.0) == 0.0

    def test_independence_is_zero(self):
        assert calc_single_mi(0.5, 0.5, 0.25) == pytest.approx(0.0, abs=1e-15)

    def test_perfect_overlap(self):
        assert calc_single_mi(0.5, 0.5, 0.5) == pytest.approx(0.5 * math.log(2.0), abs=1e-12)

    def test_tol_floor_on_marginal_product(self):
        # product under TOL is floored, keeping the log finite
        val = calc_single_mi(1e-12, 1e-12, 0.5)
        assert val == pytest.approx(0.5 * math.log(0.5 / 1e-16), abs=1e-9)

    def test_continuous_at_tol_boundary(self):
        below = calc_single_mi(0.5, 0.5, TOL * 0.999)
        at = calc_single_mi(0.5, 0.5, TOL)
        assert below == 0.0
        assert abs(at) < 1e-12


class TestCalcMi:
    def test_perfect_association(self):
        assert calc_mi(0.5, 0.5, 0.5) == pytest.approx(math.log(2.0), abs=1e-12)

    def test_independence(self):
        assert calc_mi(0.3, 0.2, 0.06) == pytest.approx(0.0, abs=1e-12)

    def test_matches_direct_2x2_oracle_on_grid(self):
        rng = random.Random(2024)
        for _ in range(1000):
            p_x, p_y, p_xy = random_valid_triple(rng)
            assert calc_mi(p_x, p_y, p_xy) == pytest.approx(
                mi_2x2(p_x, p_y, p_xy), abs=1e-12
            ), (p_x, p_y, p_xy)

    def test_symmetry_in_arguments(self):
        rng = random.Random(77)
        for _ in range(500):
            p_x, p_y, p_xy = random_valid_triple(rng)
            assert calc_mi(p_x, p_y, p_xy) == pytest.approx(calc_mi(p_y, p_x, p_xy), abs=1e-15)

    def test_nonnegative_for_consistent_triples(self):
        rng = random.Random(99)
        for _ in range(500):
            p_x, p_y, p_xy = random_valid_triple(rng)
            assert calc_mi(p_x, p_y, p_xy) >= -1e-12

    def test_negative_complements_floored(self):
        # inconsistent inputs (possible under noise) still give a finite score
        val = calc_mi(0.9, 0.9, 0.5)
        assert math.isfinite(val)


class TestDirection:
    def test_presence(self):
        assert direction(0.3, 0.2, 0.15).item() is True

    def test_absence(self):
        assert direction(0.3, 0.2, 0.03).item() is False

    def test_tie_resolves_to_absence(self):
        # independence: both odds equal, strict comparison fails
        assert direction(0.5, 0.5, 0.25).item() is False

    def test_degenerate_partition_raises(self):
        with pytest.raises(ValueError, match="p_y"):
            direction(0.5, 1.0, 0.5)


def _bits(values):
    """The float64 bit patterns, which tell -0.0 from 0.0 and any last-bit change."""
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


# Edge triples: p_xy < TOL, p_x * p_y < TOL, p_xy == min(p_x, p_y), p_x == 1,
# complements that are signed zeros or slightly negative, and the TOL boundary.
_EDGE_TRIPLES = [
    (0.5, 0.5, TOL * 0.5),
    (0.5, 0.5, 0.0),
    (1e-9, 1e-9, 1e-9),
    (1e-12, 0.5, 1e-12),
    (0.3, 0.6, 0.3),
    (0.6, 0.3, 0.3),
    (1.0, 0.4, 0.4),
    (1.0, 1.0, 1.0),
    (-0.0, 0.5, 0.0),
    (0.5, -0.0, 0.0),
    (0.3, 0.5, 0.30000000000000004),
    (0.7, 0.6, 0.29999999999999993),
    (0.5, 0.5, TOL),
]
_PROBABILITY = st.one_of(
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([0.0, -0.0, 1.0, TOL, TOL * 0.5, 1e-12, 0.5, 0.1 + 0.2]),
)


class TestArrayMiMatchesScalar:
    """The array MI core equals the scalar reference bit for bit."""

    @settings(deadline=None)
    @given(st.lists(st.tuples(_PROBABILITY, _PROBABILITY, _PROBABILITY), min_size=1, max_size=40))
    @example(_EDGE_TRIPLES)
    def test_calc_mi_bits(self, triples):
        p_x, p_y, p_xy = (np.array(col) for col in zip(*triples))
        assert _bits(calc_mi(p_x, p_y, p_xy)) == _bits([oracles.calc_mi(*t) for t in triples])
        assert _bits(calc_single_mi(p_x, p_y, p_xy)) == _bits(
            [oracles.calc_single_mi(*t) for t in triples]
        )

    @settings(deadline=None)
    @given(st.lists(st.tuples(_PROBABILITY, st.floats(min_value=1e-300, max_value=0.999999),
                              _PROBABILITY), min_size=1, max_size=40))
    @example([t for t in _EDGE_TRIPLES if 0.0 < t[1] < 1.0])
    def test_direction_matches(self, triples):
        p_x, p_y, p_xy = (np.array(col) for col in zip(*triples))
        got = list(map(Direction.of, direction(p_x, p_y, p_xy).tolist()))
        assert got == [oracles.direction(*t) for t in triples]

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 1.5])
    def test_direction_rejects_p_y_outside_the_open_unit_interval(self, bad):
        with pytest.raises(ValueError, match=f"0 < p_y < 1, got {bad}"):
            direction(np.array([0.5, 0.5]), np.array([0.5, bad]), np.array([0.25, 0.25]))
        with pytest.raises(ValueError, match=f"0 < p_y < 1, got {bad}"):
            oracles.direction(0.5, bad, 0.25)


def _tables(triples, n_features=2, n_partitions=2):
    """The ProbabilityTables of a {(feature, partition): (p_x, p_y, p_xy)} map.

    By default each released marginal table holds at least two keys, as a
    p_y below 1 implies, even where the pairs hold fewer: the key lists are
    padded with keys that no pair uses.
    """
    feature_keys = _released_keys([f for f, _ in triples], n_features)
    partition_keys = _released_keys([p for _, p in triples], n_partitions)
    features = [feature_keys.index(f) for f, _ in triples]
    partitions = [partition_keys.index(p) for _, p in triples]
    p_x, p_y, p_xy = (list(col) for col in zip(*triples.values())) if triples else ([], [], [])
    return ProbabilityTables(features, feature_keys, partitions, partition_keys, p_x, p_y, p_xy)


def _released_keys(keys, n):
    """The sorted distinct keys, then unused keys up to n in all; "~" sorts last."""
    distinct = sorted(set(keys))
    return distinct + [f"~unused{i}" for i in range(n - len(distinct))]


class TestRank:
    def test_empty_input(self):
        assert rank(_tables({})) == []

    def test_single_pair_rank_one(self):
        results = rank(_tables({("f", "p"): (0.5, 0.5, 0.4)}))
        assert len(results) == 1
        assert results[0].rank == 1

    def test_one_partition_ranks_empty(self, caplog):
        # one released partition, and one released feature: neither leaves
        # a second key on the side the ranking compares
        one_partition = _tables({("f", "p"): (0.5, 0.5, 0.4), ("g", "p"): (0.5, 0.5, 0.3)},
                                n_partitions=1)
        one_feature = _tables({("f", "p"): (0.5, 0.5, 0.4), ("f", "q"): (0.5, 0.5, 0.1)},
                              n_features=1)
        with caplog.at_level("WARNING", logger="dpmi.mi"):
            assert rank(one_partition) == []
            assert flip(one_feature) == []
        warnings = [rec.message for rec in caplog.records]
        assert warnings == ["fewer than two partitions remain; one-vs-all ranking is empty",
                            "fewer than two features remain; one-vs-all ranking is empty"]

    def test_capped_marginal_ranks_empty(self, caplog):
        # two partitions, but one holds the whole total: no rest to compare with
        tables = _tables({("f", "p"): (0.5, 1.0, 0.4), ("f", "q"): (0.5, 0.5, 0.1)})
        with caplog.at_level("WARNING", logger="dpmi.mi"):
            assert rank(tables) == []
        assert any("holds the whole total" in rec.message for rec in caplog.records)

    def test_order_forced_by_mi(self):
        tables = {
            ("weak", "p"): (0.5, 0.5, 0.26),
            ("strong", "p"): (0.5, 0.5, 0.49),
        }
        results = rank(_tables(tables))
        assert [r.feature for r in results] == ["strong", "weak"]
        assert [r.rank for r in results] == [1, 2]

    def test_tie_break_is_lexicographic(self):
        tables = {
            ("b", "z"): (0.5, 0.5, 0.4),
            ("a", "z"): (0.5, 0.5, 0.4),
            ("a", "y"): (0.5, 0.5, 0.4),
        }
        results = rank(_tables(tables))
        assert [(r.partition, r.feature) for r in results] == [("y", "a"), ("z", "a"), ("z", "b")]

    def test_warns_when_both_sides_huge(self, monkeypatch, caplog):
        import dpmi.mi as mi_module

        monkeypatch.setattr(mi_module, "CARDINALITY_WARNING", 1)
        tables = {
            (f"f{i}", f"p{j}"): (0.4, 0.4, 0.3) for i in range(3) for j in range(3)
        }
        with caplog.at_level("WARNING", logger="dpmi.mi"):
            rank(_tables(tables))
        assert any("degrades" in rec.message for rec in caplog.records)

    def test_ranks_are_permutation(self):
        rng = random.Random(5)
        tables = {}
        for i in range(50):
            p_x, p_y, p_xy = random_valid_triple(rng, lo=0.05, hi=0.6)
            tables[(f"f{i}", f"p{i % 4}")] = (p_x, p_y, p_xy)
        results = rank(_tables(tables))
        assert sorted(r.rank for r in results) == list(range(1, 51))
        assert all(
            results[i].mi >= results[i + 1].mi for i in range(len(results) - 1)
        )


# Few distinct levels, so that pairs often share a triple and tie on MI.
_LEVEL = st.one_of(st.sampled_from([0.125, 0.25, 0.5, 0.75, 1.0]),
                   st.floats(min_value=1e-3, max_value=1.0))
_KEYS = st.text(alphabet="ab~\t\u00e9", min_size=1, max_size=3)


@st.composite
def _probability_tables(draw):
    """Tables over 1-4 features and 1-4 partitions, each pair's p_x its
    feature's and p_y its partition's, and released keys no pair holds."""
    feature_keys = sorted(draw(st.lists(_KEYS, min_size=1, max_size=4, unique=True)))
    partition_keys = sorted(draw(st.lists(_KEYS, min_size=1, max_size=4, unique=True)))
    grid = [(f, p) for f in range(len(feature_keys)) for p in range(len(partition_keys))]
    pairs = draw(st.lists(st.sampled_from(grid), unique=True, max_size=len(grid)))
    p_x = [draw(_LEVEL) for _ in feature_keys]
    p_y = [draw(_LEVEL) for _ in partition_keys]
    return ProbabilityTables(
        [f for f, _ in pairs], feature_keys, [p for _, p in pairs], partition_keys,
        [p_x[f] for f, _ in pairs], [p_y[p] for _, p in pairs], [draw(_LEVEL) for _ in pairs],
    )


class TestRankMatchesPerPairOracle:
    """rank and flip hold the rows the per-pair ranking built, as columns."""

    @settings(deadline=None, max_examples=300)
    @given(_probability_tables())
    @example(_tables({(f, p): (0.5, 0.5, 0.4) for f in ("b", "a") for p in ("z", "y")}))
    @example(_tables({("f", "p"): (0.5, 0.5, 0.4), ("g", "p"): (0.25, 0.5, 0.1)},
                     n_partitions=1))
    @example(_tables({("f", "p"): (0.5, 0.5, 0.4), ("g", "q"): (0.25, 0.5, 0.1),
                      ("g", "p"): (0.25, 0.5, 0.15)}))
    def test_rank_and_flip_rows_and_mi_bits(self, tables):
        # the examples: a four-way MI tie, one partition, two partitions
        for got, want in ((rank(tables), oracles.rank_oracle(tables)),
                          (flip(tables), oracles.rank_oracle(transpose_tables(tables)))):
            assert got == want
            assert got.mi.dtype == np.float64
            assert _bits(got.mi) == _bits([r.mi for r in want])


class TestRankRecords:
    def test_single_surviving_partition_is_empty(self, caplog):
        # the lone p1 row is censored from the partition marginal, leaving p0
        # as the whole total; one-vs-all has nothing to compare it against
        records = [Record(f"u{i}", f"f{i % 5}", "p0", 1.0) for i in range(2000)]
        records.append(Record("u_solo", "f0", "p1", 1.0))
        privacy = PrivacyConfig(epsilon=1.0, delta=1e-6, seed=3)
        with caplog.at_level("WARNING", logger="dpmi.mi"):
            assert rank_records(records, privacy) == []
        assert any("fewer than two partitions" in rec.message for rec in caplog.records)

    @settings(deadline=None)
    @given(st.data())
    def test_nodp_output_identical_under_permutation(self, data):
        records = data.draw(
            st.lists(
                st.builds(
                    Record,
                    st.sampled_from(["u1", "u2", "u3"]),
                    st.sampled_from(["f1", "f2", "f3", "f4"]),
                    st.sampled_from(["p1", "p2", "p3"]),
                    st.floats(min_value=1e-3, max_value=1e6),
                ),
                min_size=1,
                max_size=40,
            )
        )
        shuffled = data.draw(st.permutations(records))
        assert rank_records(shuffled, NO_DP) == rank_records(records, NO_DP)

    @settings(deadline=None)
    @given(st.data())
    def test_dp_output_identical_under_permutation(self, data):
        # drawn users keep one partition each and have 1-6 rows, so bounding
        # to 2 rows drops some; six fixed users per partition put 6.0 in each
        # (f1, p) cell, above every derived threshold (about 4.01 at epsilon
        # 1000 and sensitivity 4), so the ranking is not empty
        users = data.draw(
            st.lists(
                st.lists(
                    st.tuples(st.sampled_from(["f1", "f2", "f3", "f4"]),
                              st.floats(min_value=0.0, max_value=3.0)),
                    min_size=1,
                    max_size=6,
                ),
                min_size=3,
                max_size=12,
            )
        )
        records = [
            Record(f"u{i}", feature, f"p{i % 3}", obs)
            for i, rows in enumerate(users)
            for feature, obs in rows
        ]
        records += [Record(f"b{k}", "f1", f"p{k % 3}", 1.0) for k in range(18)]
        privacy = PrivacyConfig(epsilon=1000.0, delta=0.2, clamp_lo=0.25, clamp_hi=2.0,
                                contribution_limit=2, seed=7)
        expected = rank_records(records, privacy)
        assert expected
        shuffled = data.draw(st.permutations(records))
        assert rank_records(shuffled, privacy) == expected

    @pytest.mark.parametrize("top_k", [0, -1])
    def test_rejects_top_k_below_one(self, top_k):
        records = [Record(f"u{i}", f"f{i % 3}", f"p{i % 2}", 1.0) for i in range(12)]
        with pytest.raises(ValueError, match="top_k"):
            rank_records(records, NO_DP, top_k=top_k)


class TestFlip:
    def test_symmetric_table_flip_equals_original(self):
        tables = {
            ("f1", "p1"): (0.5, 0.5, 0.4),
            ("f2", "p2"): (0.5, 0.5, 0.1),
        }
        original = rank(_tables(tables))
        flipped = flip(_tables(tables))
        assert sorted(r.mi for r in original) == pytest.approx(sorted(r.mi for r in flipped))

    def test_flip_mi_multiset_matches_swapped_records(self):
        rng = random.Random(31)
        for trial in range(10):
            records = [
                Record(f"u{i}", f"f{rng.randrange(6)}", f"p{rng.randrange(3)}", rng.random() * 4)
                for i in range(rng.randrange(30, 80))
            ]
            swapped = [Record(r.id, r.partition, r.feature, r.observation) for r in records]
            direct = rank_records(swapped, NO_DP)
            via_flip = rank_records(records, NO_DP, swap=True)
            assert len(direct) == len(via_flip)
            for a, b in zip(direct, via_flip):
                assert a == b

    def test_one_surviving_feature_flips_empty_whatever_the_noise(self, caplog):
        # f2's three users are censored, so f1 is the only feature left: the
        # transposed p_y is f1's noisy marginal over the partition total,
        # which may or may not reach 1, yet every seed must give no ranking
        records = [Record(f"u{i}", "f1", f"p{i % 3}", 1.0) for i in range(3000)]
        records += [Record(f"v{i}", "f2", "p0", 1.0) for i in range(3)]
        with caplog.at_level("WARNING", logger="dpmi.mi"):
            for seed in range(40):
                privacy = PrivacyConfig(epsilon=1.0, delta=1e-3, seed=seed)
                assert rank_records(records, privacy, swap=True) == []
        warnings = {rec.message for rec in caplog.records}
        assert warnings == {"fewer than two features remain; one-vs-all ranking is empty"}

    def test_transpose_swaps_roles(self):
        tables = _tables({("f", "p"): (0.3, 0.6, 0.2)})
        t = transpose_tables(tables)
        assert (t.feature_keys, t.partition_keys) == (tables.partition_keys, tables.feature_keys)
        assert (t.features.tolist(), t.partitions.tolist()) == (
            tables.partitions.tolist(), tables.features.tolist())
        assert (t.feature_keys[t.features[0]], t.partition_keys[t.partitions[0]]) == ("p", "f")
        assert (t.p_x.tolist(), t.p_y.tolist(), t.p_xy.tolist()) == ([0.6], [0.3], [0.2])

    def test_one_feature_appears_once_per_partition_in_flip(self):
        # a shared tool distinguishing several segments shows up once per segment
        records = []
        uid = 0
        for seg in ("alpha", "beta", "gamma"):
            for _ in range(30):
                records.append(Record(f"u{uid}", "shared_tool", seg, 1.0))
                uid += 1
            for _ in range(10):
                records.append(Record(f"u{uid}", f"{seg}_only", seg, 1.0))
                uid += 1
        flipped = rank_records(records, NO_DP, swap=True)
        tool_rows = [r for r in flipped if r.partition == "shared_tool"]
        assert {r.feature for r in tool_rows} == {"alpha", "beta", "gamma"}


class TestBatchedVsBinary:
    def test_small_equivalence(self):
        rng = random.Random(17)
        records = [
            Record(f"u{i}", f"f{rng.randrange(12)}", f"p{rng.randrange(4)}", 1.0)
            for i in range(2000)
        ]
        batched = rank_records(records, NO_DP)
        batched_mi = {(r.partition, r.feature): r.mi for r in batched}
        partitions = sorted({r.partition for r in records})
        for p in partitions:
            solo = binary_rank(records, p, NO_DP)
            for r in solo:
                if r.partition != p:
                    continue
                assert r.mi == pytest.approx(batched_mi[(p, r.feature)], abs=1e-12)


class TestBinaryRankRelabelsBeforeBounding:
    """binary_rank relabels the partition column before bounding, exactly as
    rebuilding each Record outside the partition and ranking those does."""

    @staticmethod
    def _records():
        # users hold 1-5 rows spread over several partitions, so bounding to
        # 2 rows sees the relabelled partitions in its canonical order
        rng = random.Random(23)
        return [
            Record(f"u{i}", f"f{rng.randrange(6)}", f"p{rng.randrange(4)}", rng.random() * 1.5)
            for i in range(600)
            for _ in range(rng.randrange(1, 6))
        ]

    @pytest.mark.parametrize("seed", [5, 91])
    def test_dp_on_equals_relabelled_records(self, seed):
        records = self._records()
        privacy = PrivacyConfig(epsilon=8.0, delta=1e-2, contribution_limit=2, seed=seed)
        ranked = 0
        for p in sorted({r.partition for r in records}):
            got = binary_rank(records, p, privacy)
            assert got == binary_rank_oracle(records, p, privacy)
            ranked += len(got)
        assert ranked

    def test_dp_off_equals_relabelled_records(self):
        records = self._records()
        for p in sorted({r.partition for r in records}):
            got = binary_rank(records, p, NO_DP)
            assert got and got == binary_rank_oracle(records, p, NO_DP)


def _two_stage_records():
    # stage 1: ids expressing seed or planted features; stage 2: ids grouped by org
    rng = random.Random(404)
    stage1, stage2 = [], []
    for i in range(300):
        uid = f"e{i:03d}"
        iot = i < 100
        if iot:
            stage1.append(Record(uid, "seed_kw", "all", 1.0))
            stage1.append(Record(uid, f"plant_kw{rng.randrange(5)}", "all", 1.0))
            stage2.append(Record(uid, f"org{i % 4}", "all", 1.0))
        else:
            stage1.append(Record(uid, f"bg_kw{rng.randrange(40)}", "all", 1.0))
            stage2.append(Record(uid, f"bgorg{i % 25}", "all", 1.0))
    return stage1, stage2


class TestNfold:
    def test_single_fold_matches_manual_binary_rank(self):
        stage1, _ = _two_stage_records()
        folds = [FoldSpec(records=stage1, epsilon=1.0, top_k=5)]
        result = nfold(folds, ("seed_kw",), NO_DP)[0]
        cohort = {r.id for r in stage1 if r.feature == "seed_kw" and r.observation > 0}
        relabeled = [
            Record(r.id, r.feature, COHORT_LABEL if r.id in cohort else "__rest__", r.observation)
            for r in stage1
        ]
        manual = rank_records(relabeled, NO_DP)
        assert result.results == manual

    def test_budget_composed_across_folds(self):
        stage1, stage2 = _two_stage_records()
        privacy = PrivacyConfig(epsilon=1.0, delta=1e-2, contribution_limit=2, seed=3)
        accountant = BudgetAccountant(1.0)
        folds = [
            FoldSpec(records=stage1, epsilon=0.5, top_k=6),
            FoldSpec(records=stage2, epsilon=0.5, top_k=4),
        ]
        results = nfold(folds, ("seed_kw",), privacy, accountant=accountant)
        assert len(results) == 2
        assert accountant.spent_epsilon == pytest.approx(1.0)

    def test_budget_overflow_fails_before_any_fold(self):
        stage1, stage2 = _two_stage_records()
        privacy = PrivacyConfig(epsilon=1.0, delta=1e-2, contribution_limit=2, seed=3)
        accountant = BudgetAccountant(1.0)
        folds = [
            FoldSpec(records=stage1, epsilon=0.7),
            FoldSpec(records=stage2, epsilon=0.7),
        ]
        with pytest.raises(BudgetExceededError):
            nfold(folds, ("seed_kw",), privacy, accountant=accountant)
        assert accountant.spent_epsilon == 0.0

    @pytest.mark.parametrize("total,stage_epsilons", [
        (4.0, (2.0, 0.0)), (4.0, (2.0, -1.0)), (1.5, (2.0, -0.5)),
    ])
    def test_bad_stage_epsilon_fails_before_any_fold(self, total, stage_epsilons):
        # (2, -0.5) sums to the budget; every stage's config is built first
        stage1, stage2 = _two_stage_records()
        privacy = PrivacyConfig(epsilon=total, delta=1e-2, contribution_limit=2, seed=3)
        accountant = BudgetAccountant(total)
        folds = [
            FoldSpec(records=stage1, epsilon=stage_epsilons[0]),
            FoldSpec(records=stage2, epsilon=stage_epsilons[1]),
        ]
        with pytest.raises(ValueError, match="^fold 2: epsilon"):
            nfold(folds, ("seed_kw",), privacy, accountant=accountant)
        assert accountant.spent == []

    def test_later_stage_releases_under_the_run_seed(self):
        # stage 2 is rank_records on its relabelled records at the run's seed,
        # its noise keyed apart from stage 1's by the "fold2/" label alone
        stage1, stage2 = _two_stage_records()
        privacy = PrivacyConfig(epsilon=4.0, delta=1e-2, contribution_limit=2, seed=3)
        folds = [
            FoldSpec(records=stage1, epsilon=1.5, top_k=6),
            FoldSpec(records=stage2, epsilon=2.5, top_k=4),
        ]
        first, second = nfold(folds, ("seed_kw",), privacy)
        assert first.next_seeds
        seeds = set(first.next_seeds)
        cohort = {r.id for r in stage1 if r.feature in seeds and r.observation > 0}
        relabeled = [
            Record(r.id, r.feature, COHORT_LABEL if r.id in cohort else REST_LABEL, r.observation)
            for r in stage2
        ]
        manual = rank_records(relabeled, replace(privacy, epsilon=2.5), label_prefix="fold2/")
        assert second.results == manual

    @pytest.mark.parametrize("top_k", [0, -1])
    def test_fold_top_k_below_one_rejected(self, top_k):
        stage1, _ = _two_stage_records()
        with pytest.raises(ValueError, match="top_k"):
            FoldSpec(records=stage1, epsilon=1.0, top_k=top_k)

    def test_needs_a_fold(self):
        with pytest.raises(ValueError, match="at least one fold"):
            nfold([], ("seed_kw",), NO_DP)

    def test_first_fold_needs_seeds(self):
        stage1, _ = _two_stage_records()
        with pytest.raises(ValueError, match="seeds"):
            nfold([FoldSpec(records=stage1, epsilon=1.0)], (), NO_DP)

    def test_unmatched_seeds_raise(self):
        stage1, _ = _two_stage_records()
        with pytest.raises(ValueError, match="matched"):
            nfold([FoldSpec(records=stage1, epsilon=1.0)], ("nope",), NO_DP)

    def test_chained_cohort_flows_through_stage_records(self):
        stage1, stage2 = _two_stage_records()
        folds = [
            FoldSpec(records=stage1, epsilon=0.5, top_k=6),
            FoldSpec(records=stage2, epsilon=0.5, top_k=4),
        ]
        results = nfold(folds, ("seed_kw",), NO_DP)
        # planted keywords dominate fold 1, planted orgs dominate fold 2
        assert any(s.startswith("plant_kw") or s == "seed_kw" for s in results[0].next_seeds)
        assert all(s.startswith("org") for s in results[1].next_seeds)
