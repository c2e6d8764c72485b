"""Group-by engine: order invariance, releases, probability tables."""

import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmi import aggregate
from dpmi.aggregate import (
    accumulate,
    build_probability_tables,
    release_aggregate_table,
    table_digest,
)
from dpmi.dp import BudgetAccountant, packed_uniforms, prepare_records
from dpmi.mi import rank_records
from dpmi.model import AggregateTable, Columns, PrivacyConfig, Record

from oracles import (ListAccumulator, accumulator_mappings, records_of, release_oracle,
                     table_digest_oracle, table_mappings)


def _accumulate(records):
    """``accumulate`` over the columns of a Record list."""
    return accumulate(Columns.from_records(records))


def _random_records(n, n_users=500, n_features=40, n_partitions=6, seed=0):
    rng = random.Random(seed)
    return [
        Record(
            f"u{rng.randrange(n_users)}",
            f"f{rng.randrange(n_features)}",
            f"p{rng.randrange(n_partitions)}",
            rng.random() * 10.0,
        )
        for _ in range(n)
    ]


class TestAccumulate:
    def test_singleton(self):
        acc = _accumulate([Record("u1", "f1", "p1", 0.5)])
        assert accumulator_mappings(acc) == (
            {("f1", "p1"): 0.5}, {"f1": 0.5}, {"p1": 0.5}, {("f1", "p1"): 1}
        )
        assert acc.row_count == 1

    def test_additivity(self):
        acc = _accumulate([Record("u1", "f1", "p1", 0.5), Record("u2", "f1", "p1", 0.5)])
        assert accumulator_mappings(acc)[0] == {("f1", "p1"): 1.0}

    @settings(deadline=None)
    @given(st.data())
    def test_sums_bit_identical_under_permutation(self, data):
        # observations spanning many magnitudes make a naive running sum
        # depend on the order it adds them in
        records = data.draw(
            st.lists(
                st.builds(
                    Record,
                    st.sampled_from(["u1", "u2", "u3"]),
                    st.sampled_from(["f1", "f2", "f3"]),
                    st.sampled_from(["p1", "p2"]),
                    st.floats(min_value=0.0, max_value=1e16),
                ),
                max_size=40,
            )
        )
        shuffled = data.draw(st.permutations(records))
        a, b = _accumulate(records), _accumulate(shuffled)
        joint, feature_totals, partition_totals, _ = accumulator_mappings(a)
        assert accumulator_mappings(a) == accumulator_mappings(b)
        assert a.row_count == b.row_count
        # the marginals, summed over the joint cells, equal the fsum of each
        # marginal's own rows
        for sums, key in ((feature_totals, "feature"), (partition_totals, "partition")):
            keys = {getattr(r, key) for r in records}
            assert sums == {
                k: math.fsum(r.observation for r in records if getattr(r, key) == k) for k in keys
            }


    @settings(deadline=None)
    @given(st.data())
    def test_sort_sliced_sums_match_the_per_cell_lists(self, data):
        # "u" and "u\x00" are distinct keys, -0.0 and 0.0 distinct values,
        # and a take or bounding leaves keys in the key lists with no row
        keys = ["u", "u\x00", "v"]
        records = data.draw(
            st.lists(
                st.builds(
                    Record,
                    st.sampled_from(["a", "b", "c", "d"]),
                    st.sampled_from(keys),
                    st.sampled_from(keys),
                    st.one_of(st.just(-0.0), st.just(0.0), st.floats(0.0, 1e16)),
                ),
                max_size=40,
            )
        )
        cols = Columns.from_records(data.draw(st.permutations(records)))
        subset = data.draw(st.lists(st.integers(0, max(0, len(records) - 1)), max_size=20))
        privacy = PrivacyConfig(epsilon=1.0, clamp_lo=-1.0, clamp_hi=1e16, seed=5,
                                contribution_limit=data.draw(st.integers(1, 3)))
        taken = cols.take(np.array(subset if records else [], np.int64))
        for table in (cols, taken, prepare_records(cols, privacy)):
            got, want = accumulate(table), ListAccumulator.of(records_of(table))
            *got_sums, got_rows = accumulator_mappings(got)
            for sums, expected in zip(got_sums, (want.joint_sums(), want.feature_sums(),
                                                 want.partition_sums())):
                assert [(k, v.hex()) for k, v in sums.items()] == [
                    (k, v.hex()) for k, v in expected.items()
                ]
            assert list(got_rows.items()) == list(want.cell_rows().items())
            assert got.row_count == want.row_count == len(table)


class TestBuildProbabilityTables:
    def test_direct_division(self):
        table = AggregateTable.of(
            joint={("f", "p"): 2.0},
            feature_marginals={"f": 2.0},
            partition_marginals={"p": 2.0, "q": 2.0},
        )
        t = build_probability_tables(table)
        assert (t.features.tolist(), t.partitions.tolist()) == ([0], [0])
        assert (t.p_x.tolist(), t.p_y.tolist(), t.p_xy.tolist()) == ([0.5], [0.5], [0.5])
        assert (t.feature_keys, t.partition_keys) == (["f"], ["p", "q"])

    def test_containment_repair(self):
        # noisy joint exceeds its feature marginal; p_xy pulled just under p_x
        table = AggregateTable.of(
            joint={("f", "p"): 3.0},
            feature_marginals={"f": 2.5},
            partition_marginals={"p": 6.0, "q": 4.0},
        )
        (p_xy,) = build_probability_tables(table).p_xy.tolist()
        assert p_xy < 0.25
        assert p_xy == pytest.approx(0.25, rel=1e-11)

    def test_pair_with_censored_marginal_dropped(self):
        table = AggregateTable.of(
            joint={("f", "p"): 1.0},
            feature_marginals={"f": 2.0},
            partition_marginals={"p": 3.0, "q": 1.0},
        )
        # feature marginal censored after table construction: simulate via dict copy
        stripped = AggregateTable.of(
            joint={},
            feature_marginals={"g": 2.0},
            partition_marginals={"p": 3.0, "q": 1.0},
        )
        assert len(build_probability_tables(stripped)) == 0
        kept = build_probability_tables(table)
        pairs = zip(kept.features.tolist(), kept.partitions.tolist())
        assert ("f", "p") in {(kept.feature_keys[f], kept.partition_keys[p]) for f, p in pairs}

    def test_pair_whose_probability_underflows_is_dropped(self):
        # 5e-324 / 3.0 rounds to 0.0, which no probability may be; the pair
        # goes, its keys stay, and a ranking of such rows no longer fails
        table = AggregateTable.of(
            joint={("f", "p"): 5e-324, ("f", "q"): 2.0, ("g", "q"): 1.0},
            feature_marginals={"f": 2.0, "g": 1.0},
            partition_marginals={"p": 5e-324, "q": 3.0},
        )
        t = build_probability_tables(table)
        assert (t.features.tolist(), t.partitions.tolist()) == ([0, 1], [1, 1])
        assert (t.feature_keys, t.partition_keys) == (["f", "g"], ["p", "q"])
        records = [Record("u0", "f", "p", 5e-324), Record("u1", "f", "q", 2.0),
                   Record("u2", "g", "q", 1.0), Record("u3", "g", "p", 1.0)]
        ranked = [(r.partition, r.feature) for r in rank_records(records, None)]
        assert sorted(ranked) == [("p", "g"), ("q", "f"), ("q", "g")]

    def test_noiseless_probabilities_are_consistent(self):
        records = _random_records(5_000, seed=11)
        acc = _accumulate(records)
        table = release_aggregate_table(acc, None)
        t = build_probability_tables(table)
        total_joint = math.fsum(t.p_xy.tolist())
        assert total_joint <= 1.0 + 1e-9
        for p_x, p_y, p_xy in zip(t.p_x.tolist(), t.p_y.tolist(), t.p_xy.tolist()):
            assert p_xy <= min(p_x, p_y) + 1e-12


class TestReleaseAggregateTable:
    def _config(self, **kw):
        defaults = dict(
            epsilon=2.0,
            delta=1e-3,
            clamp_lo=0.0,
            clamp_hi=1.0,
            contribution_limit=1,
            seed=13,
        )
        defaults.update(kw)
        return PrivacyConfig(**defaults)

    def test_noiseless_release_is_exact(self):
        records = [
            Record("u1", "f1", "p1", 1.0),
            Record("u2", "f2", "p2", 2.0),
            Record("u3", "f3", "p1", 0.0),
        ]
        acc = _accumulate(records)
        accountant = BudgetAccountant(1.0)
        table = release_aggregate_table(acc, None, accountant)
        joint, feature_marginals, _ = table_mappings(table)
        assert joint == {("f1", "p1"): 1.0, ("f2", "p2"): 2.0}
        assert feature_marginals == {"f1": 1.0, "f2": 2.0}
        assert table.total == 3.0
        assert accountant.spent == []

    def test_charges_split_before_release(self):
        records = [Record(f"u{i}", "f1", "p1" if i % 2 else "p2", 1.0) for i in range(400)]
        acc = _accumulate(records)
        accountant = BudgetAccountant(2.0)
        release_aggregate_table(acc, self._config(), accountant)
        labels = [label for label, _ in accountant.spent]
        assert labels == ["joint", "feature_marginal", "partition_marginal"]
        assert accountant.spent_epsilon == pytest.approx(2.0)
        assert [eps for _, eps in accountant.spent] == [1.0, 0.5, 0.5]

    def test_released_tables_deterministic_and_noisy(self):
        records = [Record(f"u{i}", f"f{i % 5}", f"p{i % 3}", 1.0) for i in range(3000)]
        acc = _accumulate(records)
        t1 = table_mappings(release_aggregate_table(acc, self._config()))
        t2 = table_mappings(release_aggregate_table(acc, self._config()))
        assert t1 == t2
        exact = accumulator_mappings(acc)[0]
        assert any(value != exact[k] for k, value in t1[0].items())

    def test_joint_cells_without_surviving_marginal_are_removed(self):
        # one rare feature: its marginal will be censored, the joint cell must go too
        records = [Record(f"u{i}", "common", f"p{i % 2}", 1.0) for i in range(2000)]
        records.append(Record("u_solo", "rare", "p0", 1.0))
        acc = _accumulate(records)
        table = release_aggregate_table(acc, self._config(epsilon=1.0, delta=1e-6))
        assert "rare" not in table.feature_keys
        assert ("rare", "p0") not in table_mappings(table)[0]

    def test_one_new_user_adds_no_released_key(self):
        # neighbouring datasets D and D + u, where u alone holds a new feature:
        # a key released for D + u but not for D at the same seed can only be
        # one of u's own cells, and at delta 1e-6 none shows up in 400 seeds
        base = [Record(f"u{i}", f"f{i % 3}", f"p{i % 2}", 1.0) for i in range(3000)]
        newcomer = Record("u_new", "f_new", "p0", 1.0)
        own_cells = {
            ("joint", (newcomer.feature, newcomer.partition)),
            ("feature", newcomer.feature),
            ("partition", newcomer.partition),
        }

        def released_keys(records, privacy):
            prepared = prepare_records(Columns.from_records(records), privacy)
            joint, features, partitions = table_mappings(
                release_aggregate_table(accumulate(prepared), privacy))
            return (
                {("joint", key) for key in joint}
                | {("feature", key) for key in features}
                | {("partition", key) for key in partitions}
            )

        new_keys = set()
        for seed in range(400):
            privacy = self._config(epsilon=1.0, delta=1e-6, seed=seed)
            new_keys |= released_keys(base + [newcomer], privacy) - released_keys(base, privacy)
        assert new_keys <= own_cells
        assert not new_keys

    def test_same_seed_rerun_does_not_reveal_a_new_user(self):
        # D and D + u released at one seed: were the noise keyed by seed,
        # label and cell alone, each of u's released sums would differ by
        # exactly u's 0.7; keying it by the exact table draws fresh noise
        base = [Record(f"u{i}", f"f{i % 5}", f"p{i % 3}", 1.0) for i in range(3000)]
        newcomer = Record("u_new", "f1", "p0", 0.7)
        acc_d, acc_du = _accumulate(base), _accumulate(base + [newcomer])
        exact_differences = 0
        for seed in range(50):
            privacy = self._config(epsilon=1.0, seed=seed)
            d = table_mappings(release_aggregate_table(acc_d, privacy))
            du = table_mappings(release_aggregate_table(acc_du, privacy))
            differences = (
                du[0][("f1", "p0")] - d[0][("f1", "p0")],
                du[1]["f1"] - d[1]["f1"],
                du[2]["p0"] - d[2]["p0"],
            )
            exact_differences += sum(abs(x - 0.7) <= 1e-9 for x in differences)
        assert exact_differences == 0

    def test_one_table_draws_its_uniforms_once(self, monkeypatch):
        # six releases of one accumulator at one seed draw the three queries'
        # uniforms once; a neighbouring table's accumulator draws its own
        calls = []

        def counted(*args):
            calls.append(args[1])
            return packed_uniforms(*args)

        monkeypatch.setattr(aggregate, "packed_uniforms", counted)
        base = [Record(f"u{i}", f"f{i % 5}", f"p{i % 3}", 1.0) for i in range(3000)]
        acc = _accumulate(base)
        for epsilon in (0.1, 0.5, 1.0, 2.0, 4.0, 8.0):
            release_aggregate_table(acc, self._config(epsilon=epsilon))
        assert len(calls) == 3
        release_aggregate_table(_accumulate(base + [Record("u_new", "f1", "p0", 0.7)]),
                                self._config(epsilon=1.0))
        assert len(calls) == 6
        assert {digest for digest, _ in calls[:3]}.isdisjoint(digest for digest, _ in calls[3:])

    def test_digest_tracks_every_cell_count_and_sum(self):
        def digest(records):
            acc = _accumulate(records)
            return table_digest(acc)

        base = [Record(f"u{i}", f"f{i % 2}", "p0", 1.0) for i in range(4)]
        assert digest(list(reversed(base))) == digest(base)
        for extra in (Record("u9", "f0", "p0", 0.0), Record("u9", "f0", "p0", 0.5),
                      Record("u9", "f2", "p0", 1.0)):
            assert digest(base + [extra]) != digest(base)

    def test_empty_after_censoring_raises(self):
        records = [Record("u1", "f1", "p1", 1.0)]
        acc = _accumulate(records)
        with pytest.raises(ValueError, match="total"):
            release_aggregate_table(acc, self._config(epsilon=0.5, delta=1e-9))

    def test_manifest_entries(self):
        records = [Record(f"u{i}", f"f{i % 4}", f"p{i % 2}", 1.0) for i in range(1000)]
        acc = _accumulate(records)
        manifest = []
        release_aggregate_table(acc, self._config(), manifest=manifest)
        assert [m["query"] for m in manifest] == ["joint", "feature_marginal", "partition_marginal"]
        for entry in manifest:
            assert entry["epsilon"] > 0
            assert entry["threshold"] > 0
            assert entry["cells_exact"] >= entry["cells_released"]

    @settings(deadline=None)
    @given(
        epsilon=st.floats(min_value=1e-3, max_value=1e3),
        weights=st.tuples(*[st.floats(min_value=1e-3, max_value=1.0)] * 3),
    )
    def test_ledger_total_equals_epsilon_spent(self, epsilon, weights):
        split = tuple(w / math.fsum(weights) for w in weights)
        # sums far above any threshold or noise these budgets give, so every
        # cell survives and the table is always released
        records = [Record(f"u{i}", f"f{i % 3}", f"p{i % 2}", 1e9) for i in range(12)]
        accountant = BudgetAccountant(epsilon)
        table = release_aggregate_table(
            _accumulate(records), self._config(epsilon=epsilon, budget_split=split), accountant
        )
        shares = [w * epsilon for w in split]
        assert accountant.spent_epsilon == math.fsum(shares)
        assert [eps for _, eps in accountant.spent] == shares
        assert len(table.joint) == 6
        assert [label for label, _ in accountant.spent] == [
            "joint", "feature_marginal", "partition_marginal"
        ]

    @settings(deadline=None)
    @given(
        records=st.lists(
            st.builds(
                Record,
                st.sampled_from([f"u{i}" for i in range(8)]),
                st.sampled_from(["f1", "f2", "f3", "f4"]),
                st.sampled_from(["p1", "p2", "p3"]),
                st.floats(min_value=0.0, max_value=20.0),
            ),
            min_size=1,
            max_size=60,
        ),
        epsilon=st.floats(min_value=0.05, max_value=20.0),
        earlier_epsilon=st.floats(min_value=0.05, max_value=20.0),
    )
    def test_released_keys_come_from_the_exact_keys(self, records, epsilon, earlier_epsilon):
        acc = _accumulate(records)
        cfg = self._config(epsilon=epsilon, delta=0.1, clamp_hi=20.0)

        def release(source, config):
            try:
                return table_mappings(release_aggregate_table(source, config))
            except ValueError as exc:
                assert "no partitions survived" in str(exc)
                return None

        table = release(_accumulate(records), cfg)
        # a release at another epsilon first changes nothing
        release(acc, replace(cfg, epsilon=earlier_epsilon))
        assert release(acc, cfg) == table
        if table is None:
            return
        joint, features, partitions, _ = accumulator_mappings(acc)
        assert set(table[1]) <= set(features)
        assert set(table[2]) <= set(partitions)
        assert set(table[0]) <= set(joint)


def _release_matches_oracle(acc, sums, configs, label_prefix=""):
    """Release the accumulator under each config in turn and check each table
    against the dict oracle's release of ``sums``, the same table's exact
    (joint, cell rows, feature, partition) dicts: the same keys, the same
    bits of each value, and probability tables keyed by exactly the released
    marginals. Returns the joint cells that a censored marginal removed, over
    all configs."""
    removed = set()
    for privacy in configs:
        joint, features, partitions, dropped = release_oracle(*sums, privacy, label_prefix)
        removed |= dropped
        try:
            table = release_aggregate_table(acc, privacy, label_prefix=label_prefix)
        except ValueError as exc:
            assert "no partitions survived" in str(exc)
            assert not partitions
            continue
        for got, want in zip(table_mappings(table), (joint, features, partitions)):
            assert [(k, v.hex()) for k, v in got.items()] == [
                (k, v.hex()) for k, v in want.items()
            ]
        tables = build_probability_tables(table)
        assert tables.feature_keys == list(features)
        assert tables.partition_keys == list(partitions)
    return removed


def _accumulated(cols):
    """The accumulator of ``cols`` and the oracle group-by's sums of the same rows."""
    return accumulate(cols), ListAccumulator.of(records_of(cols)).sums()


def _columns_with_unused_keys(records):
    """The columns of ``records``, whose key lists also hold a feature and a
    partition that no row uses, sorted among the used ones."""
    ghost = Record("ghost", "f0_", "p0_", 1.0)
    return Columns.from_records([*records, ghost]).take(np.arange(len(records)))


class TestReleaseMatchesDictOracle:
    """The coded release equals the per-key dict release it replaced, bit for bit."""

    @settings(deadline=None, max_examples=150)
    @given(
        records=st.lists(
            st.builds(
                Record,
                st.sampled_from([f"u{i}" for i in range(6)]),
                st.sampled_from(["f0", "f1", "f2", "u", "u\x00", "é"]),
                st.sampled_from(["p0", "p1", "p2"]),
                st.one_of(st.just(0.0), st.just(-0.0), st.floats(0.0, 20.0)),
            ),
            max_size=50,
        ),
        epsilons=st.lists(st.floats(0.05, 50.0), min_size=1, max_size=4),
        weights=st.tuples(*[st.floats(0.01, 1.0)] * 3),
        delta=st.sampled_from([1e-3, 0.1, 0.5]),
        seed=st.integers(-(2**63), 2**63 - 1),
        label_prefix=st.sampled_from(["", "fold1/"]),
    )
    def test_random_tables(self, records, epsilons, weights, delta, seed, label_prefix):
        split = tuple(w / math.fsum(weights) for w in weights)
        configs = [None, *(PrivacyConfig(epsilon=e, delta=delta, budget_split=split, seed=seed)
                           for e in epsilons)]
        _release_matches_oracle(*_accumulated(_columns_with_unused_keys(records)), configs,
                                label_prefix)

    def test_censored_marginal_removes_joint_cells(self):
        # "rare"'s joint cells clear the joint threshold, but its marginal,
        # released on a hundredth of the budget, rarely clears its own; a
        # -0.0 and a 0.0 cell are released too, and f0_ and p0_ have no rows
        records = [Record(f"u{i}", f"f{i % 3}", f"p{i % 2}", 1.0) for i in range(600)]
        records += [Record("r1", "rare", "p0", 15.0), Record("r2", "rare", "p1", 15.0),
                    Record("z1", "zero", "p0", -0.0), Record("z2", "zero", "p1", 0.0)]
        cols = _columns_with_unused_keys(records)
        assert {"f0_", "p0_"} <= {*cols.feature_keys, *cols.partition_keys}
        acc, sums = _accumulated(cols)
        removed = set()
        for seed in range(20):
            configs = [None, *(PrivacyConfig(epsilon=e, delta=0.1, seed=seed,
                                             budget_split=(0.98, 0.01, 0.01))
                               for e in (0.5, 1.0, 2.0))]
            removed |= _release_matches_oracle(acc, sums, configs)
        assert {("rare", "p0"), ("rare", "p1")} <= removed

    def test_signed_zero_sums(self):
        # fsum turns rows of -0.0 into a +0.0 sum, so a -0.0 exact sum is
        # built by hand: its bits key the digest, and the no-DP release drops
        # it as it drops 0.0
        joint = {("a", "p"): -0.0, ("a", "q"): 0.0, ("b", "p"): 30.0, ("b", "q"): 25.0}
        rows = dict.fromkeys(joint, 1)
        features, partitions = {"a": -0.0, "b": 55.0}, {"p": 30.0, "q": 25.0}

        def accumulator(sums):
            return aggregate.Accumulator(
                np.arange(4), np.array(list(sums.values())), np.ones(4, np.int64),
                np.arange(2), np.array(list(features.values())),
                np.arange(2), np.array(list(partitions.values())), ["a", "b"], ["p", "q"], 4)

        acc = accumulator(joint)
        assert table_digest(acc) == table_digest_oracle(joint, rows)
        assert table_digest(acc) != table_digest(accumulator({**joint, ("a", "p"): 0.0}))
        configs = [None, *(PrivacyConfig(epsilon=e, delta=0.1, seed=seed)
                           for seed in range(5) for e in (0.5, 4.0))]
        _release_matches_oracle(acc, (joint, rows, features, partitions), configs)
