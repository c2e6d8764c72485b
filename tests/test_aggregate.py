"""Group-by engine: order invariance, releases, probability tables."""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dpmi.aggregate import accumulate, build_probability_tables, release_aggregate_table
from dpmi.dp import BudgetAccountant, prepare_records
from dpmi.model import AggregateTable, PrivacyConfig, Record


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
        acc = accumulate([Record("u1", "f1", "p1", 0.5)])
        assert acc.joint_sums() == {("f1", "p1"): 0.5}
        assert acc.feature_sums() == {"f1": 0.5}
        assert acc.partition_sums() == {"p1": 0.5}
        assert acc.row_count == 1

    def test_additivity(self):
        acc = accumulate([Record("u1", "f1", "p1", 0.5), Record("u2", "f1", "p1", 0.5)])
        assert acc.joint_sums() == {("f1", "p1"): 1.0}

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
        a, b = accumulate(records), accumulate(shuffled)
        assert a.joint_sums() == b.joint_sums()
        assert a.feature_sums() == b.feature_sums()
        assert a.partition_sums() == b.partition_sums()
        assert a.row_count == b.row_count
        # the marginals, summed over the joint cells, equal the fsum of each
        # marginal's own rows
        for sums, key in ((a.feature_sums(), "feature"), (a.partition_sums(), "partition")):
            keys = {getattr(r, key) for r in records}
            assert sums == {
                k: math.fsum(r.observation for r in records if getattr(r, key) == k) for k in keys
            }


class TestBuildProbabilityTables:
    def test_direct_division(self):
        table = AggregateTable(
            joint={("f", "p"): 2.0},
            feature_marginals={"f": 2.0},
            partition_marginals={"p": 2.0, "q": 2.0},
            total=4.0,
        )
        triples = build_probability_tables(table)
        t = triples[("f", "p")]
        assert (t.p_x, t.p_y, t.p_xy) == (0.5, 0.5, 0.5)

    def test_containment_repair(self):
        # noisy joint exceeds its feature marginal; p_xy pulled just under p_x
        table = AggregateTable(
            joint={("f", "p"): 3.0},
            feature_marginals={"f": 2.5},
            partition_marginals={"p": 6.0, "q": 4.0},
            total=10.0,
        )
        t = build_probability_tables(table)[("f", "p")]
        assert t.p_xy < 0.25
        assert t.p_xy == pytest.approx(0.25, rel=1e-11)

    def test_pair_with_censored_marginal_dropped(self):
        table = AggregateTable(
            joint={("f", "p"): 1.0},
            feature_marginals={"f": 2.0},
            partition_marginals={"p": 3.0, "q": 1.0},
            total=4.0,
        )
        # feature marginal censored after table construction: simulate via dict copy
        stripped = AggregateTable(
            joint={},
            feature_marginals={"g": 2.0},
            partition_marginals={"p": 3.0, "q": 1.0},
            total=4.0,
        )
        assert build_probability_tables(stripped) == {}
        assert ("f", "p") in build_probability_tables(table)

    def test_noiseless_probabilities_are_consistent(self):
        records = _random_records(5_000, seed=11)
        acc = accumulate(records)
        cfg = PrivacyConfig(epsilon=1.0, seed=0, dp_enabled=False)
        table = release_aggregate_table(acc, cfg)
        triples = build_probability_tables(table)
        total_joint = math.fsum(t.p_xy for t in triples.values())
        assert total_joint <= 1.0 + 1e-9
        for t in triples.values():
            assert t.p_xy <= min(t.p_x, t.p_y) + 1e-12


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
        acc = accumulate(records)
        table = release_aggregate_table(acc, self._config(dp_enabled=False))
        assert table.joint == {("f1", "p1"): 1.0, ("f2", "p2"): 2.0}
        assert table.feature_marginals == {"f1": 1.0, "f2": 2.0}
        assert table.total == 3.0
        assert table.epsilon_spent == 0.0

    def test_charges_split_before_release(self):
        records = [Record(f"u{i}", "f1", "p1" if i % 2 else "p2", 1.0) for i in range(400)]
        acc = accumulate(records)
        accountant = BudgetAccountant(2.0)
        table = release_aggregate_table(acc, self._config(), accountant)
        labels = [label for label, _ in accountant.spent]
        assert labels == ["joint", "feature_marginal", "partition_marginal"]
        assert accountant.spent_epsilon == pytest.approx(2.0)
        assert table.epsilon_spent == pytest.approx(2.0)

    def test_released_tables_deterministic_and_noisy(self):
        records = [Record(f"u{i}", f"f{i % 5}", f"p{i % 3}", 1.0) for i in range(3000)]
        acc = accumulate(records)
        t1 = release_aggregate_table(acc, self._config())
        t2 = release_aggregate_table(acc, self._config())
        assert t1.joint == t2.joint
        assert t1.total == t2.total
        exact = acc.joint_sums()
        assert any(t1.joint[k] != exact[k] for k in t1.joint)

    def test_joint_cells_without_surviving_marginal_are_removed(self):
        # one rare feature: its marginal will be censored, the joint cell must go too
        records = [Record(f"u{i}", "common", f"p{i % 2}", 1.0) for i in range(2000)]
        records.append(Record("u_solo", "rare", "p0", 1.0))
        acc = accumulate(records)
        table = release_aggregate_table(acc, self._config(epsilon=1.0, delta=1e-6))
        assert "rare" not in table.feature_marginals
        assert ("rare", "p0") not in table.joint

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
            table = release_aggregate_table(accumulate(prepare_records(records, privacy)), privacy)
            return (
                {("joint", key) for key in table.joint}
                | {("feature", key) for key in table.feature_marginals}
                | {("partition", key) for key in table.partition_marginals}
            )

        new_keys = set()
        for seed in range(400):
            privacy = self._config(epsilon=1.0, delta=1e-6, seed=seed)
            new_keys |= released_keys(base + [newcomer], privacy) - released_keys(base, privacy)
        assert new_keys <= own_cells
        assert not new_keys

    def test_empty_after_censoring_raises(self):
        records = [Record("u1", "f1", "p1", 1.0)]
        acc = accumulate(records)
        with pytest.raises(ValueError, match="total"):
            release_aggregate_table(acc, self._config(epsilon=0.5, delta=1e-9))

    def test_threshold_override_applies_to_all_queries(self):
        records = [Record(f"u{i}", f"f{i % 4}", f"p{i % 2}", 1.0) for i in range(1000)]
        acc = accumulate(records)
        manifest = []
        release_aggregate_table(acc, self._config(), threshold_override=7.5, manifest=manifest)
        assert all(m["threshold"] == 7.5 for m in manifest)

    def test_manifest_entries(self):
        records = [Record(f"u{i}", f"f{i % 4}", f"p{i % 2}", 1.0) for i in range(1000)]
        acc = accumulate(records)
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
            accumulate(records), self._config(epsilon=epsilon, budget_split=split), accountant
        )
        assert accountant.spent_epsilon == table.epsilon_spent
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
        acc = accumulate(records)
        cfg = self._config(epsilon=epsilon, delta=0.1, clamp_hi=20.0)

        def release(config, memo=None):
            try:
                return release_aggregate_table(acc, config, memo=memo)
            except ValueError as exc:
                assert "no partitions survived" in str(exc)
                return None

        table = release(cfg)
        # a memo filled by a release at another epsilon changes nothing
        memo = {}
        release(replace(cfg, epsilon=earlier_epsilon), memo)
        assert release(cfg, memo) == table
        if table is None:
            return
        assert set(table.feature_marginals) <= set(acc.feature_sums())
        assert set(table.partition_marginals) <= set(acc.partition_sums())
        assert set(table.joint) <= set(acc.joint_sums())
