"""Command-line surface: ingestion, outputs, manifests, determinism, errors."""

import json
import math
import os
import subprocess
import sys

import pytest

import dpmi
from dpmi.cli import main, read_aggregate_file, read_records

from oracles import mi_2x2


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


SAMPLE = """id\tfeature\tpartition\tobservation
u1\tf1\tp1\t200.0
u2\tf1\tp2\t100.0
u3\tf2\tp3\t50.0
u3\tf3\tp3\t270.0
"""

TOY = """id\tfeature\tpartition\tobservation
u1\tf1\tp1\t1.0
u2\tf1\tp1\t1.0
u3\tf2\tp1\t1.0
u4\tf1\tp2\t1.0
u5\tf2\tp2\t1.0
u6\tf2\tp2\t1.0
u7\tf3\tp2\t2.0
"""


def _read_manifest(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class TestAggregateCommand:
    def test_exact_sums_with_dp_off(self, tmp_path):
        inp = _write(tmp_path / "in.tsv", SAMPLE)
        out = str(tmp_path / "agg.jsonl")
        rc = main(["aggregate", "--input", inp, "--output", out, "--no-dp"])
        assert rc == 0
        table = read_aggregate_file(out)
        assert table.joint == {
            ("f1", "p1"): 200.0,
            ("f1", "p2"): 100.0,
            ("f2", "p3"): 50.0,
            ("f3", "p3"): 270.0,
        }
        assert table.feature_marginals == {"f1": 300.0, "f2": 50.0, "f3": 270.0}
        assert table.partition_marginals == {"p1": 200.0, "p2": 100.0, "p3": 320.0}
        assert table.total == 620.0
        manifest = _read_manifest(out + ".manifest.jsonl")
        ingest = next(m for m in manifest if m["event"] == "ingest")
        assert ingest["rows_read"] == 4
        summary = next(m for m in manifest if m["event"] == "summary")
        assert summary["epsilon_spent"] == 0.0

    def test_single_user_dimension_censored(self, tmp_path):
        lines = ["id\tfeature\tpartition\tobservation"]
        for i in range(400):
            lines.append(f"u{i}\tcommon\tp{i % 2}\t1.0")
        lines.append("u_solo\trare\tp0\t1.0")
        inp = _write(tmp_path / "in.tsv", "\n".join(lines) + "\n")
        out = str(tmp_path / "agg.jsonl")
        rc = main([
            "aggregate", "--input", inp, "--output", out,
            "--epsilon", "1.0", "--delta", "1e-6", "--seed", "5",
        ])
        assert rc == 0
        table = read_aggregate_file(out)
        assert "rare" not in table.feature_marginals
        manifest = _read_manifest(out + ".manifest.jsonl")
        feature_release = next(
            m for m in manifest if m["event"] == "release" and m["query"] == "feature_marginal"
        )
        assert feature_release["cells_censored"] >= 1
        assert feature_release["threshold"] > 1.0

    def test_rejected_rows_counted(self, tmp_path):
        text = SAMPLE + "u9\tf9\tp9\tnot_a_number\nu10\tf9\tp9\t-1\n"
        inp = _write(tmp_path / "in.tsv", text)
        out = str(tmp_path / "agg.jsonl")
        assert main(["aggregate", "--input", inp, "--output", out, "--no-dp"]) == 0
        ingest = next(
            m for m in _read_manifest(out + ".manifest.jsonl") if m["event"] == "ingest"
        )
        assert ingest["rows_rejected"] == {"negative": 1, "parse": 1}

    def test_missing_column_errors(self, tmp_path, capsys):
        inp = _write(tmp_path / "in.tsv", "id\tstuff\tpartition\tobservation\n")
        rc = main(["aggregate", "--input", inp, "--output", str(tmp_path / "x"), "--no-dp"])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        payload = json.loads(err)
        assert "feature" in payload["message"]

    def test_comma_delimiter_autodetected(self, tmp_path):
        inp = _write(tmp_path / "in.csv", "id,feature,partition,observation\nu1,f1,p1,3.5\nu2,f2,p2,1.0\n")
        out = str(tmp_path / "agg.jsonl")
        assert main(["aggregate", "--input", inp, "--output", out, "--no-dp"]) == 0
        assert read_aggregate_file(out).joint[("f1", "p1")] == 3.5

    def test_column_remapping(self, tmp_path):
        inp = _write(
            tmp_path / "in.tsv",
            "who\twhat\twhere\thowmuch\nu1\tf1\tp1\t2.0\nu2\tf2\tp2\t1.0\n",
        )
        records, rejects, read = read_records(inp, "delimited", ("who", "what", "where", "howmuch"))
        assert read == 2 and not rejects
        assert records[0].feature == "f1"

    def test_reserved_key_rejected(self, tmp_path):
        text = SAMPLE + "u9\t__other__\tp1\t1.0\nu10\tf1\t__other__\t1.0\n"
        inp = _write(tmp_path / "in.tsv", text)
        records, rejects, read = read_records(inp, "delimited", ("id", "feature", "partition", "observation"))
        assert read == 6
        assert rejects == {"reserved": 2}
        assert all("__other__" not in (r.feature, r.partition) for r in records)

    def test_jsonl_input(self, tmp_path):
        rows = [
            {"id": "u1", "feature": "f1", "partition": "p1", "observation": 2.0},
            {"id": "u2", "feature": "f2", "partition": "p2", "observation": 1},
        ]
        inp = _write(tmp_path / "in.jsonl", "\n".join(json.dumps(r) for r in rows) + "\n")
        records, rejects, read = read_records(inp, "jsonl", ("id", "feature", "partition", "observation"))
        assert read == 2 and not rejects
        assert records[0].observation == 2.0

    def test_typed_jsonl_values_rejected(self, tmp_path):
        good = [
            {"id": "u1", "feature": "f1", "partition": "p1", "observation": 2.0},
            {"id": "u2", "feature": "f2", "partition": "p2", "observation": 1},
        ]
        bad = [
            {"id": None, "feature": "f1", "partition": "p1", "observation": 1.0},
            {"id": "u3", "feature": None, "partition": "p1", "observation": 1.0},
            {"id": "u4", "feature": "f1", "partition": True, "observation": 1.0},
            {"id": ["a"], "feature": "f1", "partition": "p1", "observation": 1.0},
            {"id": "u5", "feature": "f1", "partition": "p1", "observation": True},
        ]
        inp = _write(tmp_path / "in.jsonl", "".join(json.dumps(r) + "\n" for r in good + bad))
        records, rejects, read = read_records(inp, "jsonl", ("id", "feature", "partition", "observation"))
        assert read == 7
        assert rejects == {"empty_key": 2, "parse": 3}
        assert [r.id for r in records] == ["u1", "u2"]


class TestRankCommand:
    def _expected_toy_output(self):
        # independent recomputation of the toy ranking from exact sums
        joint = {("f1", "p1"): 2.0, ("f2", "p1"): 1.0, ("f1", "p2"): 1.0,
                 ("f2", "p2"): 2.0, ("f3", "p2"): 2.0}
        feats = {"f1": 3.0, "f2": 3.0, "f3": 2.0}
        parts = {"p1": 3.0, "p2": 5.0}
        total = 8.0
        rows = []
        for (f, p), v in joint.items():
            p_x, p_y, p_xy = feats[f] / total, parts[p] / total, v / total
            mi = mi_2x2(p_x, p_y, p_xy)
            present = (p_xy / p_y) > (p_x - p_xy) / (1 - p_y)
            rows.append((max(0.0, mi), "Presence" if present else "Absence", p, f))
        rows.sort(key=lambda r: (-r[0], r[2], r[3]))
        lines = ["partition\tfeature\tmi\tdirection\trank"]
        for i, (mi, d, p, f) in enumerate(rows):
            lines.append(f"{p}\t{f}\t{format(mi, '.12g')}\t{d}\t{i + 1}")
        return "\n".join(lines) + "\n"

    def test_golden_output_matches_oracle_and_reruns(self, tmp_path):
        inp = _write(tmp_path / "toy.tsv", TOY)
        out1, out2 = str(tmp_path / "r1.tsv"), str(tmp_path / "r2.tsv")
        assert main(["rank", "--input", inp, "--output", out1, "--no-dp"]) == 0
        assert main(["rank", "--input", inp, "--output", out2, "--no-dp", "--threads", "4"]) == 0
        golden = self._expected_toy_output()
        assert open(out1).read() == golden
        assert open(out2).read() == golden

    def test_swap_flag_flips_roles(self, tmp_path):
        inp = _write(tmp_path / "toy.tsv", TOY)
        out = str(tmp_path / "flip.tsv")
        assert main(["flip", "--input", inp, "--output", out, "--no-dp"]) == 0
        lines = open(out).read().splitlines()[1:]
        partitions = {line.split("\t")[0] for line in lines}
        assert partitions == {"f1", "f2", "f3"}

    def test_flip_subcommand_is_rank_swap(self, tmp_path):
        # without noise, flipping the table equals ranking with the feature
        # and partition columns swapped at ingest
        inp = _write(tmp_path / "toy.tsv", TOY)
        a, b = str(tmp_path / "a.tsv"), str(tmp_path / "b.tsv")
        assert main(["rank", "--input", inp, "--output", a, "--no-dp",
                     "--columns", "id,partition,feature,observation"]) == 0
        assert main(["flip", "--input", inp, "--output", b, "--no-dp"]) == 0
        assert open(a).read() == open(b).read()

    def test_dp_flip_transposes_the_released_table(self, tmp_path):
        lines = ["id\tfeature\tpartition\tobservation"]
        lines += [f"u{i}\tf{i % 6}\tp{i % 3}\t1.0" for i in range(600)]
        inp = _write(tmp_path / "big.tsv", "\n".join(lines) + "\n")
        privacy = ["--epsilon", "2.0", "--delta", "1e-3", "--seed", "9"]
        agg, direct, saved = (str(tmp_path / name) for name in ("agg.jsonl", "d.tsv", "s.tsv"))
        assert main(["flip", "--input", inp, "--output", direct, *privacy]) == 0
        assert main(["aggregate", "--input", inp, "--output", agg, *privacy]) == 0
        assert main(["flip", "--aggregate", agg, "--output", saved, *privacy]) == 0
        assert open(direct).read() == open(saved).read()
        assert len(open(direct).read().splitlines()) > 1

    @pytest.mark.parametrize("flag", ["--swap", "--other-bucket", "--tol"])
    def test_removed_flags_are_rejected(self, tmp_path, flag):
        inp = _write(tmp_path / "toy.tsv", TOY)
        with pytest.raises(SystemExit):
            main(["rank", "--input", inp, "--output", str(tmp_path / "r.tsv"), "--no-dp", flag])

    def test_top_k_limits_rows(self, tmp_path):
        inp = _write(tmp_path / "toy.tsv", TOY)
        out = str(tmp_path / "r.tsv")
        assert main(["rank", "--input", inp, "--output", out, "--no-dp", "--top-k", "2"]) == 0
        assert len(open(out).read().splitlines()) == 3  # header + 2 rows

    @pytest.mark.parametrize("top_k", ["0", "-1"])
    def test_top_k_below_one_errors(self, tmp_path, capsys, top_k):
        inp = _write(tmp_path / "toy.tsv", TOY)
        rc = main(["rank", "--input", inp, "--output", str(tmp_path / "r.tsv"), "--no-dp",
                   "--top-k", top_k])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "ValueError" and "top-k" in payload["message"]

    def test_dp_rank_ledger_sums_to_epsilon(self, tmp_path):
        lines = ["id\tfeature\tpartition\tobservation"]
        lines += [f"u{i}\tf{i % 6}\tp{i % 3}\t1.0" for i in range(600)]
        inp = _write(tmp_path / "big.tsv", "\n".join(lines) + "\n")
        for command in ("rank", "flip"):
            out = str(tmp_path / f"{command}.tsv")
            assert main([command, "--input", inp, "--output", out, "--epsilon", "1.3",
                         "--budget-split", "0.6,0.3,0.1", "--delta", "1e-3", "--seed", "9"]) == 0
            (ledger,) = _read_manifest(out + ".manifest.jsonl")
            assert ledger["event"] == "ledger"
            assert ledger["total_epsilon"] == 1.3
            assert [label for label, _ in ledger["charges"]] == [
                "joint", "feature_marginal", "partition_marginal"
            ]
            assert math.fsum(eps for _, eps in ledger["charges"]) == pytest.approx(1.3, abs=1e-9)
            assert ledger["spent_epsilon"] == pytest.approx(1.3, abs=1e-9)

    def test_ledger_empty_without_a_release(self, tmp_path):
        inp = _write(tmp_path / "toy.tsv", TOY)
        agg = str(tmp_path / "agg.jsonl")
        assert main(["aggregate", "--input", inp, "--output", agg, "--no-dp"]) == 0
        runs = {
            "nodp": ["--no-dp"],
            "saved": ["--aggregate", agg, "--seed", "3"],
        }
        for name, extra in runs.items():
            out = str(tmp_path / f"{name}.tsv")
            assert main(["rank", "--input", inp, "--output", out, *extra]) == 0
            assert _read_manifest(out + ".manifest.jsonl") == [
                {"event": "ledger", "total_epsilon": 0.0, "charges": [], "spent_epsilon": 0.0}
            ]

    def test_rank_from_saved_aggregate(self, tmp_path):
        inp = _write(tmp_path / "toy.tsv", TOY)
        agg = str(tmp_path / "agg.jsonl")
        direct = str(tmp_path / "direct.tsv")
        via = str(tmp_path / "via.tsv")
        assert main(["aggregate", "--input", inp, "--output", agg, "--no-dp"]) == 0
        assert main(["rank", "--input", inp, "--output", direct, "--no-dp"]) == 0
        assert main(["rank", "--aggregate", agg, "--output", via, "--no-dp", "--input", inp]) == 0
        assert open(direct).read() == open(via).read()

    def test_jsonl_output(self, tmp_path):
        inp = _write(tmp_path / "toy.tsv", TOY)
        out = str(tmp_path / "r.jsonl")
        assert main(["rank", "--input", inp, "--output", out, "--no-dp",
                     "--output-format", "jsonl"]) == 0
        rows = [json.loads(line) for line in open(out)]
        assert rows[0]["rank"] == 1
        assert set(rows[0]) == {"partition", "feature", "mi", "direction", "rank"}

    def test_tsv_refuses_keys_that_break_rows(self, tmp_path, capsys):
        inp = _write(tmp_path / "in.csv", "id,feature,partition,observation\nu1,f\t1,p1,1.0\nu2,f2,p2,1.0\n")
        tsv = tmp_path / "r.tsv"
        assert main(["rank", "--input", inp, "--output", str(tsv), "--no-dp"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        message = json.loads(err)["message"]
        assert repr("f\t1") in message and "--output-format jsonl" in message
        assert not tsv.exists()
        out = str(tmp_path / "r.jsonl")
        assert main(["rank", "--input", inp, "--output", out, "--no-dp",
                     "--output-format", "jsonl"]) == 0
        assert "f\t1" in {json.loads(line)["feature"] for line in open(out)}

    def test_single_surviving_partition_writes_header_only(self, tmp_path):
        # the lone p1 row is censored from the partition marginal, leaving p0
        lines = ["id\tfeature\tpartition\tobservation"]
        lines += [f"u{i}\tf{i % 5}\tp0\t1.0" for i in range(2000)]
        lines.append("u_solo\tf0\tp1\t1.0")
        inp = _write(tmp_path / "in.tsv", "\n".join(lines) + "\n")
        out = str(tmp_path / "r.tsv")
        assert main(["rank", "--input", inp, "--output", out, "--seed", "3"]) == 0
        assert open(out).read() == "partition\tfeature\tmi\tdirection\trank\n"

    def test_saved_aggregate_needs_no_seed(self, tmp_path):
        inp = _write(tmp_path / "toy.tsv", TOY)
        agg = str(tmp_path / "agg.jsonl")
        assert main(["aggregate", "--input", inp, "--output", agg, "--no-dp"]) == 0
        for command in ("rank", "flip"):
            direct, saved = str(tmp_path / f"{command}.tsv"), str(tmp_path / f"{command}2.tsv")
            assert main([command, "--input", inp, "--output", direct, "--no-dp"]) == 0
            assert main([command, "--aggregate", agg, "--output", saved]) == 0
            assert open(saved).read() == open(direct).read()

    def test_seed_required_with_dp(self, tmp_path, capsys):
        inp = _write(tmp_path / "toy.tsv", TOY)
        rc = main(["rank", "--input", inp, "--output", str(tmp_path / "r.tsv")])
        assert rc == 1
        assert "seed" in json.loads(capsys.readouterr().err)["message"]

    def test_dp_rank_deterministic(self, tmp_path):
        lines = ["id\tfeature\tpartition\tobservation"]
        for i in range(600):
            lines.append(f"u{i}\tf{i % 6}\tp{i % 3}\t1.0")
        inp = _write(tmp_path / "big.tsv", "\n".join(lines) + "\n")
        outs = []
        for i, threads in enumerate((1, 4, 8)):
            out = str(tmp_path / f"r{i}.tsv")
            assert main([
                "rank", "--input", inp, "--output", out, "--epsilon", "2.0",
                "--delta", "1e-3", "--seed", "9", "--threads", str(threads),
            ]) == 0
            outs.append(open(out).read())
        assert outs[0] == outs[1] == outs[2]


class TestFoldCommand:
    def _stage_files(self, tmp_path):
        s1 = ["id\tfeature\tpartition\tobservation"]
        s2 = ["id\tfeature\tpartition\tobservation"]
        for i in range(600):
            uid = f"e{i:03d}"
            if i < 200:
                s1.append(f"{uid}\tseed_kw\tall\t1.0")
                s1.append(f"{uid}\tplant_kw{i % 2}\tall\t1.0")
                s2.append(f"{uid}\torg{i % 2}\tall\t1.0")
            else:
                s1.append(f"{uid}\tbg_kw{i % 17}\tall\t1.0")
                s2.append(f"{uid}\tbgorg{i % 11}\tall\t1.0")
        return (
            _write(tmp_path / "s1.tsv", "\n".join(s1) + "\n"),
            _write(tmp_path / "s2.tsv", "\n".join(s2) + "\n"),
        )

    def test_two_folds_compose_budget(self, tmp_path):
        f1, f2 = self._stage_files(tmp_path)
        base = str(tmp_path / "out")
        rc = main([
            "fold", "--input", f1, "--input", f2, "--output", base,
            "--epsilon", "1.0", "--fold-epsilons", "0.5,0.5",
            "--seeds", "seed_kw", "--delta", "1e-2", "--contribution-limit", "2",
            "--seed", "11",
        ])
        assert rc == 0
        manifest = _read_manifest(base + ".manifest.jsonl")
        summary = next(m for m in manifest if m["event"] == "summary")
        assert summary["epsilon_spent"] == pytest.approx(1.0)
        assert summary["folds"] == 2
        fold_events = [m for m in manifest if m["event"] == "fold"]
        assert [m["epsilon"] for m in fold_events] == [0.5, 0.5]
        for m in fold_events:
            assert open(m["output"]).readline().startswith("partition\t")

    def test_single_fold_matches_rank_on_labels(self, tmp_path):
        f1, _ = self._stage_files(tmp_path)
        base = str(tmp_path / "solo")
        rc = main([
            "fold", "--input", f1, "--output", base, "--epsilon", "1.0",
            "--fold-epsilons", "1.0", "--seeds", "seed_kw", "--no-dp",
        ])
        assert rc == 0
        manifest = _read_manifest(base + ".manifest.jsonl")
        fold_event = next(m for m in manifest if m["event"] == "fold")
        assert fold_event["cohort_size"] == 200
        assert fold_event["rest_size"] == 400

    def test_rejected_rows_counted_per_fold(self, tmp_path):
        f1, f2 = self._stage_files(tmp_path)
        with open(f1, "a", encoding="utf-8") as fh:
            fh.write("e999\tbg_kw1\tall\tnot_a_number\ne998\tbg_kw1\tall\t-1\n")
        base = str(tmp_path / "out")
        assert main(["fold", "--input", f1, "--input", f2, "--output", base,
                     "--seeds", "seed_kw", "--no-dp"]) == 0
        fold_events = [m for m in _read_manifest(base + ".manifest.jsonl") if m["event"] == "fold"]
        assert [m["rows_read"] for m in fold_events] == [802, 600]
        assert [m["rows_rejected"] for m in fold_events] == [{"negative": 1, "parse": 1}, {}]

    def test_fold_top_k_below_one_errors(self, tmp_path, capsys):
        f1, _ = self._stage_files(tmp_path)
        rc = main([
            "fold", "--input", f1, "--output", str(tmp_path / "x"), "--fold-epsilons", "1.0",
            "--seeds", "seed_kw", "--no-dp", "--fold-top-k", "-1",
        ])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ValueError" and "top_k" in payload["message"]

    def test_overflowing_folds_error(self, tmp_path, capsys):
        f1, f2 = self._stage_files(tmp_path)
        rc = main([
            "fold", "--input", f1, "--input", f2, "--output", str(tmp_path / "x"),
            "--epsilon", "1.0", "--fold-epsilons", "0.7,0.7",
            "--seeds", "seed_kw", "--seed", "3",
        ])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "BudgetExceededError"


class TestEvalCommand:
    def test_sweep_files_deterministic(self, tmp_path):
        out1, out2 = str(tmp_path / "e1"), str(tmp_path / "e2")
        argv = [
            "eval", "--synth", "users=2000,features=50,partitions=5,strength=0.9",
            "--epsilons", "0.5,2.0", "--trials", "2", "--top-k", "40",
            "--delta", "0.2", "--seed", "17", "--epsilon", "1.0",
        ]
        assert main(argv + ["--output", out1]) == 0
        assert main(argv + ["--output", out2, "--threads", "4"]) == 0
        for name in ("sweep.tsv", "stability.tsv"):
            a = open(f"{out1}/{name}").read()
            b = open(f"{out2}/{name}").read()
            assert a == b, name
        sweep = open(f"{out1}/sweep.tsv").read().splitlines()
        assert sweep[0] == "epsilon\tp10\tp25\tp50\tp75\tp90\tdropped"
        assert len(sweep) == 3

    def test_six_epsilons_six_rows(self, tmp_path):
        out = str(tmp_path / "e")
        assert main([
            "eval", "--synth", "users=1000,features=40,partitions=4,strength=0.9",
            "--epsilons", "0.1,0.5,1,2,4,8", "--trials", "1", "--top-k", "20",
            "--delta", "0.2", "--seed", "17", "--epsilon", "1.0", "--output", out,
        ]) == 0
        assert len(open(f"{out}/sweep.tsv").read().splitlines()) == 7

    def test_infinite_stability_epsilon(self, tmp_path):
        out = str(tmp_path / "e")
        assert main([
            "eval", "--synth", "users=1000,features=40,partitions=4,strength=0.9",
            "--epsilons", "1", "--trials", "1", "--top-k", "20", "--stability-epsilon", "inf",
            "--delta", "0.2", "--seed", "17", "--epsilon", "1.0", "--output", out,
        ]) == 0
        rows = open(f"{out}/stability.tsv").read().splitlines()[1:]
        assert [row.split("\t")[1] for row in rows] == ["0"] * 10

    def test_zero_budget_share_is_a_config_error(self, tmp_path, capsys):
        code = main([
            "eval", "--synth", "users=1000,features=40,partitions=4,strength=0.9",
            "--epsilons", "1", "--trials", "1", "--budget-split", "1,0,0",
            "--seed", "17", "--epsilon", "1.0", "--output", str(tmp_path / "e"),
        ])
        assert code == 1
        assert "budget_split" in json.loads(capsys.readouterr().err)["message"]

    def test_runtime_mode(self, tmp_path):
        out = str(tmp_path / "rt")
        assert main([
            "eval", "--synth", "users=2000,features=40,partitions=3",
            "--runtime", "--seed", "1", "--output", out, "--no-dp",
        ]) == 0
        lines = open(f"{out}/runtime.tsv").read().splitlines()
        assert lines[0] == "rows\tpartitions\tbatched_s\tbinary_s\tratio"
        fields = lines[1].split("\t")
        assert fields[0] == "2000" and fields[1] == "3"
        assert float(fields[4]) > 0

    def test_partitions_flag_is_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["eval", "--synth", "users=500,features=40", "--partitions", "3", "--runtime",
                  "--no-dp", "--seed", "1", "--output", str(tmp_path / "d")])

    def test_unknown_synth_key_errors(self, tmp_path, capsys):
        rc = main(["eval", "--synth", "users=500,features=40,partition=3", "--runtime",
                   "--no-dp", "--seed", "1", "--output", str(tmp_path / "d")])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "ValueError" and "partition" in payload["message"]
        assert not os.path.exists(tmp_path / "d")


def _run_cli(*argv):
    """Run ``python -m dpmi.cli`` on the dpmi package these tests import."""
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(dpmi.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "dpmi.cli", *argv], capture_output=True, text=True, env=env
    )


class TestProcessLevel:
    def test_console_entry_and_error_stream(self, tmp_path):
        result = _run_cli("rank", "--input", str(tmp_path / "missing.tsv"),
                          "--output", str(tmp_path / "o.tsv"), "--no-dp")
        assert result.returncode == 1
        payload = json.loads(result.stderr.strip())
        assert payload["error"] == "FileNotFoundError"

    def test_exit_zero_on_success(self, tmp_path):
        inp = _write(tmp_path / "toy.tsv", TOY)
        result = _run_cli("rank", "--input", inp, "--output", str(tmp_path / "o.tsv"), "--no-dp")
        assert result.returncode == 0
        assert result.stderr == ""
