"""Command-line surface: ingestion, outputs, manifests, determinism, errors."""

import argparse
import json
import logging
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import dpmi
from dpmi import cli
from dpmi.cli import build_parser, main, read_aggregate_file, read_records

from oracles import mi_2x2, read_records_oracle, records_of, table_mappings


def _read_rows(path, columns):
    """``read_records`` with its columns turned back into Records."""
    cols, rejects, read = read_records(path, columns)
    return records_of(cols), rejects, read


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
        assert table_mappings(table) == (
            {("f1", "p1"): 200.0, ("f1", "p2"): 100.0, ("f2", "p3"): 50.0, ("f3", "p3"): 270.0},
            {"f1": 300.0, "f2": 50.0, "f3": 270.0},
            {"p1": 200.0, "p2": 100.0, "p3": 320.0},
        )
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
        assert "rare" not in table.feature_keys
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
        assert table_mappings(read_aggregate_file(out))[0][("f1", "p1")] == 3.5

    def test_column_remapping(self, tmp_path):
        inp = _write(
            tmp_path / "in.tsv",
            "who\twhat\twhere\thowmuch\nu1\tf1\tp1\t2.0\nu2\tf2\tp2\t1.0\n",
        )
        records, rejects, read = _read_rows(inp, ("who", "what", "where", "howmuch"))
        assert read == 2 and not rejects
        assert records[0].feature == "f1"

    def test_reserved_key_rejected(self, tmp_path):
        text = SAMPLE + "u9\t__other__\tp1\t1.0\nu10\tf1\t__other__\t1.0\n"
        inp = _write(tmp_path / "in.tsv", text)
        records, rejects, read = _read_rows(inp, ("id", "feature", "partition", "observation"))
        assert read == 6
        assert rejects == {"reserved": 2}
        assert all("__other__" not in (r.feature, r.partition) for r in records)

    def test_jsonl_input(self, tmp_path):
        rows = [
            {"id": "u1", "feature": "f1", "partition": "p1", "observation": 2.0},
            {"id": "u2", "feature": "f2", "partition": "p2", "observation": 1},
        ]
        inp = _write(tmp_path / "in.jsonl", "\n".join(json.dumps(r) for r in rows) + "\n")
        records, rejects, read = _read_rows(inp, ("id", "feature", "partition", "observation"))
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
        records, rejects, read = _read_rows(inp, ("id", "feature", "partition", "observation"))
        assert read == 7
        assert rejects == {"empty_key": 2, "parse": 3}
        assert [r.id for r in records] == ["u1", "u2"]

    def test_jsonl_input_detected_without_a_flag(self, tmp_path):
        # a JSON-lines copy of TOY ranks as TOY does; a malformed first line
        # still marks the file as JSON lines and is rejected as "parse"
        header, *rows = TOY.splitlines()
        names = header.split("\t")
        objs = [dict(zip(names, row.split("\t"))) for row in rows]
        text = "".join(json.dumps(o) + "\n" for o in objs)
        tsv, jl = _write(tmp_path / "toy.tsv", TOY), _write(tmp_path / "toy.jsonl", "\n" + text)
        broken = _write(tmp_path / "broken.jsonl", '{"id": \n' + text)
        outs = [str(tmp_path / f"{name}.tsv") for name in ("tsv", "jl", "broken")]
        for inp, out in zip((tsv, jl, broken), outs):
            assert main(["rank", "--input", inp, "--output", out, "--no-dp"]) == 0
        assert open(outs[0]).read() == open(outs[1]).read() == open(outs[2]).read()
        _, rejects, read = read_records(broken, ("id", "feature", "partition", "observation"))
        assert read == 8 and rejects == {"parse": 1}

    def test_jsonl_first_line_indented_is_detected(self, tmp_path):
        # JSON allows whitespace before the first "{", so an indented first
        # line still marks the file as JSON lines
        header, *rows = TOY.splitlines()
        names = header.split("\t")
        lines = [json.dumps(dict(zip(names, row.split("\t")))) for row in rows]
        tsv = _write(tmp_path / "toy.tsv", TOY)
        indented = _write(tmp_path / "indented.jsonl", "\n \t" + "\n".join(lines) + "\n")
        outs = [str(tmp_path / f"{name}.tsv") for name in ("tsv", "indented")]
        for inp, out in zip((tsv, indented), outs):
            assert main(["rank", "--input", inp, "--output", out, "--no-dp"]) == 0
        assert open(outs[0]).read() == open(outs[1]).read()

    def test_leading_byte_order_mark_is_skipped(self, tmp_path):
        columns = ("id", "feature", "partition", "observation")
        tsv = _write(tmp_path / "bom.tsv", "\ufeff" + TOY)
        jl = _write(tmp_path / "bom.jsonl", "\ufeff" + "".join(
            json.dumps(dict(zip(columns, ("u1", "f1", "p1", 1.0)))) + "\n" for _ in range(2)))
        for inp in (tsv, jl):
            records, rejects, read = _read_rows(inp, columns)
            assert not rejects and read == len(records) and records[0].id == "u1"

    def test_blank_lines_before_the_header_are_skipped(self, tmp_path):
        # format detection skips them, so the header is the first non-blank line
        columns = ("id", "feature", "partition", "observation")
        padded = _write(tmp_path / "padded.tsv", "\n\r\n \n" + TOY)
        assert _read_rows(padded, columns) == _read_rows(_write(tmp_path / "toy.tsv", TOY), columns)

    def test_header_naming_a_mapped_column_twice_errors(self, tmp_path, capsys):
        inp = _write(tmp_path / "in.tsv", "id\tfeature\tfeature\tpartition\tobservation\n"
                     "u1\tf1\tf2\tp1\t1.0\n")
        assert main(["aggregate", "--input", inp, "--output", str(tmp_path / "x"), "--no-dp"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "ValueError", "message": (
            f"{inp}: column 'feature' named more than once in header "
            "['id', 'feature', 'feature', 'partition', 'observation']")}

    def test_no_valid_rows_names_the_rejections(self, tmp_path, capsys):
        inp = _write(tmp_path / "in.tsv", "id\tfeature\tpartition\tobservation\nu1\tf1\tp1\t-1\n"
                     "u2\tf1\tp1\tx\nu3\tf1\tp1\t-2\n")
        assert main(["rank", "--input", inp, "--output", str(tmp_path / "r.tsv"), "--no-dp"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["message"] == (
            f"{inp}: no valid rows (3 read, rejected by reason {{'negative': 2, 'parse': 1}})"
        )

    def test_jsonl_row_without_a_mapped_field_is_rejected(self, tmp_path):
        rows = [
            {"id": "u1", "feature": "f1", "partition": "p1", "observation": 2.0},
            {"id": "u2", "feature": "f2", "partition": "p2"},
            ["u3", "f1", "p1", 1.0],
        ]
        inp = _write(tmp_path / "in.jsonl", "".join(json.dumps(r) + "\n" for r in rows))
        records, rejects, read = _read_rows(inp, ("id", "feature", "partition", "observation"))
        assert read == 3
        assert rejects == {"fields": 2}
        assert [r.id for r in records] == ["u1"]


# Keys mix the reserved and empty keys, a trailing NUL, non-ASCII text, a BOM
# and the characters str.splitlines breaks on; a tab, comma or CR in a key
# makes its row ragged or splits it in two.
KEYS = st.sampled_from(["", "__other__", "u", "u\x00", "f1", "p1"]) | st.text(
    st.sampled_from(list("ufp\x00\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029\ufeff\u00e9\u65e5 ,\t\r")),
    max_size=4)
NUMBERS = st.sampled_from(["0", "1", "0.5", "-0.0", "-1", "nan", "inf", "-inf", "1e400", "1_0",
                           " 2 ", "\u0661", "n/a", ""]) | st.floats().map(repr)


@st.composite
def delimited_texts(draw):
    """A delimited file's text: reordered and extra header columns, ragged and blank
    lines, LF, CRLF and bare CR endings, a BOM, a missing final newline."""
    delim = draw(st.sampled_from(["\t", ","]))
    extra = draw(st.lists(st.sampled_from(["x", "y"]), unique=True, max_size=2))
    header = draw(st.permutations(["id", "feature", "partition", "observation", *extra]))
    lines = [header]
    for _ in range(draw(st.integers(0, 25))):
        width = max(0, len(header) + draw(st.sampled_from([0, 0, 0, 0, 1, -1, -3])))
        names = (header + ["x"])[:width]
        lines.append([draw(NUMBERS if name == "observation" else KEYS) for name in names])
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    text = draw(st.sampled_from(["", "\ufeff"])) + draw(st.sampled_from(["", "\n", " \r\n\n"]))
    text += "".join(delim.join(fields) + draw(ends) for fields in lines)
    return text[:-1] if draw(st.booleans()) and text.endswith("\n") else text


# JSON key values: strings, and the typed values that are taken as their
# str() or refused
JSON_KEYS = st.one_of(KEYS, KEYS, st.integers(-3, 3), st.sampled_from(
    [1.5, -0.0, math.nan, math.inf, None, True, False, [], ["u"], {}, {"u": 1}]))
# JSON observation texts: numbers, strings, null, booleans, arrays, objects, and
# integers past the float range and past int's digit limit
JSON_OBSERVATIONS = st.one_of(
    st.sampled_from(["0", "1", "0.5", "-0.0", '"2"']),
    st.sampled_from(["-1", "1e400", "NaN", "-Infinity", "null", "true", "false", "[1]", "{}",
                     "1" + "0" * 400, "-1" + "0" * 400, "1" + "0" * 4300]),
    st.floats().map(json.dumps), NUMBERS.map(json.dumps))
# lines that are not an object holding the mapped fields, or are not JSON
JSON_OTHER_LINES = st.sampled_from(
    ['["u", "f", "p", 1]', '"u"', "5", "null", '{"id": ', "{", "}", " ", "\x0c", "{} {}"])


@st.composite
def jsonl_texts(draw):
    """A JSON-lines file's text: typed keys, string, null and huge-integer
    observations, missing, extra and reordered fields, non-object, malformed
    and blank lines, LF, CRLF and bare CR endings, a BOM, a missing final
    newline. The first non-blank line starts with "{", so the file is JSON lines."""
    ensure_ascii = draw(st.booleans())
    lines = []
    for i in range(draw(st.integers(1, 25))):
        kind = draw(st.sampled_from(["row"] * 6 + ["other", "blank"]))
        if kind == "row" or i == 0:
            names = ["id", "feature", "partition", "observation", "x"]
            del names[draw(st.sampled_from([4] * 6 + [0, 1, 2, 3, -1]))]
            values = {name: draw(JSON_OBSERVATIONS) if name == "observation"
                      else json.dumps(draw(JSON_KEYS), ensure_ascii=ensure_ascii)
                      for name in draw(st.permutations(names))}
            lines.append("{" + ", ".join(f'"{k}": {v}' for k, v in values.items()) + "}")
        else:
            lines.append(draw(JSON_OTHER_LINES) if kind == "other" else "")
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    text = draw(st.sampled_from(["", "\ufeff"])) + draw(st.sampled_from(["", "\n", " \r\n\n"]))
    text += "".join(line + draw(ends) for line in lines)
    return text[:-1] if draw(st.booleans()) and text.endswith("\n") else text


class TestBlockReader:
    COLUMNS = ("id", "feature", "partition", "observation")

    def _check(self, tmp_path, monkeypatch, text, block):
        path = tmp_path / "in.txt"
        path.write_bytes(text.encode("utf-8"))
        monkeypatch.setattr(cli, "_BLOCK_CHARS", block)  # lines straddle reads
        cols, rejects, read = read_records(str(path), self.COLUMNS)
        want, want_rejects, want_read = read_records_oracle(str(path), self.COLUMNS)
        for keys in ("id_keys", "feature_keys", "partition_keys"):
            assert getattr(cols, keys) == getattr(want, keys)
        for codes in ("ids", "features", "partitions"):
            assert getattr(cols, codes).dtype == np.int64
            assert np.array_equal(getattr(cols, codes), getattr(want, codes))
        assert cols.observations.dtype == np.float64
        assert cols.observations.tobytes() == want.observations.tobytes()  # -0.0 stays
        assert rejects == want_rejects and read == want_read

    @settings(deadline=None, max_examples=300,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=delimited_texts(), block=st.integers(1, 40))
    @example(text="id\tfeature\tpartition\tobservation\r\n" + "u" * 90 + "\tf\tp\t-0.0\r\n"
             "u\tf\tp\t1\t\n\nu\tf\n\tf\tp\t1\n", block=8)
    def test_block_reader_matches_the_per_line_oracle(self, tmp_path, monkeypatch, text, block):
        self._check(tmp_path, monkeypatch, text, block)

    @settings(deadline=None, max_examples=300,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=jsonl_texts(), block=st.integers(1, 40))
    @example(text='\ufeff{"id": 7, "feature": "f", "partition": 1.5, "observation": null}\r\n'
             '{"id": "u", "feature": "f", "partition": "p", "observation": 1' + "0" * 400 + "}\n"
             '{"id": "u", "feature": "f", "partition": "p", "observation": "-0.0"}', block=8)
    def test_jsonl_block_reader_matches_the_per_line_oracle(self, tmp_path, monkeypatch, text,
                                                            block):
        self._check(tmp_path, monkeypatch, text, block)


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

    @pytest.mark.parametrize(
        "flag", ["--swap", "--other-bucket", "--tol", "--threshold=3", "--format=jsonl"]
    )
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

    @pytest.mark.parametrize("flags,field", [
        (["--clamp", "0,inf"], "clamp bounds"),
        (["--clamp=-inf,1"], "clamp bounds"),
        (["--epsilon", "inf"], "epsilon"),
    ])
    def test_infinite_privacy_setting_names_the_field(self, tmp_path, capsys, flags, field):
        inp = _write(tmp_path / "toy.tsv", TOY)
        rc = main(["rank", "--input", inp, "--output", str(tmp_path / "r.tsv"), "--seed", "1",
                   *flags])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ValueError"
        assert payload["message"].startswith(f"{field} must be finite")

    def test_overflowing_sensitivity_is_a_one_line_error(self, tmp_path, capsys):
        # finite clamp bounds times the limit overflow the noise scale to inf
        inp = _write(tmp_path / "three.tsv", "id\tfeature\tpartition\tobservation\n"
                     "u1\tf1\tp1\t1.0\nu2\tf1\tp2\t1.0\nu3\tf2\tp1\t1.0\n")
        rc = main(["rank", "--input", inp, "--output", str(tmp_path / "r.tsv"), "--seed", "1",
                   "--clamp", "0,1e308", "--contribution-limit", "10"])
        assert rc == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "ValueError"
        assert payload["message"] == (
            "sensitivity overflows: clamp (0.0, 1e+308) times contribution_limit 10 is not finite"
        )

    def test_oversized_json_numbers_are_rejected_rows(self, tmp_path, caplog):
        rows = [json.dumps({"id": f"u{i}", "feature": f"f{i % 3}", "partition": f"p{i % 2}",
                            "observation": 1.0}) for i in range(8)]
        big = '{"id": "u9", "feature": "f1", "partition": "p1", "observation": %s}'
        rows += [big % ("9" * 401), big % ("9" * 5001)]
        inp = _write(tmp_path / "in.jsonl", "\n".join(rows) + "\n")
        caplog.set_level(logging.INFO, logger="dpmi.cli")
        assert main(["rank", "--input", inp, "--output", str(tmp_path / "r.tsv"), "--no-dp"]) == 0
        assert "rejected by reason: {'non_finite': 1, 'parse': 1}" in caplog.text

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

    def test_saved_aggregate_reads_no_privacy_flag(self, tmp_path):
        # ranking a saved table releases nothing, so no privacy flag is checked
        inp = _write(tmp_path / "toy.tsv", TOY)
        agg = str(tmp_path / "agg.jsonl")
        assert main(["aggregate", "--input", inp, "--output", agg, "--no-dp"]) == 0
        for command in ("rank", "flip"):
            plain, flagged = str(tmp_path / f"{command}.tsv"), str(tmp_path / f"{command}2.tsv")
            assert main([command, "--aggregate", agg, "--output", plain]) == 0
            assert main([command, "--aggregate", agg, "--output", flagged, "--delta", "5",
                         "--epsilon", "-1", "--clamp", "1,0", "--budget-split", "1,0,0"]) == 0
            assert open(flagged).read() == open(plain).read()

    def test_saved_aggregate_top_k_is_a_prefix(self, tmp_path):
        inp = _write(tmp_path / "toy.tsv", TOY)
        agg = str(tmp_path / "agg.jsonl")
        full, top = str(tmp_path / "full.tsv"), str(tmp_path / "top.tsv")
        assert main(["aggregate", "--input", inp, "--output", agg, "--no-dp"]) == 0
        assert main(["rank", "--aggregate", agg, "--output", full]) == 0
        assert main(["rank", "--aggregate", agg, "--output", top, "--top-k", "3"]) == 0
        full_lines = open(full).read().splitlines()
        assert len(full_lines) > 4
        assert open(top).read().splitlines() == full_lines[:4]  # header + 3 rows

    @pytest.mark.parametrize("edit", ["wrong", "missing"])
    def test_saved_total_row_is_derived(self, tmp_path, edit):
        # the total is the sum of the partition marginals, whatever the row says
        inp = _write(tmp_path / "toy.tsv", TOY)
        agg = tmp_path / "agg.jsonl"
        assert main(["aggregate", "--input", inp, "--output", str(agg), "--no-dp"]) == 0
        rows = [json.loads(line) for line in agg.read_text().splitlines()]
        (total,) = [row for row in rows if row["table"] == "total"]
        if edit == "wrong":
            total["value"] *= 3
        else:
            rows.remove(total)
        edited = _write(tmp_path / "edited.jsonl", "".join(json.dumps(r) + "\n" for r in rows))
        want, got = str(tmp_path / "want.tsv"), str(tmp_path / "got.tsv")
        assert main(["rank", "--aggregate", str(agg), "--output", want]) == 0
        assert main(["rank", "--aggregate", edited, "--output", got]) == 0
        assert open(got, "rb").read() == open(want, "rb").read()

    @pytest.mark.parametrize("table,key,value,message", [
        ("feature_marginal", {"feature": "f3"}, None,
         "joint feature 'f3' missing from feature_marginals"),
        ("partition_marginal", {"partition": "p1"}, None,
         "joint partition 'p1' missing from partition_marginals"),
        ("joint", {"feature": "f1", "partition": "p1"}, 0.0,
         "joint[('f1', 'p1')] must be > 0, got 0.0"),
        ("feature_marginal", {"feature": "f2"}, -1.5,
         "feature_marginals['f2'] must be > 0, got -1.5"),
        ("partition_marginal", {"partition": "p2"}, 0.0,
         "partition_marginals['p2'] must be > 0, got 0.0"),
    ])
    def test_hand_edited_aggregate_is_a_one_line_error(self, tmp_path, capsys, table, key,
                                                       value, message):
        # a row is dropped (value None) or set to a value that no release gives
        inp = _write(tmp_path / "toy.tsv", TOY)
        agg = tmp_path / "agg.jsonl"
        assert main(["aggregate", "--input", inp, "--output", str(agg), "--no-dp"]) == 0
        rows = [json.loads(line) for line in agg.read_text().splitlines()]
        (row,) = [r for r in rows if r["table"] == table and key.items() <= r.items()]
        if value is None:
            rows.remove(row)
        else:
            row["value"] = value
        edited = _write(tmp_path / "edited.jsonl", "".join(json.dumps(r) + "\n" for r in rows))
        capsys.readouterr()
        assert main(["rank", "--aggregate", edited, "--output", str(tmp_path / "r.tsv")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "ValueError", "message": message}

    @pytest.mark.parametrize("table,key,edit,message", [
        ("partition_marginal", {"partition": "p1"}, "repeat",
         "partition_marginal 'p1' repeats an earlier row"),
        ("joint", {"feature": "f1", "partition": "p1"}, "repeat",
         "joint ('f1', 'p1') repeats an earlier row"),
        ("feature_marginal", {"feature": "f2"}, "3.0",
         "feature_marginal 'f2' needs a finite number value, got '3.0'"),
        ("feature_marginal", {"feature": "f2"}, None,
         "feature_marginal 'f2' needs a finite number value, got None"),
        ("joint", {"feature": "f1", "partition": "p1"}, "drop value",
         "joint ('f1', 'p1') needs a finite number value, got None"),
        ("partition_marginal", {"partition": "p2"}, True,
         "partition_marginal 'p2' needs a finite number value, got True"),
        ("joint", {"feature": "f1", "partition": "p1"}, math.inf,
         "joint ('f1', 'p1') needs a finite number value, got inf"),
        ("partition_marginal", {"partition": "p1"}, math.inf,
         "partition_marginal 'p1' needs a finite number value, got inf"),
        ("feature_marginal", {"feature": "f1"}, math.nan,
         "feature_marginal 'f1' needs a finite number value, got nan"),
        ("feature_marginal", {"feature": "f1"}, 10**400,  # too large for a float
         "feature_marginal 'f1' needs a finite number value, got inf"),
        ("joint", {"feature": "f1", "partition": "p1"}, "drop partition",
         "joint ('f1', None) needs string keys"),
        ("feature_marginal", {"feature": "f2"}, "drop feature",
         "feature_marginal None needs string keys"),
        ("partition_marginal", {"partition": "p2"}, "number key",
         "partition_marginal 2.0 needs string keys"),
    ], ids=["repeat-partition", "repeat-joint", "string", "null", "missing", "bool",
            "inf-joint", "inf-partition", "nan", "huge-int", "no-partition-field", "no-feature-field",
            "number-key"])
    def test_saved_row_refusals_name_file_line_and_key(self, tmp_path, capsys, table, key,
                                                       edit, message):
        inp = _write(tmp_path / "toy.tsv", TOY)
        agg = tmp_path / "agg.jsonl"
        assert main(["aggregate", "--input", inp, "--output", str(agg), "--no-dp"]) == 0
        rows = [json.loads(line) for line in agg.read_text().splitlines()]
        (row,) = [r for r in rows if r["table"] == table and key.items() <= r.items()]
        if edit == "repeat":  # a later copy with another value
            rows.append({**row, "value": row["value"] * 7})
            row = rows[-1]
        elif isinstance(edit, str) and edit.startswith("drop "):
            del row[edit[len("drop "):]]
        elif edit == "number key":
            row["partition"] = 2
        else:
            row["value"] = edit
        lineno = next(i for i, r in enumerate(rows, start=1) if r is row)
        edited = _write(tmp_path / "edited.jsonl", "".join(json.dumps(r) + "\n" for r in rows))
        capsys.readouterr()
        for command in ("rank", "flip"):
            assert main([command, "--aggregate", edited, "--output", str(tmp_path / "r.tsv")]) == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert json.loads(err) == {
                "error": "ValueError", "message": f"{edited} line {lineno}: {message}",
            }
        assert not (tmp_path / "r.tsv").exists()

    @pytest.mark.parametrize("text,message", [
        ('["joint"]', ' line 3: expected a JSON object, got ["joint"]'),
        ("3", " line 3: expected a JSON object, got 3"),
        ('{"table": "joint", "feature": "f1", "partition": "p1", "val',
         " line 3: Unterminated string starting at: column 56"),
        ('{"table": "sums", "value": 1.0}',
         " line 3: unknown table row {'table': 'sums', 'value': 1.0}"),
    ], ids=["array", "number", "truncated", "unknown-table"])
    def test_saved_line_refusals_name_file_and_line(self, tmp_path, capsys, text, message):
        # a blank first line still counts, so the bad line is the file's line 3
        inp = _write(tmp_path / "toy.tsv", TOY)
        agg = tmp_path / "agg.jsonl"
        assert main(["aggregate", "--input", inp, "--output", str(agg), "--no-dp"]) == 0
        lines = ["", *agg.read_text().splitlines()]
        lines[2] = text
        edited = _write(tmp_path / "edited.jsonl", "\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["rank", "--aggregate", edited, "--output", str(tmp_path / "r.tsv")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {"error": "ValueError", "message": f"{edited}{message}"}
        assert not (tmp_path / "r.tsv").exists()

    @pytest.mark.parametrize("field,key,message", [
        ("partition", "p2", "line 2: joint ('f1', '__other__') uses the reserved key '__other__'"),
        ("feature", "f1", "line 1: joint ('__other__', 'p1') uses the reserved key '__other__'"),
    ], ids=["partition", "feature"])
    def test_saved_reserved_key_is_refused(self, tmp_path, capsys, field, key, message):
        # every row of the key is renamed, so the edited table is consistent
        inp = _write(tmp_path / "toy.tsv", TOY)
        agg = tmp_path / "agg.jsonl"
        assert main(["aggregate", "--input", inp, "--output", str(agg), "--no-dp"]) == 0
        rows = [json.loads(line) for line in agg.read_text().splitlines()]
        for row in rows:
            if row.get(field) == key:
                row[field] = "__other__"
        edited = _write(tmp_path / "edited.jsonl", "".join(json.dumps(r) + "\n" for r in rows))
        capsys.readouterr()
        for command in ("rank", "flip"):
            assert main([command, "--aggregate", edited, "--output", str(tmp_path / "r.tsv")]) == 1
            err = capsys.readouterr().err
            assert err.count("\n") == 1
            assert json.loads(err) == {"error": "ValueError", "message": f"{edited} {message}"}
        assert not (tmp_path / "r.tsv").exists()

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


TAB_KEY = "f\t1"


def _dp_input(tmp_path, case):
    """A DP input that fails only after its three releases were charged."""
    if case == "censored":  # two rows: no noisy sum clears the threshold
        return _write(tmp_path / "two.tsv", "id\tfeature\tpartition\tobservation\n"
                      "u1\tf1\tp1\t1.0\nu2\tf2\tp2\t1.0\n")
    # comma-delimited, so a feature key may hold the tab a TSV row cannot
    lines = ["id,feature,partition,observation"]
    lines += [f"u{i},{TAB_KEY if i % 2 else 'f2'},p{i % 3},1.0" for i in range(600)]
    return _write(tmp_path / "tabbed.csv", "\n".join(lines) + "\n")


class TestFailureLedger:
    """A DP run that fails after a release still records the budget it spent."""

    @pytest.mark.parametrize("command,case", [
        ("rank", "censored"), ("flip", "censored"), ("aggregate", "censored"),
        ("rank", "tabbed"), ("flip", "tabbed"),
    ])
    def test_failure_after_release_writes_the_ledger(self, tmp_path, capsys, command, case):
        says = "no partitions survived" if case == "censored" else repr(TAB_KEY)
        inp = _dp_input(tmp_path, case)
        out = tmp_path / "out"
        assert main([command, "--input", inp, "--output", str(out), "--epsilon", "1.2",
                     "--delta", "1e-3", "--seed", "5"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert says in json.loads(err)["message"]
        (ledger,) = _read_manifest(str(out) + ".manifest.jsonl")
        assert ledger["event"] == "ledger" and ledger["total_epsilon"] == 1.2
        assert [label for label, _ in ledger["charges"]] == [
            "joint", "feature_marginal", "partition_marginal"
        ]
        assert math.fsum(eps for _, eps in ledger["charges"]) == pytest.approx(1.2, abs=1e-9)
        assert ledger["spent_epsilon"] == pytest.approx(1.2, abs=1e-9)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["rank", "flip"])
    def test_no_dp_failure_writes_no_manifest(self, tmp_path, capsys, command):
        inp = _dp_input(tmp_path, "tabbed")
        assert main([command, "--input", inp, "--output", str(tmp_path / "out"), "--no-dp"]) == 1
        assert repr(TAB_KEY) in json.loads(capsys.readouterr().err)["message"]
        assert not [p for p in os.listdir(tmp_path) if p.startswith("out")]

    @pytest.mark.parametrize("command,flags,says", [
        ("rank", ["--seed", "5", "--top-k", "0"], "--top-k"),
        ("flip", ["--seed", "5", "--top-k", "0"], "--top-k"),
        ("rank", [], "--seed"),
        ("flip", [], "--seed"),
        ("aggregate", [], "--seed"),
        ("rank", ["--seed", "5", "--input", "bad"], "no valid rows"),
        ("flip", ["--seed", "5", "--input", "bad"], "no valid rows"),
        ("aggregate", ["--seed", "5", "--input", "bad"], "no valid rows"),
    ], ids=["rank-top-k", "flip-top-k", "rank-seed", "flip-seed", "aggregate-seed",
            "rank-no-rows", "flip-no-rows", "aggregate-no-rows"])
    def test_failure_before_any_charge_writes_no_manifest(self, tmp_path, capsys, command,
                                                          flags, says):
        bad = _write(tmp_path / "bad.tsv", "id\tfeature\tpartition\tobservation\n"
                     "u1\tf1\tp1\tnot_a_number\nu2\tf2\tp2\t-1\n")
        flags = [bad if flag == "bad" else flag for flag in flags]
        if "--input" not in flags:
            flags += ["--input", _dp_input(tmp_path, "tabbed")]
        assert main([command, "--output", str(tmp_path / "out"), *flags]) == 1
        assert says in json.loads(capsys.readouterr().err)["message"]
        assert not [p for p in os.listdir(tmp_path) if p.startswith("out")]

    def test_unwritable_ledger_keeps_the_one_line_error(self, tmp_path, capsys):
        inp = _dp_input(tmp_path, "censored")
        out = str(tmp_path / "out")
        argv = ["rank", "--input", inp, "--output", out, "--delta", "1e-3", "--seed", "5"]
        assert main(argv) == 1
        want = capsys.readouterr().err
        os.remove(out + ".manifest.jsonl")
        os.mkdir(out + ".manifest.jsonl")  # opening it for writing fails
        assert main(argv) == 1
        assert capsys.readouterr().err == want
        assert json.loads(want)["error"] == "ValueError"


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

    def test_tsv_key_in_a_later_stage_writes_no_file(self, tmp_path, capsys):
        f1, _ = self._stage_files(tmp_path)
        tabbed = "org\t02"
        lines = ["id,feature,partition,observation"]
        lines += [f"e{i:03d},{tabbed if i % 2 else 'bgorg'},all,1.0" for i in range(600)]
        f2 = _write(tmp_path / "s2.csv", "\n".join(lines) + "\n")
        base = str(tmp_path / "out")
        assert main(["fold", "--input", f1, "--input", f2, "--output", base,
                     "--seeds", "seed_kw", "--no-dp"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert repr(tabbed) in json.loads(err)["message"]
        assert not [p for p in os.listdir(tmp_path) if p.startswith("out")]

    def test_missing_seeds_is_a_one_line_error(self, tmp_path, capsys):
        f1, _ = self._stage_files(tmp_path)
        assert main(["fold", "--input", f1, "--output", str(tmp_path / "out"), "--no-dp"]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError", "message": "fold 1 has no seeds to match",
        }
        assert not [p for p in os.listdir(tmp_path) if p.startswith("out")]

    def test_fold_top_k_below_one_errors(self, tmp_path, capsys):
        f1, _ = self._stage_files(tmp_path)
        rc = main([
            "fold", "--input", f1, "--output", str(tmp_path / "x"), "--fold-epsilons", "1.0",
            "--seeds", "seed_kw", "--no-dp", "--fold-top-k", "-1",
        ])
        assert rc == 1
        payload = json.loads(capsys.readouterr().err)
        assert payload["error"] == "ValueError" and "top_k" in payload["message"]

    def test_fold_manifest_ends_with_the_ledger(self, tmp_path):
        f1, f2 = self._stage_files(tmp_path)
        base = str(tmp_path / "out")
        assert main([
            "fold", "--input", f1, "--input", f2, "--output", base,
            "--epsilon", "1.0", "--fold-epsilons", "0.5,0.5",
            "--seeds", "seed_kw", "--delta", "1e-2", "--contribution-limit", "2", "--seed", "11",
        ]) == 0
        manifest = _read_manifest(base + ".manifest.jsonl")
        ledger = manifest[-1]
        assert ledger["event"] == "ledger" and ledger["total_epsilon"] == 1.0
        for stage in ("fold1/", "fold2/"):
            charges = [eps for label, eps in ledger["charges"] if label.startswith(stage)]
            assert len(charges) == 3 and math.fsum(charges) == pytest.approx(0.5, abs=1e-9)
        summary = next(m for m in manifest if m["event"] == "summary")
        assert ledger["spent_epsilon"] == summary["epsilon_spent"]

    def test_no_dp_manifest_totals_zero(self, tmp_path):
        # without DP no budget exists, whatever --epsilon says
        f1, f2 = self._stage_files(tmp_path)
        base = str(tmp_path / "out")
        assert main([
            "fold", "--input", f1, "--input", f2, "--output", base,
            "--epsilon", "3.0", "--seeds", "seed_kw", "--no-dp",
        ]) == 0
        manifest = _read_manifest(base + ".manifest.jsonl")
        summary = next(m for m in manifest if m["event"] == "summary")
        assert (summary["epsilon_total"], summary["epsilon_spent"]) == (0.0, 0.0)
        assert manifest[-1]["total_epsilon"] == 0.0

    def test_failed_later_stage_records_the_spent_budget(self, tmp_path, capsys):
        # stage 2 shares no id with stage 1, so its labeling is degenerate
        # after stage 1 has released
        f1, _ = self._stage_files(tmp_path)
        lines = ["id\tfeature\tpartition\tobservation"]
        lines += [f"x{i:03d}\torg{i % 2}\tall\t1.0" for i in range(600)]
        f2 = _write(tmp_path / "s2.tsv", "\n".join(lines) + "\n")
        base = str(tmp_path / "out")
        assert main([
            "fold", "--input", f1, "--input", f2, "--output", base,
            "--epsilon", "1.0", "--fold-epsilons", "0.5,0.5",
            "--seeds", "seed_kw", "--delta", "1e-2", "--contribution-limit", "2", "--seed", "11",
        ]) == 1
        assert "degenerate" in json.loads(capsys.readouterr().err)["message"]
        (ledger,) = _read_manifest(base + ".manifest.jsonl")
        assert ledger["event"] == "ledger"
        labels = [label for label, _ in ledger["charges"]]
        assert labels == ["fold1/joint", "fold1/feature_marginal", "fold1/partition_marginal"]
        assert math.fsum(eps for _, eps in ledger["charges"]) == pytest.approx(0.5, abs=1e-9)
        assert ledger["spent_epsilon"] == pytest.approx(0.5, abs=1e-9)
        assert not [p for p in os.listdir(tmp_path) if p.startswith("out.fold")]

    @pytest.mark.parametrize("epsilon,fold_epsilons", [
        ("4", "2,0"), ("4", "2,-1"), ("1.5", "2,-0.5"),
    ])
    def test_bad_stage_epsilon_releases_nothing(self, tmp_path, capsys, epsilon, fold_epsilons):
        f1, f2 = self._stage_files(tmp_path)
        assert main([
            "fold", "--input", f1, "--input", f2, "--output", str(tmp_path / "out"),
            "--epsilon", epsilon, f"--fold-epsilons={fold_epsilons}",
            "--seeds", "seed_kw", "--delta", "1e-2", "--contribution-limit", "2", "--seed", "11",
        ]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        payload = json.loads(err)
        assert payload["error"] == "ValueError" and payload["message"].startswith("fold 2: ")
        assert not [p for p in os.listdir(tmp_path) if p.startswith("out")]

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


@pytest.fixture
def pipeline_calls(monkeypatch):
    """The positional arguments of every ``prepare_records`` and ``accumulate``
    call that ``dpmi.evaluation`` or ``dpmi.mi`` makes, by function name."""
    calls = {"prepare_records": [], "accumulate": []}
    for name, seen in calls.items():
        original = getattr(dpmi.evaluation, name)

        def counted(*args, _original=original, _seen=seen, **kwargs):
            _seen.append(args)
            return _original(*args, **kwargs)

        for module in (dpmi.evaluation, dpmi.mi):
            assert getattr(module, name) is original
            monkeypatch.setattr(module, name, counted)
    return calls


class TestEvalCommand:
    def test_stability_failure_leaves_no_sweep_file(self, tmp_path, capsys):
        # 50 users over 5 features and 2 partitions give 7 baseline pairs,
        # too few for the 10 stability buckets; the sweep itself would succeed
        out = tmp_path / "ev"
        assert main(["eval", "--synth", "users=50,features=5,partitions=2", "--epsilons", "inf",
                     "--trials", "1", "--seed", "1", "--output", str(out)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError", "message": "need at least 10 baseline pairs, got 7",
        }
        assert not (out / "sweep.tsv").exists()
        assert not (out / "stability.tsv").exists()
        assert not (tmp_path / "ev.manifest.jsonl").exists()
        assert not out.exists()

    def test_short_stability_head_fails_before_any_dp_trial(self, tmp_path, capsys,
                                                             pipeline_calls):
        # the 7 baseline pairs above, now with finite sweep epsilons
        assert main(["eval", "--synth", "users=50,features=5,partitions=2", "--epsilons", "0.5,1",
                     "--trials", "3", "--seed", "1", "--output", str(tmp_path / "ev")]) == 1
        assert "need at least 10 baseline pairs, got 7" in capsys.readouterr().err
        assert [privacy for _, privacy in pipeline_calls["prepare_records"]] == [None]
        assert len(pipeline_calls["accumulate"]) == 1
        assert not (tmp_path / "ev.manifest.jsonl").exists()

    @pytest.mark.parametrize("flag", ["--epsilons", "--stability-epsilon"])
    def test_nan_epsilon_fails_before_any_ranking(self, tmp_path, capsys, pipeline_calls, flag):
        out = tmp_path / "ev"
        assert main(["eval", "--synth", "users=500,features=20,partitions=4", flag, "nan",
                     "--trials", "1", "--seed", "1", "--output", str(out)]) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError", "message": "all epsilons must be positive",
        }
        assert pipeline_calls == {"prepare_records": [], "accumulate": []}
        assert not out.exists()
        assert not (tmp_path / "ev.manifest.jsonl").exists()

    def test_one_baseline_and_one_pass_per_trial(self, tmp_path, pipeline_calls):
        # the stability epsilon (1.0 by default) is one of the sweep's
        assert main([
            "eval", "--synth", "users=2000,features=50,partitions=5,strength=0.9",
            "--epsilons", "0.5,1,4", "--trials", "5", "--top-k", "40",
            "--delta", "0.2", "--seed", "17", "--output", str(tmp_path / "e"),
        ]) == 0
        # one no-DP baseline, then one bounding per trial at seed 17 + t
        seeds = [cfg and cfg.seed for _, cfg in pipeline_calls["prepare_records"]]
        assert seeds == [None, 17, 18, 19, 20, 21]
        assert len(pipeline_calls["accumulate"]) == 6

    def _manifest_bytes(self, argv, out):
        assert main([*argv, "--output", str(out)]) == 0
        return Path(f"{out}.manifest.jsonl").read_bytes()

    def test_sweep_manifest(self, tmp_path):
        inp = _write(tmp_path / "toy.tsv", "id\tfeature\tpartition\tobservation\n" + "".join(
            f"u{u}\tf{(u % 7) * (u % 3)}\tp{u % 3}\t1\n" for u in range(400)) + "u\tf\tp\tx\n")
        out = tmp_path / "e"
        argv = ["eval", "--input", inp, "--epsilons", "0.5,2,inf", "--stability-epsilon", "1",
                "--trials", "3", "--top-k", "30", "--delta", "0.2", "--seed", "5"]
        first = self._manifest_bytes(argv, out)
        assert self._manifest_bytes(argv, out) == first  # no timing, so reruns match
        assert [json.loads(line) for line in first.decode().splitlines()] == [
            {"event": "ingest", "rows_read": 401, "rows_rejected": {"parse": 1}},
            {
                "event": "eval",
                "mode": "sweep",
                "epsilons": [0.5, 2.0, math.inf],
                "stability_epsilon": 1.0,
                "trials": 3,
                "trial_seeds": [5, 6, 7],
                "top_k": 30,
                "outputs": {str(out / "sweep.tsv"): 3, str(out / "stability.tsv"): 10},
            },
        ]

    def test_runtime_manifest_holds_no_timing(self, tmp_path):
        out = tmp_path / "rt"
        argv = ["eval", "--synth", "users=500,features=20,partitions=3", "--runtime"]
        first = self._manifest_bytes(argv, out)
        assert self._manifest_bytes(argv, out) == first
        assert [json.loads(line) for line in first.decode().splitlines()] == [
            {"event": "eval", "mode": "runtime", "outputs": {str(out / "runtime.tsv"): 1}},
        ]

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

    @pytest.mark.parametrize("flags", [[], ["--seed", "1", "--delta", "5"]])
    def test_runtime_reads_no_privacy_flag(self, tmp_path, flags):
        # timing batched against binary runs releases nothing
        out = str(tmp_path / "rt")
        assert main([
            "eval", "--synth", "users=2000,features=50,partitions=4",
            "--runtime", "--output", out, *flags,
        ]) == 0
        fields = open(f"{out}/runtime.tsv").read().splitlines()[1].split("\t")
        assert fields[:2] == ["2000", "4"]

    def test_sweep_refuses_no_dp(self, tmp_path, capsys):
        # a DP sweep at seed 0 would not be what --no-dp asked for
        out = tmp_path / "e"
        assert main([
            "eval", "--synth", "users=1000,features=40,partitions=4,strength=0.9",
            "--epsilons", "1", "--trials", "1", "--no-dp", "--output", str(out),
        ]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        payload = json.loads(err)
        assert payload["error"] == "ValueError" and "--no-dp" in payload["message"]
        assert not out.exists()

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

    @pytest.mark.parametrize("mode", [("--runtime", "--no-dp"), ("--delta", "0.2")])
    def test_synth_with_an_input_errors_before_ranking(self, tmp_path, capsys, mode):
        # --synth replaces the input, so an --input beside it is refused, not ignored
        inp = _write(tmp_path / "a.tsv", TOY)
        rc = main(["eval", "--synth", "users=500,features=20,partitions=4", "--input", inp,
                   "--input", str(tmp_path / "missing.tsv"), *mode, "--seed", "1",
                   "--output", str(tmp_path / "d")])
        assert rc == 1
        err = capsys.readouterr().err
        assert json.loads(err) == {"error": "ValueError",
                                   "message": "eval --synth reads no --input, got 2"}
        assert err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) == ["a.tsv"]


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


def _readme_cli_section():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


@pytest.mark.parametrize("command,flag", [
    ("aggregate", ["--output-format", "tsv"]),
    ("aggregate", ["--top-k", "3"]),
    ("eval", ["--output-format", "tsv"]),
])
def test_flags_a_subcommand_would_ignore_are_rejected(tmp_path, capsys, command, flag):
    inp = _write(tmp_path / "toy.tsv", TOY)
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", inp, "--output", str(tmp_path / "o"), "--no-dp", *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["rank", "--input", "{empty}", "--no-dp"], "{empty}: empty input, expected a header line"),
    (["rank", "--input", "{toy}", "--input", "{toy}", "--no-dp"],
     "expected exactly one --input, got 2"),
    (["aggregate", "--no-dp"], "expected exactly one --input, got 0"),
    (["fold", "--no-dp", "--seeds", "f1"], "fold needs at least one --input"),
    (["fold", "--input", "{toy}", "--input", "{toy}", "--fold-epsilons", "1", "--seeds", "f1",
      "--seed", "1"], "got 1 fold epsilons for 2 inputs"),
], ids=["empty-file", "rank-two-inputs", "aggregate-no-input", "fold-no-input",
        "fold-epsilon-count"])
def test_input_shape_errors_are_one_line(tmp_path, capsys, argv, message):
    paths = {"toy": _write(tmp_path / "toy.tsv", TOY), "empty": _write(tmp_path / "empty.tsv", "")}
    argv = [arg.format(**paths) for arg in argv]
    assert main([*argv, "--output", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": "ValueError", "message": message.format(**paths)}
    assert sorted(os.listdir(tmp_path)) == ["empty.tsv", "toy.tsv"]  # no output, no manifest


@pytest.mark.parametrize("argv,message", [
    (["rank", "--clamp", "1"], "argument --clamp: expected lo,hi got '1'"),
    (["rank", "--budget-split", "0.5,0.5"],
     "argument --budget-split: expected three weights, got '0.5,0.5'"),
    (["rank", "--columns", "id,feature,,observation"],
     "argument --columns: expected four column names (id,feature,partition,observation roles), "
     "got 'id,feature,,observation'"),
    (["eval", "--synth", "users=50,,features"], "argument --synth: expected key=value, got 'features'"),
    (["rank", "--columns", "id,id,partition,observation"],
     "argument --columns: column 'id' is named for more than one role in "
     "'id,id,partition,observation'"),
])
def test_malformed_option_values_are_usage_errors(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--output", str(tmp_path / "o"), "--no-dp"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.rstrip().endswith(f"error: {message}")


class TestReadme:
    """The README's CLI section names only real options and runnable examples."""

    def test_every_named_flag_is_an_option(self):
        parser = build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        options = {o for sub in commands.choices.values() for o in sub._option_string_actions}
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", _readme_cli_section()))
        assert named and named <= options, sorted(named - options)

    def test_every_example_parses(self):
        block = _readme_cli_section().split("```sh\n", 1)[1].split("```", 1)[0]
        commands = [c for c in block.replace("\\\n", " ").splitlines() if c.startswith("dpmi ")]
        assert commands
        parser = build_parser()
        for command in commands:
            parser.parse_args(shlex.split(command)[1:])
