"""Tests of the benchmark itself: its output checks reject corrupted outputs,
and a tiny run of every workload prints every metric of BENCHMARK.json.

Run with ``python -m pytest perfbench``.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import (WORKLOADS, CheckFailed, EvalSweep, OneVsAllNoDp,  # noqa: E402
                       RankDpFile, check_onevsall, check_sweep, exact_sums, mi_2x2)

# Input scale per workload: the smallest that still has released pairs and a
# finite stability file under DP.
TINY = {"rank_dp_file": 0.1, "eval_sweep": 0.2, "onevsall_nodp": 0.04}


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("workload", sorted(TINY))
def test_smoke_prints_every_metric_with_its_unit(spec, workload, tmp_path, capsys):
    assert workload in {w["name"] for w in spec["workloads"]}
    traced = []
    for trace, kind in ((0, "end_to_end"), (1, "per_layer"), (1, "per_layer")):
        args = argparse.Namespace(seed=5, seconds=0, trace=trace)
        assert run.measure(WORKLOADS[workload](TINY[workload]), args, str(tmp_path)) == 0
        stdout = capsys.readouterr().out
        result = json.loads(stdout.splitlines()[-1])
        assert result["correct"] is True and result["failed"] == 0
        assert result["attempted"] >= 3
        want = {m["name"]: m["unit"] for m in spec[kind]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want
        for name, unit in want.items():
            assert any(line.split()[:1] == [name] and line.split()[-1] == unit
                       for line in stdout.splitlines()), name
        if trace:
            traced.append(result["metrics"])
    counts = [{k: m["value"] for k, m in ms.items() if m["unit"] != "s"} for ms in traced]
    assert counts[0] == counts[1]


def test_tracer_fails_on_a_missing_layer(monkeypatch):
    monkeypatch.delattr("dpmi.cli.write_results")
    tracer = Tracer()
    with pytest.raises(AttributeError, match="write_results"):
        tracer.install()
    assert tracer._restore == []


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "traces", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", "rank_dp_file",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.fixture(scope="module")
def rank_output(tmp_path_factory):
    workload = RankDpFile(TINY["rank_dp_file"])
    inputs = workload.setup(11, str(tmp_path_factory.mktemp("rank")))
    return workload, inputs, workload.job(inputs)


def test_rank_check_accepts_real_output(rank_output):
    workload, inputs, output = rank_output
    state = {}
    workload.check(inputs, output, state)
    workload.check(inputs, workload.job(inputs), state)


def _swap_lines(data: bytes, i: int, j: int) -> bytes:
    lines = data.decode().splitlines(keepends=True)
    lines[i], lines[j] = lines[j], lines[i]
    return "".join(lines).encode()


def test_rank_check_rejects_swapped_ranks(rank_output):
    workload, inputs, output = rank_output
    with pytest.raises(CheckFailed):
        workload.check(inputs, _swap_lines(output, 1, 2), {})


def test_rank_check_rejects_unknown_key_and_changed_bytes(rank_output):
    workload, inputs, output = rank_output
    with pytest.raises(CheckFailed):
        workload.check(inputs, output.replace(b"\tf", b"\tg", 1), {})
    state = {}
    workload.check(inputs, output, state)
    lines = output.decode().splitlines(keepends=True)
    lines = lines[:-1]  # a second job that lost its last pair
    with pytest.raises(CheckFailed):
        workload.check(inputs, "".join(lines).encode(), state)


@pytest.fixture(scope="module")
def onevsall_output():
    workload = OneVsAllNoDp(TINY["onevsall_nodp"])
    inputs = workload.setup(12, "")
    return workload, inputs, workload.job(inputs)


def test_onevsall_check_accepts_real_output(onevsall_output):
    workload, inputs, output = onevsall_output
    workload.check(inputs, output, {})


def test_onevsall_check_rejects_perturbed_binary_mi(onevsall_output):
    _, inputs, output = onevsall_output
    binary = {p: list(rs) for p, rs in output.binary_results.items()}
    p = next(iter(binary))
    i = next(k for k, r in enumerate(binary[p]) if r.partition == p)
    binary[p][i] = replace(binary[p][i], mi=binary[p][i].mi + 1e-9)
    with pytest.raises(CheckFailed, match="differ"):
        check_onevsall(output.batched_results, binary, exact_sums(inputs["records"]), 10**6)


def test_onevsall_check_rejects_mi_off_the_oracle(onevsall_output):
    _, inputs, output = onevsall_output
    scaled = lambda rs: [replace(r, mi=r.mi * 1.01) for r in rs]
    binary = {p: scaled(rs) for p, rs in output.binary_results.items()}
    with pytest.raises(CheckFailed, match="oracle"):
        check_onevsall(scaled(output.batched_results), binary, exact_sums(inputs["records"]), 1)


def test_mi_oracle_on_known_tables():
    assert mi_2x2(0.5, 0.5, 0.5) == pytest.approx(math.log(2.0), abs=1e-15)
    assert mi_2x2(0.5, 0.5, 0.25) == pytest.approx(0.0, abs=1e-15)


@pytest.fixture(scope="module")
def sweep_output(tmp_path_factory):
    workload = EvalSweep(TINY["eval_sweep"])
    inputs = workload.setup(13, str(tmp_path_factory.mktemp("sweep")))
    sweep_path, stability_path = workload.job(inputs)
    with open(sweep_path) as fh:
        sweep = [line.split("\t") for line in fh.read().splitlines()]
    with open(stability_path) as fh:
        stability = [line.split("\t") for line in fh.read().splitlines()]
    return workload, sweep, stability


def test_sweep_check_accepts_real_output(sweep_output):
    workload, sweep, stability = sweep_output
    check_sweep(sweep, stability, workload.EPSILONS, workload.BUCKETS)


def test_sweep_check_rejects_corruption(sweep_output):
    workload, sweep, stability = sweep_output
    eps, buckets = workload.EPSILONS, workload.BUCKETS
    rising = [row[:] for row in sweep]
    rising[-1][3] = str(float(rising[1][3]) + 1.0)
    with pytest.raises(CheckFailed, match="p50"):
        check_sweep(rising, stability, eps, buckets)
    with pytest.raises(CheckFailed, match="buckets"):
        check_sweep(sweep, stability[:-1], eps, buckets)
    nan = [row[:] for row in stability]
    nan[3][1] = "nan"
    with pytest.raises(CheckFailed, match="non-finite"):
        check_sweep(sweep, nan, eps, buckets)
