"""Benchmark runner for the dpmi batch engine.

    python3 perfbench/run.py --workload rank_dp_file --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; dpmi is imported from ``src/``. One
run is one fresh process:

1. For ``--seconds`` (and at least MIN_JOBS jobs), set up the seeded inputs
   afresh and run one job on them, timing each and checking each output
   outside the timed region. A job that raises or fails its check counts as
   failed. ``setup_s`` is the median set-up. ``job_best_s`` is the fastest
   job: other tenants of the machine only ever slow a job down, and the
   fastest of a run moves about half as much from run to run as the median
   does.
2. With ``--trace 1`` every second job runs with the per-layer wrappers of
   ``tracing.py`` installed. The traced jobs give the per-layer metrics; the
   spans go to ``perfbench/traces/<workload>-seed<seed>.jsonl``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json
with ``--trace 0``, its per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from workloads import WORKLOADS, CheckFailed  # noqa: E402

MIN_JOBS = 3
TIME_FIELDS = ("s", "self_s")


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def _seed(text: str) -> int:
    seed = int(text)
    if not 0 <= seed < 2**63:
        raise argparse.ArgumentTypeError(f"seed must lie in [0, 2**63), got {seed}")
    return seed


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=_seed, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_jobs(workload, seed: int, workdir: str, seconds: float, tracer=None):
    """Set up and run jobs back to back for ``seconds`` and at least MIN_JOBS untraced ones.

    Every job gets inputs set up afresh from ``seed``, so the set-up times
    sample the whole run as the job times do. With a tracer, every second job
    runs with it installed, so traced and untraced jobs see the same machine
    conditions. Returns the set-up times, one (traced, wall seconds, why it
    failed or None) per job, and the last inputs.
    """
    setups, jobs = [], []
    state: dict = {}
    want = MIN_JOBS * (2 if tracer else 1)
    start = time.perf_counter()
    while len(jobs) < want or time.perf_counter() - start < seconds:
        inputs = None  # let the previous copy go before building the next
        t0 = time.perf_counter()
        inputs = workload.setup(seed, workdir)
        setups.append(time.perf_counter() - t0)
        traced = tracer is not None and len(jobs) % 2 == 1
        if traced:
            tracer.job = len(jobs)
            tracer.install()
        failure = None
        t0 = time.perf_counter()
        try:
            output = workload.job(inputs)
        except Exception as exc:  # a failed job is counted, and the run goes on
            output, failure = None, f"{type(exc).__name__}: {exc}"
        finally:
            elapsed = time.perf_counter() - t0
            if traced:
                tracer.uninstall()
        if failure is None:
            try:
                workload.check(inputs, output, state)
            except CheckFailed as exc:
                failure = f"check: {exc}"
        jobs.append((traced, elapsed, failure))
    return setups, jobs, inputs


def main(argv=None) -> int:
    args = parse_args(argv)
    import dpmi  # noqa: F401  -- fail before any work when the source tree is missing

    workload = WORKLOADS[args.workload]()
    workdir = os.path.join(HERE, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return measure(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(workload, args, workdir: str) -> int:
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    setups, jobs, inputs = run_jobs(workload, args.seed, workdir, args.seconds, tracer)
    # A job that failed early must not pass for a fast one.
    times = ([t for traced, t, why in jobs if not traced and why is None]
             or [t for traced, t, _ in jobs if not traced])
    job_best_s = min(times)
    failures = {i: why for i, (_, _, why) in enumerate(jobs) if why}

    if tracer is not None:
        units = metric_units("per_layer")
        traced_jobs = [i for i, (traced, _, _) in enumerate(jobs) if traced]
        stats = [tracer.job_stats(i) for i in traced_jobs]
        for i, st in zip(traced_jobs, stats):
            if counts(st) != counts(stats[0]):
                failures.setdefault(i, f"traced counts differ from job {traced_jobs[0] + 1}")
        metrics = layer_metrics(stats, units)
        metrics["trace.overhead_s"] = min(t for traced, t, _ in jobs if traced) - job_best_s
        os.makedirs(os.path.join(HERE, "traces"), exist_ok=True)
        tracer.write_spans(os.path.join(HERE, "traces", f"{workload.name}-seed{args.seed}.jsonl"))
    else:
        units = metric_units("end_to_end")
        metrics = {
            "job_best_s": job_best_s,
            "rows_per_s": inputs["rows"] / job_best_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(setups),
            "ok_ratio": 1 - len(failures) / len(jobs),
        }

    for i, why in sorted(failures.items()):
        print(f"FAILED job {i + 1}: {why}", file=sys.stderr)
    print(f"# {workload.name}: seed {args.seed}, trace {args.trace}, {inputs['rows']} input rows, "
          f"{len(jobs)} jobs ({len(times)} untraced: min {min(times):.3f} s, "
          f"median {statistics.median(times):.3f} s, max {max(times):.3f} s), "
          f"{len(setups)} set-ups")
    for name in units:
        print(f"{name:45s} {metrics[name]:16.6f} {units[name]}")
    result = {
        "correct": not failures,
        "attempted": len(jobs),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result), flush=True)
    return 0


def counts(stats: dict) -> dict:
    """The exact (non-time) fields of one job's per-layer stats."""
    return {name: {f: v for f, v in layer.items() if f not in TIME_FIELDS}
            for name, layer in stats.items()}


def layer_metrics(stats: list[dict], units: dict[str, str]) -> dict[str, float]:
    """Per-layer metrics over the traced jobs: times are medians, counts are
    those of the first traced job (``measure`` checks that the rest agree)."""
    metrics = {}
    for name, unit in units.items():
        layer, _, field = name.rpartition(".")
        values = [st.get(layer, {}).get(field, 0) for st in stats]
        metrics[name] = statistics.median(values) if unit == "s" else values[0]
    return metrics


if __name__ == "__main__":
    sys.exit(main())
