"""Acceptance suite: one test per release criterion, each printing a pass/fail
line with its measured value. Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import random
import time
from collections import Counter

import numpy as np
import pytest
from scipy.stats import spearmanr

from dpmi.dp import BudgetAccountant, censor_threshold, laplace_from_uniform, release_sums
from dpmi.evaluation import epsilon_sweep, head_tail_stability, runtime_compare, synth_generate
from dpmi.mi import FoldSpec, binary_rank, calc_mi, nfold, rank_records
from dpmi.model import PrivacyConfig, Record
from dpmi.cli import main as cli_main

from nfold_synth import two_stage_dataset
from oracles import keyed_uniform, keyed_uniforms, mi_2x2, random_valid_triple

NO_DP = None


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nacceptance {num:02d} [{name}]: {status}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def test_criterion_01_mi_oracle_equivalence():
    rng = random.Random(20240)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        p_x, p_y, p_xy = random_valid_triple(rng)
        worst = max(worst, abs(calc_mi(p_x, p_y, p_xy) - mi_2x2(p_x, p_y, p_xy)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    _report(1, "mi oracle equivalence", ok, f"worst |diff|={worst:.2e} elapsed={elapsed:.2f}s")


def test_criterion_02_batched_equals_binary():
    start = time.perf_counter()
    records = synth_generate(100_000, 500, 10, 0.8, seed=202)
    batched = rank_records(records, NO_DP)
    batched_mi = {(r.partition, r.feature): r.mi for r in batched}
    partitions = sorted({r.partition for r in records})
    worst = 0.0
    pairs_checked = 0
    for p in partitions:
        solo = binary_rank(records, p, NO_DP)
        for r in solo:
            if r.partition != p:
                continue
            pairs_checked += 1
            worst = max(worst, abs(r.mi - batched_mi[(p, r.feature)]))
    elapsed = time.perf_counter() - start
    ok = pairs_checked == len(batched_mi) and worst <= 1e-12 and elapsed < 30.0
    _report(
        2, "batched equals binary", ok,
        f"pairs={pairs_checked} worst |diff|={worst:.2e} elapsed={elapsed:.1f}s",
    )


def test_criterion_03_flip_symmetry():
    rng = random.Random(303)
    worst = 0.0
    for _ in range(20):
        records = [
            Record(f"u{i}", f"f{rng.randrange(8)}", f"p{rng.randrange(4)}", rng.random() * 5)
            for i in range(rng.randrange(40, 120))
        ]
        flipped = rank_records(records, NO_DP, swap=True)
        swapped = [Record(r.id, r.partition, r.feature, r.observation) for r in records]
        direct = rank_records(swapped, NO_DP)
        a = sorted(r.mi for r in flipped)
        b = sorted(r.mi for r in direct)
        assert len(a) == len(b)
        worst = max(worst, max(abs(x - y) for x, y in zip(a, b)))
    _report(3, "flip symmetry", worst <= 1e-12, f"worst multiset |diff|={worst:.2e}")


SWEEP_EPSILONS = (0.1, 0.5, 1.0, 2.0, 4.0, 8.0)


def test_criterion_04_epsilon_sweep_trend():
    start = time.perf_counter()
    records = synth_generate(10_000, 500, 10, 0.9, seed=404)
    privacy = PrivacyConfig(epsilon=1.0, delta=0.2, contribution_limit=1, seed=404)
    rows = epsilon_sweep(records, privacy, epsilons=SWEEP_EPSILONS, trials=5, top_k=100)
    medae = [row.percentiles[50] for row in rows]
    rho = spearmanr(SWEEP_EPSILONS, medae).statistic
    elapsed = time.perf_counter() - start
    ok = medae[0] > medae[-1] and rho <= 0 and elapsed < 300.0
    _report(
        4, "epsilon sweep trend", ok,
        f"medae={['%.1f' % m for m in medae]} spearman={rho:+.2f} elapsed={elapsed:.1f}s",
    )


def test_criterion_05_head_vs_tail_stability():
    records = synth_generate(10_000, 500, 10, 0.9, seed=505)
    wins = {}
    for eps in (1.0, 2.0):
        wins[eps] = 0
        for trial in range(5):
            privacy = PrivacyConfig(epsilon=1.0, delta=0.2, contribution_limit=1, seed=505 + trial)
            rows = head_tail_stability(
                records, privacy, epsilon=eps, trials=1, top_k=100, buckets=10
            )
            if rows[0].medae <= rows[-1].medae:
                wins[eps] += 1
    ok = all(w >= 4 for w in wins.values())
    _report(5, "head vs tail stability", ok, f"wins at eps 1.0/2.0 = {wins[1.0]}/{wins[2.0]} of 5")


def test_criterion_06_censoring_guarantee():
    tau = censor_threshold(1.0, 1e-6, 1.0)
    trials = 100_000
    # one cell per trial, each drawn at that trial's seed
    uniforms = np.concatenate([keyed_uniforms(t, (b"", "censor"), ["dim"]) for t in range(trials)])
    survived = len(release_sums(np.full(trials, 1.0), 1.0, 1.0, tau, uniforms))
    ok = survived <= 5
    _report(6, "censoring guarantee", ok, f"tau={tau:.3f} survived {survived}/{trials}")


def test_criterion_07_laplace_statistics():
    n = 1_000_000
    total = 0.0
    total_sq = 0.0
    uniforms = np.array([keyed_uniform(707, "stats", i) for i in range(n)])
    for x in laplace_from_uniform(uniforms, 1.0).tolist():
        total += x
        total_sq += x * x
    mean = total / n
    var = total_sq / n - mean * mean
    ok = abs(mean) < 0.01 and abs(var - 2.0) / 2.0 < 0.05
    _report(7, "laplace statistics", ok, f"mean={mean:+.4f} var={var:.4f}")


def test_criterion_08_empirical_dp_smoke():
    # neighboring datasets: 51 vs 50 users on one dimension, epsilon 1, no censoring
    epsilon = 1.0

    def histogram(exact, seed_base, trials=100_000):
        # one cell per trial, each drawn at that trial's seed
        uniforms = np.concatenate([keyed_uniforms(seed_base + t, (b"", "count"), ["dim"])
                                   for t in range(trials)])
        out = release_sums(np.full(trials, exact), 1.0, epsilon, 1e-9, uniforms)
        h = Counter(map(math.floor, out.sums.tolist()))
        h["censored"] += trials - len(out)
        return h

    h1 = histogram(51.0, 0)
    h2 = histogram(50.0, 10_000_000)
    bound = math.exp(epsilon) * 1.1
    worst = 0.0
    checked = 0
    for b in set(h1) | set(h2):
        c1, c2 = h1.get(b, 0), h2.get(b, 0)
        if min(c1, c2) >= 100:
            checked += 1
            worst = max(worst, c1 / c2, c2 / c1)
    ok = checked > 0 and worst <= bound
    _report(8, "empirical dp smoke", ok, f"bins={checked} worst ratio={worst:.3f} bound={bound:.3f}")


def test_criterion_09_determinism_across_threads(tmp_path):
    lines = ["id\tfeature\tpartition\tobservation"]
    rng = random.Random(909)
    for i in range(3000):
        lines.append(f"u{i}\tf{rng.randrange(40)}\tp{rng.randrange(5)}\t1.0")
    inp = tmp_path / "data.tsv"
    inp.write_text("\n".join(lines) + "\n", encoding="utf-8")

    rank_outputs = set()
    for run, threads in enumerate((1, 4, 8, 4)):
        out = tmp_path / f"rank{run}.tsv"
        rc = cli_main([
            "rank", "--input", str(inp), "--output", str(out),
            "--epsilon", "2.0", "--delta", "1e-2", "--seed", "99",
            "--threads", str(threads),
        ])
        assert rc == 0
        rank_outputs.add(out.read_bytes())

    eval_outputs = set()
    for run, threads in enumerate((1, 4, 8)):
        out = tmp_path / f"eval{run}"
        rc = cli_main([
            "eval", "--synth", "users=2000,features=50,partitions=5,strength=0.9",
            "--epsilons", "0.5,2.0", "--trials", "2", "--top-k", "40",
            "--delta", "0.2", "--epsilon", "1.0", "--seed", "99",
            "--threads", str(threads), "--output", str(out),
        ])
        assert rc == 0
        eval_outputs.add((out / "sweep.tsv").read_bytes() + (out / "stability.tsv").read_bytes())

    ok = len(rank_outputs) == 1 and len(eval_outputs) == 1
    _report(9, "determinism across threads", ok,
            f"distinct rank outputs={len(rank_outputs)} distinct eval outputs={len(eval_outputs)}")


def test_criterion_10_runtime_trend():
    start = time.perf_counter()
    records = synth_generate(1_000_000, 2000, 22, 0.7, seed=1010, zipf_exponent=1.2)
    rt = runtime_compare(records)
    elapsed = time.perf_counter() - start
    ok = rt.ratio >= 4.0 and elapsed < 600.0
    _report(
        10, "runtime trend", ok,
        f"batched={rt.batched_seconds:.2f}s binary={rt.binary_seconds:.2f}s "
        f"ratio={rt.ratio:.1f} elapsed={elapsed:.0f}s",
    )


def test_criterion_11_nfold_recovery():
    passes = 0
    recoveries = []
    for trial in range(5):
        master = 1100 + trial
        stage1, stage2, seeds, planted = two_stage_dataset(master)
        privacy = PrivacyConfig(
            epsilon=4.0, delta=1e-2, clamp_lo=0.0, clamp_hi=1.0,
            contribution_limit=6, seed=master,
        )
        accountant = BudgetAccountant(4.0)
        folds = [
            FoldSpec(records=stage1, epsilon=2.0, top_k=12),
            FoldSpec(records=stage2, epsilon=2.0, top_k=10),
        ]
        results = nfold(folds, seeds, privacy, accountant=accountant)
        assert accountant.spent_epsilon == pytest.approx(4.0)
        recovered = len(set(results[1].next_seeds) & planted) / len(planted)
        recoveries.append(recovered)
        if recovered >= 0.8:
            passes += 1
    ok = passes >= 3
    _report(11, "nfold recovery", ok,
            f"recoveries={['%.0f%%' % (r * 100) for r in recoveries]} passing trials={passes}/5")
