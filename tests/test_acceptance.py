"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to see them).  Tolerances are fixed here, not
calibrated at runtime."""

import time
from itertools import product
from math import log2

import pytest
from scipy.stats import fisher_exact

from delmatch import Distribution, achievable_rate
from delmatch.infotheory import binary_entropy
from delmatch.harness import (run_simulate_match, run_simulate_detect, check_counting,
                              check_posteriors, check_supersequence, check_g_subset_f)
from delmatch import cli

BERN = Distribution.bernoulli(0.5)
MASTER_SEED = 20260810
THREADS = 4


def _report(num, name, detail):
    print(f"[acceptance] C{num} {name}: PASS ({detail})")


def test_c01_rate_formula_fidelity():
    started = time.time()
    dists = [Distribution.bernoulli(p) for p in
             (0.05, 0.1, 0.15, 0.2, 0.3, 0.4, 0.5)]
    dists += [Distribution.uniform(q) for q in (2, 3, 4, 8)]
    dists += [Distribution((0.2, 0.3, 0.5)), Distribution((0.1, 0.2, 0.3, 0.4)),
              Distribution((0.6, 0.2, 0.1, 0.1))]
    deltas = (0.0, 0.15, 0.3, 0.45)
    points = 0
    worst = 0.0
    for dist, delta in product(dists, deltas):
        q = dist.alphabet_size
        no_info = max(0.0, dist.entropy - binary_entropy(delta)
                      - delta * log2(q - 1))
        full_info = (1.0 - delta) * dist.entropy
        dev = max(abs(achievable_rate(dist, delta, 0.0) - no_info),
                  abs(achievable_rate(dist, delta, 1.0) - full_info))
        worst = max(worst, dev)
        assert dev <= 1e-12
        points += 1
    assert points >= 50
    elapsed = time.time() - started
    assert elapsed < 1.0
    _report(1, "rate formula fidelity",
            f"{points} grid points, max deviation {worst:.2e}, {elapsed:.2f}s")


def test_c02_figure_curve_reproduction():
    started = time.time()
    full = achievable_rate(BERN, 0.4, 1.0)
    none = achievable_rate(BERN, 0.4, 0.0)
    assert full == pytest.approx(0.600000, abs=1e-9)
    assert none == pytest.approx(0.029049, abs=1e-5)
    ratio = full / none
    assert ratio == pytest.approx(20.7, abs=0.1)
    elapsed = time.time() - started
    assert elapsed < 1.0
    _report(2, "rate-curve reproduction",
            f"R(a=1)={full:.6f}, R(a=0)={none:.6f}, ratio {ratio:.2f}, {elapsed:.2f}s")


def test_c03_counting_oracle_equivalence():
    started = time.time()
    cases = 1000
    assert check_counting(cases, MASTER_SEED) == []
    elapsed = time.time() - started
    assert elapsed < 60.0
    _report(3, "counting oracle equivalence", f"{cases} instances, {elapsed:.1f}s")


def test_c04_posterior_oracle_equivalence():
    started = time.time()
    cases = 1000
    assert check_posteriors(cases, MASTER_SEED) == []
    elapsed = time.time() - started
    assert elapsed < 60.0
    _report(4, "posterior oracle equivalence", f"{cases} instances, {elapsed:.1f}s")


def test_c05_supersequence_count_and_bound():
    started = time.time()
    assert check_supersequence(MASTER_SEED, n_exact=12) == []
    elapsed = time.time() - started
    assert elapsed < 30.0
    _report(5, "supersequence count and bound",
            f"exact F(n, k, q) for n <= 12, bound for n <= 20, {elapsed:.1f}s")


def test_c06_detection_bound_never_violated():
    started = time.time()
    rows = []
    for delta in (0.25, 0.5):
        rows += run_simulate_detect(dist=BERN, n=(16, 64, 256), delta=delta, trials=500,
                                    seed=MASTER_SEED, B=(8, 16, 24), epsilon=0.05,
                                    threads=THREADS)
    margins = []
    for p in rows:
        slack = p.empirical_alpha + p.ci_half_width - p.bound
        assert slack >= 0.0, (p.n, p.B, p.delta, p.empirical_alpha, p.bound)
        margins.append(slack)
    elapsed = time.time() - started
    assert elapsed < 600.0
    _report(6, "detection bound never violated",
            f"{len(rows)} grid points, min slack {min(margins):.4f}, {elapsed:.0f}s")


def test_c07_g_implies_f():
    started = time.time()
    cases = 1000
    assert check_g_subset_f(cases, MASTER_SEED) == []
    elapsed = time.time() - started
    assert elapsed < 60.0
    _report(7, "g-Deleted implies f-Deleted", f"{cases} batches, {elapsed:.1f}s")


def test_c08_matching_trend_and_failure_regime():
    started = time.time()
    p16, p32 = run_simulate_match(dist=BERN, n=(16, 32), delta=0.2, trials=500,
                                  seed=MASTER_SEED, rate=0.25 * (1 - 0.2), alpha=1.0,
                                  threads=THREADS)
    table = [[p16.mismatches, p16.evaluated - p16.mismatches],
             [p32.mismatches, p32.evaluated - p32.mismatches]]
    res = fisher_exact(table, alternative="greater")
    assert p16.mismatch_rate > p32.mismatch_rate
    assert res.pvalue < 0.01

    (pf,) = run_simulate_match(dist=BERN, n=(32,), delta=0.2, trials=500, seed=MASTER_SEED,
                               rate=1.2 * BERN.entropy, alpha=1.0, threads=THREADS)
    assert pf.mismatch_rate >= 0.9
    elapsed = time.time() - started
    assert elapsed < 600.0
    _report(8, "matching trend and failure regime",
            f"mismatch {p16.mismatch_rate:.4f} -> {p32.mismatch_rate:.4f} "
            f"(p={res.pvalue:.1e}); overload rate {pf.mismatch_rate:.2f}, "
            f"{elapsed:.0f}s")


def test_c09_pipeline_reduction(tmp_path):
    started = time.time()
    common = ["--dist", "bern:0.5", "--n", "16", "--rate", "0.2", "--delta",
              "0.3", "--trials", "50", "--seed", "777", "--threads", "1"]
    pipe_csv = tmp_path / "pipe.csv"
    match_csv = tmp_path / "match.csv"
    assert cli.main(["pipeline", "--B", "0", "--out", str(pipe_csv)] + common) == 0
    assert cli.main(["simulate-match", "--alpha", "0", "--out", str(match_csv)]
                    + common) == 0

    pipe_row = dict(zip(*[ln.split(",") for ln in
                          pipe_csv.read_text().splitlines()]))
    sim_row = dict(zip(*[ln.split(",") for ln in
                         match_csv.read_text().splitlines()]))
    # shared result fields must agree byte for byte
    for col in ("n", "delta", "mismatch_rate", "CI"):
        assert pipe_row[col] == sim_row[col], col
    assert pipe_row["detected_fraction"] == "0.000000"

    # and the pipeline output itself is reproducible byte for byte
    again = tmp_path / "pipe2.csv"
    assert cli.main(["pipeline", "--B", "0", "--out", str(again)] + common) == 0
    assert again.read_bytes() == pipe_csv.read_bytes()
    elapsed = time.time() - started
    assert elapsed < 60.0
    _report(9, "pipeline reduction at B=0",
            f"mismatch_rate {sim_row['mismatch_rate']} identical, {elapsed:.1f}s")


def test_c10_byte_identical_output(tmp_path):
    started = time.time()
    commands = {
        "rates": ["rates", "--dist", "bern:0.5", "--deltas", "0:0.9:10",
                  "--alphas", "0,0.5,1"],
        "simulate-match": ["simulate-match", "--dist", "bern:0.5", "--n", "16",
                           "--rate", "0.2", "--delta", "0.2", "--alpha", "1",
                           "--trials", "40", "--seed", "5"],
        "simulate-detect": ["simulate-detect", "--dist", "bern:0.5", "--n",
                            "16,32", "--B", "8", "--delta", "0.5", "--trials",
                            "40", "--seed", "5"],
        "pipeline": ["pipeline", "--dist", "bern:0.5", "--n", "16", "--rate",
                     "0.25", "--delta", "0.3", "--B", "4", "--trials", "30",
                     "--seed", "5"],
    }
    for name, args in commands.items():
        outputs = []
        for i, threads in enumerate(("1", "8", "1")):
            out = tmp_path / f"{name}-{i}.csv"
            # rates runs no trials, so it takes no --threads; it is rerun alike
            workers = [] if name == "rates" else ["--threads", threads]
            code = cli.main(args + workers + ["--out", str(out)])
            assert code == 0, name
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2], name
    elapsed = time.time() - started
    assert elapsed < 300.0
    _report(10, "byte-identical output across workers and reruns",
            f"{len(commands)} commands, {elapsed:.0f}s")


def test_c11_rate_threshold_between_no_and_partial_detection():
    # R = 0.36 lies above the no-detection rate R*(0.2, 0) and below the
    # partial-detection rate R*(0.2, 0.5): as n grows, mismatch must rise
    # to 1 without side information and fall towards 0 with it.
    started = time.time()
    rate, n_values = 0.36, (100, 400, 1000)
    assert achievable_rate(BERN, 0.2, 0.0) < rate \
        < achievable_rate(BERN, 0.2, 0.5)
    assert max(n_values) * rate <= 512  # m = 2^(nR) stays within the closed form
    trends = {}
    for alpha, rising in ((0.0, True), (0.5, False)):
        points = run_simulate_match(dist=BERN, n=n_values, delta=0.2, trials=200,
                                    seed=MASTER_SEED, rate=rate, alpha=alpha)
        assert all(p.mode == "virtual" for p in points)
        for a, b in zip(points, points[1:]):
            table = [[a.mismatches, a.evaluated - a.mismatches],
                     [b.mismatches, b.evaluated - b.mismatches]]
            res = fisher_exact(table, alternative="less" if rising else "greater")
            assert res.pvalue < 0.01, (alpha, a.n, b.n)
        trends[alpha] = [p.mismatch_rate for p in points]
    assert trends[0.0][-1] >= 0.9
    assert trends[0.5][-1] <= 0.05
    elapsed = time.time() - started
    assert elapsed < 60.0
    _report(11, "rate threshold between no and partial detection",
            "; ".join(f"alpha={a}: " + " -> ".join(f"{r:.3f}" for r in rates)
                       for a, rates in trends.items()) + f", {elapsed:.1f}s")
