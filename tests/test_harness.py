import contextlib
import dataclasses
import errno
import hashlib
import io
import math
import time
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from delmatch import detector, harness
from delmatch.detector import Verdict, detect_f, detection_trials
from delmatch.harness import (ExperimentConfig, ConfigError, run_rates, run_simulate_match,
                              run_simulate_detect, run_pipeline, run_oracle_check,
                              parse_distribution, parse_float_grid, parse_int_list,
                              parse_config_file, _match_trial,
                              _virtual_match_trial, CELL_GUARD)
from delmatch.infotheory import entropy
from delmatch.matcher import MatcherConfig, match_all, match_counts
from delmatch.model import (Distribution, sample_database, apply_deletion_channel,
                            extract_seed_batch, derive_seed)
from delmatch import cli

BERN = Distribution.bernoulli(0.5)


# -- configuration -----------------------------------------------------------

def test_parse_distribution_specs():
    assert parse_distribution("bern:0.2").probabilities == (0.8, 0.2)
    assert parse_distribution("uniform:4").alphabet_size == 4
    assert parse_distribution("0.2,0.3,0.5").probabilities == (0.2, 0.3, 0.5)
    with pytest.raises(ConfigError):
        parse_distribution("nonsense")


def test_parse_grids():
    assert parse_float_grid("0:1:3") == (0.0, 0.5, 1.0)
    assert parse_float_grid("0.1,0.4") == (0.1, 0.4)
    assert parse_int_list("16,32") == (16, 32)
    with pytest.raises(ConfigError, match="count >= 1"):
        parse_float_grid("0:0.9:0")


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\ndist = bern:0.5\nn = 16\n\ndelta = 0.2\n"
                    "detect-epsilon = 0.3\nthreads = 2\n")
    assert parse_config_file(str(path)) == {"dist": "bern:0.5", "n": "16",
                                            "delta": "0.2", "detect_epsilon": "0.3",
                                            "threads": "2"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("just words\n")
    with pytest.raises(ConfigError):
        parse_config_file(str(bad))


def test_experiment_config_validation():
    base = dict(dist=BERN, n_values=(16,), delta=0.2, trials=10, master_seed=0)
    # neither rate nor m suits detection alone; a matching sweep needs one
    with pytest.raises(ConfigError, match="rate/m"):
        ExperimentConfig(**base, alpha=1.0).resolve_m(16)
    with pytest.raises(ConfigError, match="rate/m"):
        run_simulate_match(_match_cfg(rate=None))
    with pytest.raises(ConfigError, match="rate/m"):
        run_pipeline(_match_cfg(rate=None, alpha=None, batch_sizes=(2,)))
    with pytest.raises(ConfigError):
        ExperimentConfig(**base, rate=0.2, m=9, alpha=1.0)
    with pytest.raises(ConfigError):
        ExperimentConfig(**base, rate=0.2)  # no side-info mode
    with pytest.raises(ConfigError):
        ExperimentConfig(**base, rate=0.2, alpha=1.0, batch_sizes=(4,))
    with pytest.raises(ConfigError, match="non-empty"):
        ExperimentConfig(**base, batch_sizes=())
    for threads in (0, -4):
        with pytest.raises(ConfigError, match="threads must be >= 1"):
            ExperimentConfig(**base, batch_sizes=(4,), threads=threads)
    cfg = ExperimentConfig(**base, rate=0.2, alpha=1.0)
    assert cfg.resolve_m(16) == round(2 ** 3.2) == 9
    assert cfg.resolve_m(32) == 84
    cfg_m = ExperimentConfig(**base, m=64, alpha=1.0)
    assert cfg_m.rate_for(16) == pytest.approx(6 / 16)


# -- rates ---------------------------------------------------------------------

def test_rates_no_deletion_gives_entropy():
    points = run_rates(Distribution.bernoulli(0.3), [0.0], [0.0, 0.5, 1.0])
    for p in points:
        assert p.rate == pytest.approx(entropy(Distribution.bernoulli(0.3)), abs=1e-12)


def test_rates_erasure_point():
    (p,) = run_rates(BERN, [0.5], [1.0])
    assert p.rate == pytest.approx(0.5, abs=1e-12)
    assert p.regime_ok is False  # boundary: needs delta strictly below 1 - 1/q


def test_rates_twenty_fold_gap():
    points = {("%.2f" % p.alpha): p.rate for p in run_rates(BERN, [0.4], [0.0, 1.0])}
    assert points["1.00"] / points["0.00"] == pytest.approx(20.7, abs=0.1)


def test_rates_csv_and_manifest(tmp_path, monkeypatch):
    clock = iter([100.0, 101.25])
    monkeypatch.setattr(harness, "time", types.SimpleNamespace(
        time=lambda: next(clock), strftime=time.strftime, gmtime=time.gmtime))
    out = tmp_path / "rates.csv"
    run_rates(BERN, [0.0, 0.4], [0.0, 1.0], str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "delta,alpha,rate,regime_ok"
    assert lines[1] == "0.000000,0.000000,1.000000,true"
    manifest = (tmp_path / "rates.csv.manifest.txt").read_text()
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    assert f"csv_sha256 = {digest}" in manifest
    assert "command = rates" in manifest
    assert "elapsed_seconds = 1.250\n" in manifest
    # rates draws no random numbers, so it states no seed rule
    assert not [line for line in manifest.splitlines()
                if line.startswith(("seed_rule", "master_seed", "trial_seed"))]


# -- simulate-match ---------------------------------------------------------------

def _match_cfg(**over):
    base = dict(dist=BERN, n_values=(16,), delta=0.2, trials=30, master_seed=11,
                rate=0.2, alpha=1.0)
    base.update(over)
    return ExperimentConfig(**base)


def test_simulate_match_deterministic_across_threads():
    a = run_simulate_match(_match_cfg(threads=1))
    b = run_simulate_match(_match_cfg(threads=4))
    assert a == b


def test_simulate_match_low_rate_mostly_correct():
    (p,) = run_simulate_match(_match_cfg(n_values=(24,), trials=60))
    assert p.mode == "materialized"
    assert p.mismatch_rate <= 0.05


def test_simulate_match_needs_alpha():
    with pytest.raises(ConfigError):
        run_simulate_match(_match_cfg(alpha=None, batch_sizes=(4,)))


def test_simulate_match_guard_refusal():
    cfg = _match_cfg(dist=Distribution((0.7, 0.2, 0.1)), rate=None, m=2 ** 18,
                     n_values=(64,))
    with pytest.raises(ConfigError, match="guard"):
        run_simulate_match(cfg)


def test_virtual_mode_engages_beyond_guard():
    cfg = _match_cfg(rate=None, m=2 ** 18, n_values=(64,), trials=5)
    assert 2 ** 18 * 64 > CELL_GUARD
    (p,) = run_simulate_match(cfg)
    assert p.mode == "virtual"
    assert p.evaluated == 5 * harness.EVAL_ROWS


def test_virtual_trial_matches_materialized_statistically():
    # the virtual path samples each row's exact mismatch marginal; pooled
    # rates over many trials must agree within Monte Carlo noise
    n, m, delta = 10, 32, 0.3
    for alpha in (0.0, 0.5, 1.0):
        wrong_mat = wrong_virt = total_mat = total_virt = 0
        for t in range(400):
            seed = derive_seed(2024, t)
            w, e, _, _ = _match_trial((BERN, n, m, delta, alpha, 0, 0.1, None, seed))
            wrong_mat += w
            total_mat += e
            w, e, _, _ = _virtual_match_trial((BERN, n, m, delta, alpha, seed))
            wrong_virt += w
            total_virt += e
        rate_mat = wrong_mat / total_mat
        rate_virt = wrong_virt / total_virt
        assert abs(rate_mat - rate_virt) < 0.03, (alpha, rate_mat, rate_virt)


SKEWED = Distribution((0.75, 0.25))


def _assert_trial_counts_like_brute_force(dist, m, n, delta, alpha, b, seed):
    # the rows left after any seed batch, scored row by row against
    # match_counts' rows and outcome by outcome against match_all's
    wrong, evaluated, detected_cols, deleted_cols = _match_trial(
        (dist, n, m, delta, alpha, b, 0.1, 0.1, seed))
    c1 = sample_database(dist, m, n, derive_seed(seed, harness.STREAM_DATABASE))
    exp = apply_deletion_channel(c1, delta, alpha,
                                 derive_seed(seed, harness.STREAM_CHANNEL))
    perm = exp.labeling.perm
    detected, remaining = exp.detection.detected_indices.tolist(), list(range(m))
    if b:
        batch = extract_seed_batch(exp, b, derive_seed(seed, harness.STREAM_BATCH))
        detected = [j for j, v in enumerate(detect_f(batch, dist, 0.1))
                    if v is Verdict.DELETED]
        remaining = sorted(set(remaining) - set(perm[batch.source_rows].tolist()))
    _, rows = match_counts(exp.c1, exp.c2.symbols[remaining], detected,
                           MatcherConfig(epsilon=0.1), dist)
    outcomes, _ = match_all(exp.c1, exp.c2.symbols[remaining], detected,
                            MatcherConfig(epsilon=0.1), dist)
    assert (evaluated, detected_cols) == (len(remaining), len(detected))
    assert deleted_cols == int(exp.deletion.flags.sum())
    assert wrong == sum(not (row >= 0 and perm[row] == j)
                        for row, j in zip(rows.tolist(), remaining))
    assert wrong == sum(not (o.is_match and perm[o.row] == j)
                        for o, j in zip(outcomes, remaining))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([BERN, SKEWED]), st.integers(1, 40), st.integers(1, 12),
       st.sampled_from([0.0, 0.3, 0.6]), st.sampled_from([0.0, 0.5, 1.0]),
       st.integers(0, 2 ** 64 - 1))
def test_match_trial_counts_like_mismatch_rate(dist, m, n, delta, alpha, seed):
    # simulate-match's (alpha, B = 0) draws
    _assert_trial_counts_like_brute_force(dist, m, n, delta, alpha, 0, seed)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([BERN, SKEWED]), st.integers(2, 40), st.integers(1, 12),
       st.sampled_from([0.0, 0.3, 0.6]), st.integers(0, 8),
       st.integers(0, 2 ** 64 - 1))
def test_pipeline_trial_counts_like_match_all(dist, m, n, delta, b, seed):
    # pipeline's (alpha = 0, B) draws; b = m leaves no row to match
    _assert_trial_counts_like_brute_force(dist, m, n, delta, 0.0, min(b, m), seed)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 24), st.integers(1, 12), st.sampled_from([0.0, 0.3, 0.6, 0.9]),
       st.sampled_from([0.0, 0.5, 1.0]), st.integers(0, 2 ** 64 - 1))
def test_virtual_trial_detects_and_deletes_like_materialized(m, n, delta, alpha, seed):
    # the closed form reads the materialized channel's streams, so its
    # detected and deleted counts are the same for every seed
    assert (_virtual_match_trial((BERN, n, m, delta, alpha, seed))[2:]
            == _match_trial((BERN, n, m, delta, alpha, 0, 0.1, None, seed))[2:])


def test_simulate_match_csv(tmp_path):
    out = tmp_path / "match.csv"
    run_simulate_match(_match_cfg(out=str(out)))
    lines = out.read_text().splitlines()
    assert lines[0] == "n,R,delta,alpha,trials,mismatch_rate,CI"
    assert len(lines) == 2
    manifest = (tmp_path / "match.csv.manifest.txt").read_text()
    assert "trial_seed.0.0 = " in manifest
    assert "master_seed = 11" in manifest


# -- simulate-detect ---------------------------------------------------------------

def _detect_cfg(n_values, batch_sizes, delta, epsilon, trials, master_seed, **over):
    return ExperimentConfig(BERN, n_values, delta, trials, master_seed,
                            batch_sizes=batch_sizes, detect_epsilon=epsilon, **over)


def test_simulate_detect_deterministic_and_bounded():
    pts1 = run_simulate_detect(_detect_cfg((16,), (8, 16), 0.5, 0.05, 50, 3, threads=1))
    pts4 = run_simulate_detect(_detect_cfg((16,), (8, 16), 0.5, 0.05, 50, 3, threads=4))
    assert pts1 == pts4
    for p in pts1:
        assert 0.0 <= p.empirical_alpha <= 1.0
        assert p.empirical_alpha + p.ci_half_width >= p.bound


def test_sweep_runs_every_point_on_one_pool(monkeypatch):
    pools = []
    real_pool = harness.ProcessPoolExecutor

    def counting_pool(*args, **kwargs):
        pools.append(kwargs)
        return real_pool(*args, **kwargs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", counting_pool)
    detect = run_simulate_detect(_detect_cfg((16, 24), (4, 8), 0.5, 0.05, 10, 3, threads=2))
    assert len(pools) == 1
    # one materialized and one closed-form point in the same pool
    mixed = _match_cfg(n_values=(8, 120), trials=4)
    match = run_simulate_match(dataclasses.replace(mixed, threads=2))
    assert len(pools) == 2
    monkeypatch.undo()
    assert [p.mode for p in match] == ["materialized", "virtual"]
    assert match == run_simulate_match(mixed)
    assert detect == run_simulate_detect(_detect_cfg((16, 24), (4, 8), 0.5, 0.05, 10, 3))


@pytest.mark.parametrize("command", [
    ["simulate-detect", "--dist", "0.7,0.2,0.1", "--n", "1,9,40", "--B", "2,5",
     "--delta", "0.3", "--trials", "13"],
    ["simulate-match", "--dist", "bern:0.5", "--n", "8,120", "--rate", "0.5",
     "--delta", "0.3", "--alpha", "0.5", "--trials", "7"],
    ["pipeline", "--dist", "0.7,0.2,0.1", "--n", "12", "--m", "40", "--delta", "0.3",
     "--B", "0,3", "--trials", "7"],
])
def test_chunking_cannot_change_output(tmp_path, monkeypatch, command):
    # one trial per chunk, the default bound, and a whole point per chunk
    # (at 3 workers, a third of a point), each at 1 and 3 workers
    outputs = set()
    for cells in (1, harness.CHUNK_CELLS, 2 ** 40):
        monkeypatch.setattr(harness, "CHUNK_CELLS", cells)
        for threads in (1, 3):
            out = tmp_path / f"{cells}-{threads}.csv"
            assert cli.main(command + ["--seed", "6", "--threads", str(threads),
                                       "--out", str(out)]) == 0
            manifest = (tmp_path / f"{out.name}.manifest.txt").read_text()
            seeds = [line for line in manifest.splitlines() if line.startswith("trial_seed.")]
            outputs.add((out.read_bytes(), tuple(seeds)))
    assert len(outputs) == 1


@pytest.mark.parametrize("n, b", [(1024, 8), (1024, 16), (64, 16)])
def test_detection_chunk_peak_allocation_within_budget(monkeypatch, n, b):
    # The largest chunk a one-worker sweep hands detection_trials, with a
    # budget for the 2^15-cell bound's C columns: the stacked d1 (C * B
    # bytes), one trial's float draws, four int64 arrays of C entries, the
    # greedy scans' Python lists (about 4 x 36 bytes per column) and 64 KiB.
    # A chunk twice the bound, or a whole 100-trial point, exceeds it.
    chunks = []

    def record(*args):
        chunks.append(args[-1])
        return 0, 1
    monkeypatch.setattr(harness, "detection_trials", record)
    run_simulate_detect(_detect_cfg((n,), (b,), 0.3, 0.05, 100, 5))
    seeds = max(chunks, key=len)
    cols = min(2 ** 15 // (b * n), 100) * n
    budget = cols * b + b * n * 8 + 4 * cols * 8 + 4 * 36 * cols + 64 * 1024
    detection_trials(BERN, n, b, 0.3, 0.05, seeds[:1])  # first-call allocations
    tracemalloc.start()
    try:
        detection_trials(BERN, n, b, 0.3, 0.05, seeds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget, (len(seeds), peak, budget)


def test_simulate_detect_rejects_false_deleted_verdict(monkeypatch):
    # a Deleted verdict on a retained column is a fault, not a count: it
    # names the seed of the first trial with one
    real = detector._certain_masks

    def lying_masks(ids1, ids2, retained=None):
        deleted, kept = real(ids1, ids2, retained)
        deleted[np.argmax(retained)] = True
        return deleted, kept
    monkeypatch.setattr(detector, "_certain_masks", lying_masks)
    seeds = [derive_seed(3, 0, t) for t in range(5)]
    first = next(s for s in seeds if not detector.trial_deletions(s, 16, 0.5).all())
    with pytest.raises(RuntimeError, match=f"as deleted \\(trial seed {first}\\)"):
        run_simulate_detect(_detect_cfg((16,), (8,), 0.5, 0.05, 5, 3))


def test_simulate_detect_requires_deletions():
    with pytest.raises(RuntimeError):
        run_simulate_detect(_detect_cfg((8,), (4,), 0.0, 0.05, 5, 3))


def test_simulate_detect_csv(tmp_path):
    out = tmp_path / "detect.csv"
    run_simulate_detect(_detect_cfg((16,), (8,), 0.5, 0.05, 20, 3, out=str(out)))
    lines = out.read_text().splitlines()
    assert lines[0] == "n,B,empirical_alpha,CI,theorem2_bound"


# -- pipeline -----------------------------------------------------------------------

def test_pipeline_reduces_to_simulate_match_at_b0():
    match_pts = run_simulate_match(_match_cfg(alpha=0.0, delta=0.3, trials=40))
    pipe_pts = run_pipeline(_match_cfg(alpha=None, batch_sizes=(0,), delta=0.3,
                                       trials=40))
    (mp,), (pp,) = match_pts, pipe_pts
    assert (mp.mismatches, mp.evaluated) == (pp.mismatches, pp.evaluated)
    assert mp.mismatch_rate == pp.mismatch_rate
    assert (mp.ci_low, mp.ci_high) == (pp.ci_low, pp.ci_high)


def test_pipeline_detects_and_matches():
    cfg = _match_cfg(alpha=None, batch_sizes=(8,), delta=0.3, n_values=(20,),
                     rate=None, m=24, trials=30)
    (p,) = run_pipeline(cfg)
    assert p.evaluated == 30 * (24 - 8)
    assert 0.0 <= p.detected_fraction <= 1.0
    assert p.deleted_cols > 0


def test_pipeline_more_seeds_help():
    common = dict(alpha=None, delta=0.3, n_values=(24,), rate=None, m=32,
                  trials=40, master_seed=5)
    lo = run_pipeline(_match_cfg(batch_sizes=(0,), **common))[0]
    hi = run_pipeline(_match_cfg(batch_sizes=(16,), **common))[0]
    assert hi.detected_fraction >= lo.detected_fraction
    assert hi.mismatch_rate <= lo.mismatch_rate + 0.02


def test_match_trial_rejects_false_deleted_verdict(monkeypatch):
    # delta = 0 deletes nothing, so any Deleted verdict is false
    def lying_detector(batch, dist, epsilon):
        return [Verdict.DELETED] + [Verdict.RETAINED] * (batch.n - 1)
    monkeypatch.setattr(harness, "detect_f", lying_detector)
    with pytest.raises(RuntimeError, match="as deleted"):
        _match_trial((BERN, 8, 16, 0.0, 0.0, 4, 0.1, 0.1, 123))


def test_pipeline_batch_guard():
    cfg = _match_cfg(alpha=None, batch_sizes=(9,), rate=0.2)  # m = 9 at n = 16
    with pytest.raises(ConfigError, match="batch"):
        run_pipeline(cfg)


def test_simulate_match_single_row_trivial():
    # R = 0 gives m = 1; with a uniform alphabet the lone row always matches
    (p,) = run_simulate_match(_match_cfg(rate=0.0, trials=20))
    assert p.evaluated == 20
    assert p.mismatch_rate == 0.0


def test_simulate_detect_double_log_batch_trend():
    # B = 2 log2(n): detection probability climbs toward 1 - eps with n
    estimates = []
    for n in (16, 64, 256):
        b = 2 * int(math.log2(n))
        (p,) = run_simulate_detect(_detect_cfg((n,), (b,), 0.5, 0.05, 150, 77,
                                               threads=4))
        estimates.append(p.empirical_alpha)
    assert estimates[0] <= estimates[1] <= estimates[2]
    assert estimates[2] >= 0.99


def test_simulate_match_overload_rate_tends_to_one():
    # above-entropy growth rate: collisions dominate and worsen with n
    cfg = _match_cfg(rate=1.2, n_values=(16, 24, 32), trials=100)
    pts = run_simulate_match(cfg)
    assert all(p.mode == "virtual" for p in pts)
    rates = [p.mismatch_rate for p in pts]
    assert rates[0] <= rates[1] <= rates[2]
    assert rates[2] >= 0.999


def test_pipeline_mismatch_nonincreasing_in_seeds():
    # m = 9 at (n = 32, R = 0.1), so seed batches up to B = 8 are possible
    common = dict(alpha=None, delta=0.3, n_values=(32,), rate=0.1, trials=200,
                  master_seed=31, threads=4)
    rates = [run_pipeline(_match_cfg(batch_sizes=(b,), **common))[0].mismatch_rate
             for b in (0, 2, 4, 8)]
    assert all(later <= earlier + 0.05 for earlier, later in zip(rates, rates[1:]))
    assert rates[-1] < rates[0]


# -- oracle check ---------------------------------------------------------------------

def test_oracle_check_passes():
    report = run_oracle_check(master_seed=1, cases=120)
    assert report.passed
    assert len(report.suites) == 5


def _stops_before_rejoining(real):
    """A greedy scan whose re-placements stop one symbol before they rejoin
    the known embedding: that symbol keeps its old place."""
    def scan(ids1, ids2, places, starts):
        before = list(places)
        after = list(real(ids1, ids2, places, starts))
        for t in range(1, len(after)):
            if after[t] == before[t] and after[t - 1] != before[t - 1]:
                after[t - 1] = before[t - 1]
        return after
    return scan


@pytest.mark.parametrize("suite, module, target, mutant", [
    (lambda: harness.check_counting(40, 1), harness, "count_embeddings",
     lambda real: lambda d1, d2: real(d1, d2) + 1),
    (lambda: harness.check_posteriors(40, 1), harness, "posterior_deletions",
     lambda real: lambda batch: [p / 2 for p in real(batch)]),
    (lambda: harness.check_supersequence(1), harness, "supersequence_count_exact",
     lambda real: lambda n, k, q: real(n, k, q) + 1),
    (lambda: harness.check_g_subset_f(40, 1), harness, "detect_g",
     lambda real: lambda batch, dist, eps: [Verdict.DELETED] * batch.n),
    # a detect_g that never says Deleted gives the suite nothing to check
    (lambda: harness.check_g_subset_f(40, 1), harness, "detect_g",
     lambda real: lambda batch, dist, eps: [Verdict.INCONCLUSIVE] * batch.n),
    (lambda: harness.check_fast_kernel(40, 1), harness, "certain_verdict_masks",
     lambda real: lambda d1, d2: real(d1, d2)[::-1]),  # deleted and retained swapped
    # only the known-embedding masks re-place from an embedding and rejoin it
    (lambda: harness.check_fast_kernel(40, 1), detector, "_greedy_scan",
     _stops_before_rejoining),
], ids=["counting", "posteriors", "supersequence", "g_subset_f", "g_subset_f_never_deleted",
        "fast_kernel", "fast_kernel_chain_stops_early"])
def test_oracle_suite_catches_mutant(monkeypatch, suite, module, target, mutant):
    # a suite that passed a broken implementation would leave oracle-check at "ok"
    monkeypatch.setattr(module, target, mutant(getattr(module, target)))
    assert suite()


# -- CLI ----------------------------------------------------------------------------

def test_cli_rates_stdout(capsys):
    assert cli.main(["rates", "--dist", "bern:0.5", "--deltas", "0.4",
                     "--alphas", "0,1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "delta,alpha,rate,regime_ok"
    assert out[1] == "0.400000,0.000000,0.029049,true"
    assert out[2] == "0.400000,1.000000,0.600000,true"


def test_cli_usage_errors(capsys):
    assert cli.main(["no-such-command"]) == 2
    assert cli.main(["simulate-match", "--dist", "bern:0.5"]) == 2  # missing --n
    assert cli.main(["simulate-match", "--n", "8", "--delta", "0.2",
                     "--rate", "0.2", "--m", "4", "--alpha", "1"]) == 2
    capsys.readouterr()
    assert cli.main(["rates", "--deltas", "0:0.9:0"]) == 2  # a grid of no points
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("args, message", [
    (["simulate-detect", "--n", "", "--B", "4", "--delta", "0.3"],
     "--n: invalid literal for int() with base 10: ''"),
    (["simulate-detect", "--n", "8", "--B", "x", "--delta", "0.3"],
     "--B: invalid literal for int() with base 10: 'x'"),
    (["rates", "--deltas", "0.1,x"], "--deltas: could not convert string to float: 'x'"),
    (["rates", "--alphas", "0:1"], "--alphas: bad grid spec '0:1'"),
], ids=["n", "B", "deltas", "alphas"])
def test_cli_list_parse_errors_name_their_option(capsys, monkeypatch, args, message):
    monkeypatch.setattr(harness, "_sweep", _no_sweep)
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def _match_argv(*left_out):
    flags = {"--n": "8", "--m": "16", "--delta": "0.2", "--alpha": "1"}
    return ["simulate-match"] + [x for flag, value in flags.items() if flag not in left_out
                                 for x in (flag, value)]


@pytest.mark.parametrize("key, base", [
    ("seed", _match_argv()), ("trials", _match_argv()), ("threads", _match_argv()),
    ("m", _match_argv("--m")), ("rate", _match_argv("--m")),
    ("delta", _match_argv("--delta")), ("alpha", _match_argv("--alpha")),
    ("epsilon", _match_argv()),
    ("detect_epsilon", ["pipeline", "--n", "8", "--m", "16", "--delta", "0.2", "--B", "2"]),
    ("cases", ["oracle-check"]),
])
def test_cli_bad_value_fails_alike_as_flag_and_config_line(tmp_path, capsys, monkeypatch,
                                                          key, base):
    monkeypatch.setattr(harness, "_sweep", _no_sweep)
    monkeypatch.setattr(harness, "check_counting", _no_sweep)
    option = "--" + key.replace("_", "-")
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"{key} = x\n")
    results = []
    for argv in (base + [f"{option}=x"], base + ["--config", str(cfgfile)]):
        code = cli.main(argv)
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    assert results[0] == results[1]
    code, out, err = results[0]
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {option}: ") and err.count("\n") == 1


def test_cli_rejects_nan_distribution(capsys):
    assert cli.main(["rates", "--dist", "bern:nan", "--deltas", "0.4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "finite" in captured.err


@pytest.mark.parametrize("q", ["0", "1", "257"])
def test_cli_rejects_uniform_alphabet_out_of_range(capsys, q):
    assert cli.main(["rates", "--dist", f"uniform:{q}", "--deltas", "0.4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: bad distribution spec 'uniform:{q}': "
                            f"alphabet size must be in [2, 256], got {q}\n")


def _no_sweep(*args):
    raise AssertionError("trials ran")


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
@pytest.mark.parametrize("command", [
    ["simulate-match", "--n", "8", "--m", "16", "--delta", "0.2", "--alpha", "1"],
    ["simulate-detect", "--n", "8", "--B", "4", "--delta", "0.3"],
    ["pipeline", "--n", "8", "--m", "16", "--delta", "0.2", "--B", "2"],
    ["oracle-check", "--cases", "2"],
])
def test_cli_rejects_seed_outside_64_bits(capsys, monkeypatch, command, seed):
    # -1 and 2^64 would alias 2^64 - 1 and 0 in the seed derivation
    monkeypatch.setattr(harness, "_sweep", _no_sweep)
    monkeypatch.setattr(harness, "check_counting", _no_sweep)
    assert cli.main(command + ["--seed", seed]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: seed must be in [0, ")
    assert captured.err.endswith(f"got {seed}\n") and captured.err.count("\n") == 1


@pytest.mark.parametrize("args", [
    ["rates", "--deltas", "0:0.9:4", "--alphas", "0,1"],
    ["simulate-match", "--n", "8", "--m", "16", "--delta", "0.2", "--alpha", "0.5",
     "--trials", "3"],
    ["simulate-detect", "--n", "8", "--B", "4", "--delta", "0.3", "--trials", "3"],
    ["pipeline", "--n", "8", "--m", "16", "--delta", "0.2", "--B", "0,2",
     "--trials", "3"],
])
def test_cli_stdout_equals_out_file(tmp_path, capsys, args):
    assert cli.main(args) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "out.csv"
    assert cli.main(args + ["--out", str(out)]) == 0
    assert printed.encode() == out.read_bytes()


@pytest.mark.parametrize("bad, message", [
    (["--m", "16", "--epsilon", "nan"], "epsilon must be finite"),
    (["--m", "16", "--epsilon", "-0.5"], "epsilon must be finite"),
    (["--rate", "-1"], "rate must be finite"),
    (["--rate", "nan"], "rate must be finite"),
    (["--m", "0"], "m must be >= 1"),
    # a closed-form trial takes m - 1 as a float
    (["--dist", "uniform:2", "--m", str(2 ** 512 + 1)], "m must be >= 1 and <= 2^512"),
])
def test_cli_rejects_bad_sweep_parameters(capsys, bad, message):
    args = ["simulate-match", "--dist", "bern:0.5", "--n", "8", "--delta", "0.2",
            "--alpha", "1", "--trials", "2"]
    assert cli.main(args + bad) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


def test_cli_rejects_bad_detect_and_pipeline_parameters(capsys):
    detect = ["simulate-detect", "--dist", "bern:0.5", "--n", "8", "--B", "4",
              "--trials", "2"]
    assert cli.main(detect + ["--delta", "0.3", "--epsilon", "nan"]) == 2
    assert cli.main(detect + ["--delta", "nan"]) == 2
    assert cli.main(["pipeline", "--dist", "bern:0.5", "--n", "8", "--m", "16",
                     "--delta", "0.2", "--B", "2", "--trials", "2",
                     "--detect-epsilon", "inf"]) == 2
    assert capsys.readouterr().out == ""


def test_cli_detect_uniform3_columns_typical_at_epsilon_zero(tmp_path):
    # Every uniform:3 column is exactly typical; the float mean of -log2 p
    # and H(X) round differently, which must not reject them at epsilon 0.
    out = tmp_path / "detect.csv"
    assert cli.main(["simulate-detect", "--dist", "uniform:3", "--n", "16",
                     "--B", "8", "--delta", "0.3", "--trials", "20",
                     "--epsilon", "0", "--seed", "1", "--out", str(out)]) == 0
    header, row = out.read_text().splitlines()
    fields = dict(zip(header.split(","), map(float, row.split(","))))
    assert fields["empirical_alpha"] + fields["CI"] >= fields["theorem2_bound"]


class _FullDisk:
    """A file that takes half of the first write, then fails."""

    def __init__(self, path, mode):
        self.f = open(path, mode)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.f.close()

    def write(self, data):
        self.f.write(data[:len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def test_emit_failed_write_leaves_previous_output(tmp_path, monkeypatch):
    out = tmp_path / "detect.csv"
    run_simulate_detect(_detect_cfg((16,), (8,), 0.5, 0.05, 5, 3, out=str(out)))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    monkeypatch.setattr(harness, "open", _FullDisk, raising=False)
    with pytest.raises(OSError):
        run_simulate_detect(_detect_cfg((16,), (8,), 0.5, 0.05, 5, 4, out=str(out)))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    with pytest.raises(OSError):
        run_simulate_detect(_detect_cfg((16,), (8,), 0.5, 0.05, 5, 4,
                                        out=str(tmp_path / "new.csv")))
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_cli_unwritable_out_fails_before_any_trial(tmp_path, capsys, monkeypatch):
    def no_trial(*args):
        raise AssertionError("a trial ran")
    monkeypatch.setattr(harness, "detection_trials", no_trial)
    detect = ["simulate-detect", "--dist", "bern:0.5", "--n", "8", "--B", "4",
              "--delta", "0.3", "--trials", "5", "--out"]
    for out in (tmp_path / "missing" / "x.csv", tmp_path):
        assert cli.main(detect + [str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert cli.main(["oracle-check", "--cases", "1",
                     "--out", str(tmp_path / "missing" / "x.txt")]) == 2
    assert "does not exist" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_cli_os_error_is_one_error_line(tmp_path, capsys):
    assert cli.main(["simulate-detect", "--config", str(tmp_path / "none.cfg")]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_oracle_check_exit_code(capsys):
    assert cli.main(["oracle-check", "--cases", "40", "--seed", "2"]) == 0
    assert "all suites passed" in capsys.readouterr().out


@pytest.mark.parametrize("cases", ["-3", "0"])
def test_cli_oracle_check_rejects_no_cases(capsys, cases):
    assert cli.main(["oracle-check", "--cases", cases]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cases must be >= 1" in captured.err


def test_cli_oracle_check_failed_write_leaves_previous_output(tmp_path, monkeypatch):
    out = tmp_path / "oracle.txt"
    out.write_text("previous report\n")
    monkeypatch.setattr(harness, "open", _FullDisk, raising=False)
    assert cli.main(["oracle-check", "--cases", "2", "--out", str(out)]) == 2
    assert [p.name for p in tmp_path.iterdir()] == ["oracle.txt"]
    assert out.read_text() == "previous report\n"


@pytest.mark.parametrize("grid", [
    ["--n", "64", "--B", "0,8", "--trials", "2000"],
    ["--n", "64", "--B", "-1"],
    ["--n", "0", "--B", "8"],
    ["--n", "8", "--B", "4", "--trials", "2", "--threads", "-4"],
    ["--n", "8", "--B", "4", "--trials", "2", "--threads", "0"],
])
def test_cli_detect_grid_errors_come_before_any_trial(capsys, monkeypatch, grid):
    def no_sweep(*args):
        raise AssertionError("trials ran")
    monkeypatch.setattr(harness, "_sweep", no_sweep)
    assert cli.main(["simulate-detect", "--dist", "bern:0.5", "--delta", "0.3"]
                    + grid) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_cli_detect_refuses_batch_cells_beyond_the_guard(capsys, monkeypatch):
    # one trial of B = 10^8 at n = 8 would draw a 6.4 GB float64 batch
    monkeypatch.setattr(harness, "_sweep", _no_sweep)
    started = time.perf_counter()
    assert cli.main(["simulate-detect", "--dist", "bern:0.5", "--n", "8", "--B",
                     "100000000", "--delta", "0.3", "--trials", "1"]) == 2
    assert time.perf_counter() - started < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: B*n = 800000000 exceeds the work guard "
                            f"{CELL_GUARD}; reduce B to <= {CELL_GUARD // 8} at n = 8\n")
    # B*n at the guard itself is planned
    cfg = ExperimentConfig(dist=Distribution.bernoulli(0.5), n_values=(8,), delta=0.5,
                           trials=1, master_seed=0, batch_sizes=(CELL_GUARD // 8,))
    with pytest.raises(AssertionError, match="trials ran"):
        run_simulate_detect(cfg)


@pytest.mark.parametrize("args, message", [
    # closed form: F(W, K, q) sums up to n + 1 terms of up to n * log2(q) bits
    (["simulate-match", "--dist", "uniform:2", "--n", "100000", "--rate", "0.001",
      "--alpha", "0.5"],
     "n*n = 10000000000 exceeds the work guard 4194304; reduce n to <= 2048 at n = 100000"),
    # a non-uniform distribution has no closed form, so it would materialize
    (["simulate-match", "--dist", "0.7,0.2,0.1", "--n", "64", "--m", "65537",
      "--alpha", "0.5"],
     "m*n = 4194368 exceeds the work guard 4194304; reduce m to <= 65536 at n = 64"),
    (["pipeline", "--dist", "uniform:2", "--n", "64", "--m", "65537", "--B", "4"],
     "m*n = 4194368 exceeds the work guard 4194304; reduce m to <= 65536 at n = 64"),
], ids=["closed_form", "match", "pipeline"])
def test_cli_refuses_work_beyond_the_guard(capsys, monkeypatch, args, message):
    monkeypatch.setattr(harness, "_sweep", _no_sweep)
    started = time.perf_counter()
    assert cli.main(args + ["--delta", "0.2", "--trials", "1"]) == 2
    assert time.perf_counter() - started < 1.0
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_work_guard_admits_its_own_size(monkeypatch):
    monkeypatch.setattr(harness, "_sweep", _no_sweep)
    side = math.isqrt(CELL_GUARD)
    for cfg in (_match_cfg(dist=Distribution.uniform(2), rate=0.2, n_values=(side,)),
                _match_cfg(rate=None, m=CELL_GUARD // 64, n_values=(64,)),
                _match_cfg(rate=None, m=CELL_GUARD // 64, n_values=(64,), alpha=None,
                           batch_sizes=(4,))):
        with pytest.raises(AssertionError, match="trials ran"):
            (run_simulate_match if cfg.alpha is not None else run_pipeline)(cfg)


def test_cli_has_no_guard_override(capsys):
    assert cli.main(["simulate-match", "--n", "8", "--m", "16", "--delta", "0.2",
                     "--alpha", "1", "--override-guards"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --override-guards" in captured.err
    for command in cli.SWEEPS:
        cli.main([command, "--help"])
        assert "override" not in capsys.readouterr().out


def test_sweep_pool_has_no_more_workers_than_cpus_or_chunks(tmp_path, monkeypatch):
    # the pool forks all its workers at once, so --threads is an upper bound;
    # the stand-in pool runs the chunks in this process
    sizes, mapped = [], []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize=1):
            items = list(items)
            mapped.append(len(items))
            return map(fn, items)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
    args = ["simulate-detect", "--n", "8", "--B", "4", "--delta", "0.3", "--seed", "2"]
    outs = []
    for trials, threads in (("40", "1"), ("40", "4"), ("40", "20000"), ("3", "20000")):
        out = tmp_path / f"{trials}-{threads}.csv"
        assert cli.main(args + ["--trials", trials, "--threads", threads,
                                "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    # chunks are sized for the 4 CPUs, not for 20000 threads; 3 trials are 3 chunks
    assert (sizes, mapped) == ([4, 4, 3], [4, 4, 3])
    assert outs[0] == outs[1] == outs[2]


@pytest.mark.parametrize("args", [
    ["simulate-match", "--n", "8", "--m", "16", "--alpha", "0.5"],
    ["simulate-detect", "--n", "8", "--B", "4"],
    ["pipeline", "--n", "8", "--m", "16", "--B", "0,4"],
], ids=lambda args: args[0])
def test_cli_sweep_exit_0_prints_its_csv_header(capsys, args):
    assert cli.main(args + ["--delta", "0.5", "--trials", "3"]) == 0
    _, to_csv, _ = cli.SWEEPS[args[0]]
    captured = capsys.readouterr()
    assert captured.out.startswith(to_csv([])) and captured.err == ""


class _Planned(Exception):
    """Stands in for a sweep's trials; no exception the CLI maps to an exit code."""


def _plan_only(points, trials, master_seed, threads):
    raise _Planned([cells for _, cells in points])


def _list_of(*values):
    return st.lists(st.sampled_from(values), min_size=1, max_size=2).map(",".join)


# Per flag, values that parse (huge sizes included: refusing them is the
# guard's job) and values that do not.
_SIZES = ("1", "2", "8", "64", "2048", "2049", "65536", "100000", str(2 ** 40))
_GOOD = {
    "--dist": st.sampled_from(["bern:0.5", "bern:0.2", "uniform:2", "uniform:4",
                               "uniform:256", "0.7,0.2,0.1", "0,1"]),
    "--n": _list_of(*_SIZES),
    "--delta": st.sampled_from(["0", "0.2", "0.5", "0.95"]),
    "--epsilon": st.sampled_from(["0", "0.05", "0.3"]),
    "--trials": st.sampled_from(["1", "2", "200"]),
    "--seed": st.sampled_from(["0", str(2 ** 64 - 1)]),
    "--threads": st.sampled_from(["1", "2", "20000"]),
    "--rate": st.sampled_from(["0", "0.001", "0.2", "0.5", "1.2"]),
    "--m": st.sampled_from(["1", "16", "600", "65537", str(2 ** 40), str(2 ** 512)]),
    "--alpha": st.sampled_from(["0", "0.5", "1"]),
    "--B": _list_of("0", "1", "4", "16", "2048", str(10 ** 8)),
    "--detect-epsilon": st.sampled_from(["0", "0.05", "0.3"]),
}
_BAD = st.sampled_from(["", "-1", "0", "nan", "inf", "-inf", "1e400", "x", "8,", "1e3",
                        "2.5", str(2 ** 64), str(2 ** 513), "uniform:257", "0.5,0.6"])
_COMMAND_FLAGS = {
    "simulate-match": ["--dist", "--n", "--delta", "--alpha", "--epsilon"],
    "simulate-detect": ["--dist", "--n", "--delta", "--B", "--epsilon"],
    "pipeline": ["--dist", "--n", "--delta", "--B", "--epsilon", "--detect-epsilon"],
}
_CONFIG_LINES = st.lists(st.sampled_from(
    ["override_guards = yes", "eval_rows = 7", "detect_epsilon = 0.1", "alpha = 0.5",
     "B = 4", "rate = 0.2", "m = 16", "n = 8", "delta = 0.3", "cases = 3",
     "threads = 2", "no equals sign"]), min_size=1, max_size=2)


@st.composite
def _sweep_argv(draw):
    """A sweep command's argv from its grammar, with at most two of its
    flags corrupted (a bad value, or left out) or config file lines added."""
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    flags = _COMMAND_FLAGS[command] + ["--trials", "--seed", "--threads"]
    if command != "simulate-detect":  # one of the two sets the row count
        flags.append(draw(st.sampled_from(["--rate", "--m"])))
    corrupt = draw(st.sets(st.sampled_from(flags + ["--rate", "--m", "--config"]),
                           max_size=2))
    argv = [command]
    for flag in dict.fromkeys(flags + sorted(corrupt - {"--config"})):
        if flag not in corrupt:
            argv.append(f"{flag}={draw(_GOOD[flag])}")
        elif draw(st.booleans()):
            argv.append(f"{flag}={draw(_BAD | _GOOD[flag])}")
    return argv, draw(_CONFIG_LINES) if "--config" in corrupt else []


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_sweep_argv())
def test_cli_sweeps_refuse_or_plan_work_within_the_guard(tmp_path, monkeypatch, drawn):
    # every argv either exits 2 (1 for an all-retained detection point) with
    # one error line and no stdout, or plans only points within the guard
    argv, lines = drawn
    monkeypatch.setattr(harness, "_sweep", _plan_only)
    if lines:
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("".join(f"{line}\n" for line in lines))
        argv = argv + ["--config", str(cfgfile)]
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except _Planned as planned:
        (cells,) = planned.args
        assert cells and max(cells) <= CELL_GUARD, argv
        return
    assert code == 2 or (code == 1 and "no columns were deleted" in err.getvalue()), argv
    assert out.getvalue() == "", argv
    assert sum("error:" in line for line in err.getvalue().splitlines()) == 1, argv


def test_cli_detect_manifest_echoes_its_own_keys(tmp_path):
    # simulate-detect shares the sweep config but has no matcher, so its
    # echo carries the detector slack as epsilon and no matcher-only key
    out = tmp_path / "detect.csv"
    assert cli.main(["simulate-detect", "--dist", "bern:0.5", "--n", "16,32",
                     "--B", "8", "--delta", "0.5", "--trials", "3",
                     "--out", str(out)]) == 0
    manifest = (tmp_path / "detect.csv.manifest.txt").read_text().splitlines()
    config = dict(line[len("config."):].split(" = ") for line in manifest
                  if line.startswith("config."))
    assert config == {"dist": "0.5,0.5", "n": "16,32", "B": "8", "delta": "0.5",
                      "epsilon": "0.05", "trials": "3"}


@pytest.mark.parametrize("args", [
    ["simulate-match", "--n", "16", "--rate", "0.2", "--delta", "0.2", "--alpha", "0.5"],
    ["simulate-detect", "--n", "16,32", "--B", "8", "--delta", "0.5", "--epsilon", "0.1"],
    ["pipeline", "--n", "16", "--m", "40", "--delta", "0.3", "--B", "0,4",
     "--detect-epsilon", "0.2"],
], ids=lambda args: args[0])
def test_manifest_config_echo_replays_to_same_csv(tmp_path, args):
    # a manifest's config.* lines are a config file for the command that wrote it
    first, again = tmp_path / "first.csv", tmp_path / "again.csv"
    assert cli.main(args + ["--dist", "bern:0.3", "--trials", "6", "--seed", "11",
                            "--out", str(first)]) == 0
    manifest = (tmp_path / "first.csv.manifest.txt").read_text().splitlines()
    cfgfile = tmp_path / "replay.cfg"
    cfgfile.write_text("".join(line[len("config."):] + "\n" for line in manifest
                               if line.startswith("config.")))
    assert cli.main([args[0], "--config", str(cfgfile), "--seed", "11",
                     "--out", str(again)]) == 0
    assert again.read_bytes() == first.read_bytes()


def test_detect_slack_default_same_in_cli_and_library(tmp_path):
    # Neither sets the slack: both use simulate-detect's default, 0.05.
    cli_out, lib_out = tmp_path / "cli.csv", tmp_path / "lib.csv"
    assert cli.main(["simulate-detect", "--n", "16", "--B", "4", "--delta", "0.3",
                     "--trials", "5", "--seed", "1", "--out", str(cli_out)]) == 0
    (p,) = run_simulate_detect(ExperimentConfig(BERN, (16,), 0.3, 5, 1,
                                                batch_sizes=(4,), out=str(lib_out)))
    assert p.epsilon == 0.05
    assert cli_out.read_bytes() == lib_out.read_bytes()
    for out in (cli_out, lib_out):
        assert "config.epsilon = 0.05\n" in (tmp_path / f"{out.name}.manifest.txt").read_text()


def test_cli_config_key_spellings(tmp_path):
    cfgfile = tmp_path / "pipe.cfg"
    csvs = []
    for key in ("detect-epsilon", "detect_epsilon"):
        cfgfile.write_text("dist = bern:0.5\nn = 16\nrate = 0.25\ndelta = 0.3\n"
                           f"B = 4\ntrials = 2\n{key} = 0.2\n")
        out = tmp_path / f"{key}.csv"
        assert cli.main(["pipeline", "--config", str(cfgfile), "--out", str(out)]) == 0
        manifest = (tmp_path / f"{key}.csv.manifest.txt").read_text()
        assert "config.detect_epsilon = 0.2\n" in manifest
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]


@pytest.mark.parametrize("command, line", [
    (["simulate-match", "--n", "8", "--m", "16", "--delta", "0.2", "--alpha", "1"],
     "override-gaurds = yes"),  # misspelt, and removed
    (["simulate-match", "--n", "8", "--m", "16", "--delta", "0.2", "--alpha", "1"],
     "eval_rows = 7"),  # removed
    (["pipeline", "--n", "8", "--m", "16", "--delta", "0.2", "--B", "4"],
     "alpha = 0.5"),  # simulate-match's, not the pipeline's
    (["simulate-match", "--n", "8", "--m", "16", "--delta", "0.2", "--alpha", "1"],
     "detect_epsilon = 0.1"),  # no detector
    (["simulate-detect", "--n", "8", "--B", "4", "--delta", "0.2"],
     "detect_epsilon = 0.1"),  # simulate-detect's detector slack is epsilon
    (["simulate-detect", "--n", "8", "--B", "4", "--delta", "0.2"], "m = 100"),
    (["pipeline", "--n", "8", "--m", "16", "--delta", "0.2", "--B", "4"],
     "override_guards = yes"),  # removed: the work guard is fixed
    (["rates"], "trials = 5"),
    (["oracle-check"], "threads = 2"),
])
def test_cli_refuses_unread_config_keys(tmp_path, capsys, monkeypatch, command, line):
    monkeypatch.setattr(harness, "_sweep", _no_sweep)
    monkeypatch.setattr(harness, "check_counting", _no_sweep)
    monkeypatch.setattr(cli, "run_rates", _no_sweep)
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text(f"{line}\n")
    assert cli.main(command + ["--config", str(cfgfile)]) == 2
    captured = capsys.readouterr()
    key = line.split("=")[0].strip().replace("-", "_")
    assert captured.out == ""
    assert captured.err == f"error: unknown config key(s) for {command[0]}: {key}\n"


def test_cli_check_failure_exit_code(capsys):
    # delta = 0 leaves nothing to detect: a runtime check failure, exit 1
    assert cli.main(["simulate-detect", "--dist", "bern:0.5", "--n", "8",
                     "--B", "4", "--delta", "0", "--trials", "5"]) == 1
    assert "error" in capsys.readouterr().err


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    cfgfile = tmp_path / "exp.cfg"
    cfgfile.write_text("dist = bern:0.5\nn = 12\nrate = 0.25\ndelta = 0.2\n"
                       "alpha = 1\ntrials = 5\nseed = 3\n")
    out1 = tmp_path / "a.csv"
    assert cli.main(["simulate-match", "--config", str(cfgfile),
                     "--out", str(out1)]) == 0
    # flag overrides the config file's trials
    out2 = tmp_path / "b.csv"
    assert cli.main(["simulate-match", "--config", str(cfgfile),
                     "--trials", "7", "--out", str(out2)]) == 0
    assert ",5," in out1.read_text().splitlines()[1]
    assert ",7," in out2.read_text().splitlines()[1]


def test_cli_byte_identical_across_workers(tmp_path):
    args = ["simulate-detect", "--dist", "bern:0.5", "--n", "16", "--B", "6",
            "--delta", "0.5", "--trials", "24", "--seed", "9"]
    paths = []
    for i, threads in enumerate((1, 8, 1)):
        out = tmp_path / f"d{i}.csv"
        assert cli.main(args + ["--threads", str(threads), "--out", str(out)]) == 0
        paths.append(out.read_bytes())
    assert paths[0] == paths[1] == paths[2]
