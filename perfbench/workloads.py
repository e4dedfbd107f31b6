"""The benchmark's workloads, their in-process replay and their CSV checks.

Each workload is one `delmatch` CLI sweep with fixed parameters.  `replay`
re-runs the sweep's trials in this process through the library's public
functions, deriving every seed by the documented rule: trial seed
SeedSequence([master_seed, point_index, trial_index]), then streams 0
database, 1 channel, 2 seed batch.  It records a span around each layer
call and checks each trial with `checks`.  `check_csv` compares a sweep's
CSV with the replayed counts, field by field.
"""

from collections import Counter
from dataclasses import dataclass
from math import log2

import numpy as np

from delmatch import (MatcherConfig, SeedBatch, Verdict, apply_deletion_channel,
                      certain_verdict_masks, detect_f, detection_trial,
                      extract_seed_batch, match_all, posterior_deletions,
                      sample_database)
from delmatch.harness import parse_distribution

import checks

# Layer spans that make up a trial, as the CLI's trial workers run it.  The
# detector.masks span re-times work detection_trial already did, so it is
# recorded outside the trial and left out of the trial's busy time.
TRIAL_LAYERS = ("model.sample", "model.channel", "model.batch", "matcher.match",
                "detector.verdict", "detector.trial")
# Observed rows per trial decided by an exhaustive two-pointer scan when
# undetected deletions remain (each scan is ~5 ms of pure Python at m=2048).
SCAN_SAMPLE = 16
# Certainty masks are compared with exact Fraction posteriors up to this n.
POSTERIOR_MAX_N = 64


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # delmatch subcommand
    dist_spec: str        # --dist as the CLI receives it
    probs: tuple          # the same distribution, written out for the checks
    n_values: tuple
    delta: float
    trials: int           # trials per grid point in one timed sweep
    trace_trials: int     # trials per grid point in the traced run
    threads: int
    epsilon: float        # the typicality slack the CLI defaults to here
    m: int = None
    alpha: float = None
    batch_sizes: tuple = None

    def grid(self) -> list:
        """(n, B) of each grid point, in the CLI's point-index order."""
        if self.batch_sizes is None:
            return [(n, None) for n in self.n_values]
        return [(n, b) for n in self.n_values for b in self.batch_sizes]

    def cli_args(self, seed: int, trials: int, threads: int, out: str) -> list:
        args = [self.command, "--dist", self.dist_spec,
                "--n", ",".join(map(str, self.n_values)), "--delta", str(self.delta)]
        if self.m is not None:
            args += ["--m", str(self.m)]
        if self.alpha is not None:
            args += ["--alpha", str(self.alpha)]
        if self.batch_sizes is not None:
            args += ["--B", ",".join(map(str, self.batch_sizes))]
        return args + ["--trials", str(trials), "--seed", str(seed),
                       "--threads", str(threads), "--out", out]


BERN = (0.5, 0.5)
SKEWED = (0.4, 0.3, 0.2, 0.1)

WORKLOADS = {w.name: w for w in (
    # Every deletion revealed (alpha = 1): each observation equals its source
    # row's restriction, and match_all is ~99% of a trial.
    Workload("match-known", "simulate-match", "bern:0.5", BERN, (32,), 0.2,
             trials=8, trace_trials=40, threads=1,
             epsilon=0.1 * checks.entropy(BERN), m=2048, alpha=1.0),
    # Deletions found only through seed rows, none at B=0 and ~40% at B=4, so
    # the matcher does a real subsequence search; the skewed alphabet makes
    # typicality prune some source rows.
    Workload("pipeline-hidden", "pipeline", "0.4,0.3,0.2,0.1", SKEWED, (32,), 0.3,
             trials=3, trace_trials=20, threads=1,
             epsilon=0.1 * checks.entropy(SKEWED), m=2048, batch_sizes=(0, 4)),
    # Detection only: the boolean certainty kernel, short trials, process pool.
    Workload("detect-sweep", "simulate-detect", "bern:0.5", BERN, (64, 256, 1024), 0.3,
             trials=100, trace_trials=100, threads=2, epsilon=0.05,
             batch_sizes=(8, 16)),
)}


@dataclass
class TrialResult:
    point: int
    t: int
    counts: Counter
    failures: list


def replay(w: Workload, seed: int, trials: int, tracer) -> list:
    """Re-run trials 0..trials-1 of every grid point; one TrialResult each."""
    dist = parse_distribution(w.dist_spec)
    run_trial = {"simulate-match": _match_trial, "pipeline": _pipeline_trial,
                 "simulate-detect": _detect_trial}[w.command]
    results = []
    for pidx, (n, b) in enumerate(w.grid()):
        for t in range(trials):
            ts = checks.seed_rule(seed, pidx, t)
            counts, failures = run_trial(w, dist, n, b, ts, tracer, (pidx, t))
            results.append(TrialResult(pidx, t, counts, failures))
    return results


def _match_trial(w, dist, n, _b, ts, tracer, trial):
    with tracer.span("harness.trial", trial):
        with tracer.span("model.sample", trial):
            c1 = sample_database(dist, w.m, n, checks.seed_rule(ts, 0))
        with tracer.span("model.channel", trial):
            exp = apply_deletion_channel(c1, w.delta, w.alpha, checks.seed_rule(ts, 1))
        detected = exp.detection.detected_indices.tolist()
        with tracer.span("matcher.match", trial):
            outcomes, _ = match_all(exp.c1, exp.c2.symbols, detected,
                                    MatcherConfig(epsilon=w.epsilon), dist)
    counts = Counter(cells=w.m * n)
    failures = _score_matching(w, exp, detected, list(range(w.m)), outcomes, ts, counts)
    return counts, failures


def _pipeline_trial(w, dist, n, b, ts, tracer, trial):
    with tracer.span("harness.trial", trial):
        with tracer.span("model.sample", trial):
            c1 = sample_database(dist, w.m, n, checks.seed_rule(ts, 0))
        with tracer.span("model.channel", trial):
            exp = apply_deletion_channel(c1, w.delta, 0.0, checks.seed_rule(ts, 1))
        with tracer.span("model.batch", trial):
            batch = extract_seed_batch(exp, b, checks.seed_rule(ts, 2))
        with tracer.span("detector.verdict", trial):
            verdicts = detect_f(batch, dist, w.epsilon)
        detected = [j for j, v in enumerate(verdicts) if v is Verdict.DELETED]
        seed_images = set(exp.labeling.perm[batch.source_rows].tolist())
        remaining = [j for j in range(w.m) if j not in seed_images]
        with tracer.span("matcher.match", trial):
            outcomes, _ = match_all(exp.c1, exp.c2.symbols[remaining], detected,
                                    MatcherConfig(epsilon=w.epsilon), dist)
    flags = exp.deletion.flags
    failures = checks.check_deleted_verdicts(detected, flags)
    if not np.array_equal(batch.d2, batch.d1[:, flags == 0]):
        failures.append("seed batch rows are not correctly matched pairs")
    counts = Counter(cells=w.m * n, columns=n, deleted_verdicts=len(detected),
                     true_deleted=int(flags.sum()))
    failures += _score_matching(w, exp, detected, remaining, outcomes, ts, counts)
    return counts, failures


def _score_matching(w, exp, detected, observed, outcomes, ts, counts) -> list:
    """Check match_all's outcomes for the observed (c2) rows and count them."""
    keep = np.ones(exp.c1.n, dtype=bool)
    keep[detected] = False
    true_rows = np.argsort(exp.labeling.perm)[observed].tolist()
    pairs = [(o.status.value, o.row) for o in outcomes]
    sample = np.random.default_rng(ts).choice(
        len(observed), size=min(SCAN_SAMPLE, len(observed)), replace=False)
    failures, typ = checks.check_matching(
        exp.c1.symbols, keep, exp.c2.symbols[observed], true_rows, w.probs,
        w.epsilon, pairs, sorted(sample.tolist()))
    statuses = Counter(status for status, _ in pairs)
    correct = sum(1 for (status, row), true in zip(pairs, true_rows)
                  if status == "matched" and row == true)
    undetected = int(keep.sum()) - exp.c2.n
    counts.update(rows=len(pairs), u0_rows=len(pairs) if undetected == 0 else 0,
                  source_rows=exp.c1.m, typical=int(typ.sum()),
                  matched=statuses["matched"], collision=statuses["collision"],
                  no_candidate=statuses["no_candidate"], correct=correct,
                  wrong=len(pairs) - correct)
    return failures


def _detect_trial(w, dist, n, b, ts, tracer, trial):
    with tracer.span("harness.trial", trial):
        with tracer.span("detector.trial", trial):
            hits, total = detection_trial(dist, n, b, w.delta, w.epsilon, ts)
    # Rebuild the trial's batch: stream 0 draws the B x n batch, stream 1 the
    # deletion pattern.
    d1 = np.random.default_rng(np.random.SeedSequence([ts, 0])).choice(
        len(w.probs), size=(b, n), p=w.probs).astype(np.uint8)
    deleted = np.random.default_rng(np.random.SeedSequence([ts, 1])).random(n) < w.delta
    counts = Counter(columns=n, true_deleted=int(deleted.sum()), hits=hits)
    failures = []
    if total != int(deleted.sum()):
        failures.append(f"detection_trial reports {total} deleted columns, "
                        f"the seed rule gives {int(deleted.sum())}")
    if deleted.any():
        d2 = d1[:, ~deleted]
        with tracer.span("detector.masks", trial):
            certain_del, certain_ret = certain_verdict_masks(d1, d2)
        posts = posterior_deletions(SeedBatch(d1, d2)) if n <= POSTERIOR_MAX_N else None
        failures += checks.check_masks(certain_del, certain_ret, deleted, posts)
        flagged = certain_del & checks.typical(d1, w.probs, w.epsilon, axis=0)
        counts["deleted_verdicts"] = int(flagged.sum())
        if hits != int((flagged & deleted).sum()):
            failures.append(f"detection_trial reports {hits} detected deletions, "
                            f"its certainty masks give {int((flagged & deleted).sum())}")
    return counts, failures


def check_csv(w: Workload, csv_text: str, results: list, trials: int) -> dict:
    """Failures of each CSV row, keyed by point index; key None for the table."""
    rows = checks.parse_csv(csv_text)
    grid = w.grid()
    if len(rows) != len(grid):
        return {None: [f"CSV has {len(rows)} rows for {len(grid)} grid points"]}
    totals = [Counter() for _ in grid]
    for r in results:
        if r.t < trials:
            totals[r.point].update(r.counts)
    out = {}
    for pidx, ((n, b), row, tot) in enumerate(zip(grid, rows, totals)):
        expected = {"n": str(n)}
        if w.command == "simulate-detect":
            h = checks.entropy(w.probs)
            expected.update(B=str(b), empirical_alpha=checks.fmt(tot["hits"] / tot["true_deleted"]),
                            CI=checks.fmt(checks.wilson_half_width(tot["hits"], tot["true_deleted"])),
                            theorem2_bound=checks.fmt(checks.detection_bound(n, b, w.delta, h, w.epsilon)))
        else:
            evaluated = tot["rows"]
            expected.update(R=checks.fmt(log2(w.m) / n), delta=checks.fmt(w.delta),
                            mismatch_rate=checks.fmt(tot["wrong"] / evaluated if evaluated else 0.0),
                            CI=checks.fmt(checks.wilson_half_width(tot["wrong"], evaluated)))
        if w.command == "simulate-match":
            expected.update(alpha=checks.fmt(w.alpha), trials=str(trials))
        if w.command == "pipeline":
            fraction = tot["deleted_verdicts"] / tot["true_deleted"] if tot["true_deleted"] else 0.0
            expected.update(B=str(b), detected_fraction=checks.fmt(fraction))
        failures = checks.check_fields(f"CSV point {pidx}", row, expected)
        if w.command == "pipeline" and b == 0 and row.get("detected_fraction") != checks.fmt(0.0):
            failures.append(f"CSV point {pidx}: deletions detected with no seed rows")
        if w.command == "simulate-detect":
            try:
                below = (float(row["empirical_alpha"]) + float(row["CI"])
                         < float(row["theorem2_bound"]))
            except (KeyError, ValueError):
                below = True
            if below:
                failures.append(f"CSV point {pidx}: empirical_alpha + CI is below "
                                f"theorem2_bound")
        out[pidx] = failures
    return out
