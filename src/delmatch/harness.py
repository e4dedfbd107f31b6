"""Deterministic Monte Carlo experiment drivers and their CSV/manifest output.

Seeding scheme: every trial draws from
    trial_seed = SeedSequence([master_seed, point_index, trial_index])
and splits further into fixed streams (database, channel, batch, evaluation),
so results are byte-identical regardless of worker count or scheduling.
Trials run in chunks of consecutive trials of one grid point, and a chunk
of detection trials shares one labelling and one certainty pass; sums, and
so CSVs, are the same for any chunking.
"""

from __future__ import annotations

import hashlib
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import expm1, isqrt, log1p, log2, sqrt

import numpy as np

from . import __version__
from .model import (Distribution, derive_seed, _rng, sample_database,
                    apply_deletion_channel, extract_seed_batch, check_range,
                    _channel_pattern)
from . import model
from .infotheory import (entropy, RateParams, achievable_rate,
                         supersequence_count_exact, supersequence_count_bound,
                         detection_probability_bound)
from .matcher import (MatcherConfig, default_epsilon, match_counts, count_mismatches,
                      _containment_counts)
from .detector import (Verdict, detect_f, detect_g, detection_trials,
                       count_embeddings, brute_force_embeddings, posterior_deletions,
                       brute_force_posterior, certain_verdict_masks, trial_deletions,
                       _certain_masks)

# Desk-scale guard on one trial's work, fixed and checked before any trial
# (_guarded_cells): m*n materialized cells of a matching trial (m ~ 2^16 rows
# at n = 64), B*n of a detection trial, n*n for a closed-form trial.
CELL_GUARD = 1 << 22

# Rows the closed-form mode evaluates per trial; precision comes from trials.
EVAL_ROWS = 128

# Most cells of per-trial work (as CELL_GUARD counts them) that one chunk of
# trials holds; a larger trial runs alone.
CHUNK_CELLS = 2 ** 15

# Fixed stream ids inside one trial seed.
STREAM_DATABASE = 0
STREAM_CHANNEL = 1
STREAM_BATCH = 2
STREAM_EVAL = 3


class ConfigError(ValueError):
    """Bad or infeasible configuration; maps to CLI exit code 2."""


# ---------------------------------------------------------------------------
# Configuration


def parse_distribution(spec: str) -> Distribution:
    """Accepts 'bern:p', 'uniform:q', or an explicit 'p0,p1,...' list."""
    spec = spec.strip()
    try:
        if spec.startswith("bern:"):
            return Distribution.bernoulli(float(spec[5:]))
        if spec.startswith("uniform:"):
            return Distribution.uniform(int(spec[8:]))
        return Distribution(tuple(float(x) for x in spec.split(",")))
    except ValueError as exc:
        raise ConfigError(f"bad distribution spec {spec!r}: {exc}") from exc


def parse_float_grid(spec: str) -> tuple:
    """'start:stop:count' (inclusive linspace) or a comma list of values."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(f"bad grid spec {spec!r}")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ConfigError(f"grid {spec!r} needs a count >= 1")
        return tuple(float(x) for x in np.linspace(start, stop, count))
    return tuple(float(x) for x in spec.split(","))


def parse_int_list(spec: str) -> tuple:
    return tuple(int(x) for x in str(spec).split(","))


def parse_config_file(path: str) -> dict:
    """Flat 'key = value' text config; '#' starts a comment line.  A '-' in
    a key reads as '_', so 'detect-epsilon' is 'detect_epsilon'."""
    out = {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = line.partition("=")
            if not sep:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            out[key.strip().replace("-", "_")] = value.strip()
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """One sweep description: simulate-match, simulate-detect or pipeline.

    At most one of rate/m fixes the row count (m = round(2^(n*rate)) when the
    rate is given); the matching sweeps need one, detection alone needs
    neither.  Exactly one of alpha/batch_sizes picks the side-information
    mode (detection probability vs. seed rows).
    """

    dist: Distribution
    n_values: tuple
    delta: float
    trials: int
    master_seed: int
    rate: float = None
    m: int = None
    alpha: float = None
    batch_sizes: tuple = None
    epsilon: float = None
    detect_epsilon: float = None
    out: str = None
    threads: int = 1

    def __post_init__(self):
        if self.rate is not None and self.m is not None:
            raise ConfigError("at most one of rate/m may be given")
        if (self.alpha is None) == (self.batch_sizes is None):
            raise ConfigError("exactly one of alpha/batch_sizes must be given")
        if not self.n_values or any(n < 1 for n in self.n_values):
            raise ConfigError("n values must be positive")
        check_range("delta", self.delta, hi=1.0, error=ConfigError)
        if self.alpha is not None:
            check_range("alpha", self.alpha, hi=1.0, closed=True, error=ConfigError)
        if self.batch_sizes is not None and min(self.batch_sizes, default=-1) < 0:
            raise ConfigError("batch sizes must be a non-empty list of values >= 0")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        check_range("seed", self.master_seed, hi=2 ** 64, error=ConfigError)
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.m is not None and not 1 <= self.m <= 2 ** 512:
            raise ConfigError("m must be >= 1 and <= 2^512")
        for name in ("rate", "epsilon", "detect_epsilon"):
            if getattr(self, name) is not None:
                check_range(name, getattr(self, name), error=ConfigError)

    def resolve_m(self, n: int) -> int:
        if self.m is not None:
            return self.m
        if self.rate is None:
            raise ConfigError("one of rate/m must be given")
        if n * self.rate > 512:
            raise ConfigError(f"2^({n}*{self.rate}) is beyond any supported size")
        return max(1, round(2.0 ** (n * self.rate)))

    def rate_for(self, n: int) -> float:
        return self.rate if self.rate is not None else log2(self.m) / n

    def matcher_epsilon(self) -> float:
        return self.epsilon if self.epsilon is not None else default_epsilon(self.dist)

    def detector_epsilon(self) -> float:
        return self.detect_epsilon if self.detect_epsilon is not None else self.matcher_epsilon()


# ---------------------------------------------------------------------------
# Per-trial workers (top-level so a process pool can pickle them)


def _match_trial(args):
    """One materialized matching trial: (mismatches, rows scored, columns
    detected, columns deleted).

    The channel reveals each deletion with probability alpha.  With B > 0 a
    batch of B seed rows is drawn, the detected set is detect_f's Deleted
    verdicts, and the seed rows' images are not scored.  simulate-match
    passes B = 0 and pipeline alpha = 0; no caller passes both non-zero."""
    dist, n, m, delta, alpha, B, epsilon, detect_epsilon, trial_seed = args
    c1 = sample_database(dist, m, n, derive_seed(trial_seed, STREAM_DATABASE))
    exp = apply_deletion_channel(c1, delta, alpha,
                                 derive_seed(trial_seed, STREAM_CHANNEL))
    perm, observed, scored = exp.labeling.perm, exp.c2.symbols, np.arange(m)
    detected = exp.detection.detected_indices
    if B:
        batch = extract_seed_batch(exp, B, derive_seed(trial_seed, STREAM_BATCH))
        verdicts = detect_f(batch, dist, detect_epsilon)
        detected = [j for j, v in enumerate(verdicts) if v is Verdict.DELETED]
        # Deleted verdicts are certainty claims, hence always true deletions.
        false_verdicts = [j for j in detected if not exp.deletion.flags[j]]
        if false_verdicts:
            raise RuntimeError(f"detector reported retained columns {false_verdicts} "
                               f"as deleted (trial seed {trial_seed})")
        scored = np.delete(scored, perm[batch.source_rows])
        observed = observed[scored]
    _, rows = match_counts(exp.c1, observed, detected,
                           MatcherConfig(epsilon=epsilon), dist)
    return (count_mismatches(rows, perm, scored), scored.size, len(detected),
            n - exp.retained_count)


def _virtual_match_trial(args):
    """Exact-distribution stand-in for _match_trial at sizes that cannot be
    materialized.  Uniform distributions only: every restricted row is
    typical, so a row is mismatched iff at least one of the other m-1 i.i.d.
    rows both contains it and survives typicality, which happens with
    probability F(L, K, q)/q^L per competitor, independent of the row's
    content.  The per-row mismatch indicator is sampled from its exact
    marginal for EVAL_ROWS rows per trial.  Returns _match_trial's four
    fields; the column counts come from the channel streams it draws."""
    dist, n, m, delta, alpha, trial_seed = args
    deleted, detected = _channel_pattern(n, delta, alpha,
                                         derive_seed(trial_seed, STREAM_CHANNEL))
    big_k = int(n - deleted.sum())
    width = int(n - detected.sum())
    q = dist.alphabet_size
    p_col = float(Fraction(supersequence_count_exact(width, big_k, q), q ** width))
    if m <= 1:
        collision_prob = 0.0
    elif p_col >= 1.0:
        collision_prob = 1.0
    else:
        collision_prob = -expm1((m - 1) * log1p(-p_col))
    evaluated = min(m, EVAL_ROWS)
    draws = _rng(trial_seed, STREAM_EVAL).random(evaluated)
    return (int((draws < collision_prob).sum()), evaluated, n - width, n - big_k)


def _field_sums(results):
    return tuple(map(sum, zip(*results)))


def _trial_by_trial(trial, args, seeds):
    """Chunk worker for trials that run one at a time: trial(args + (seed,))
    for each seed, summed field by field."""
    return _field_sums(trial(args + (seed,)) for seed in seeds)


def _run_chunk(chunk):
    """Trials first..end-1 of one grid point: their seeds, derived here, and
    work(seeds), the chunk's results summed field by field."""
    work, master_seed, pidx, first, end = chunk
    seeds = [derive_seed(master_seed, pidx, t) for t in range(first, end)]
    return work(seeds), seeds


def _sweep(points, trials: int, master_seed: int, threads: int):
    """Run every trial of every grid point, on one process pool of at most
    threads workers when threads > 1.

    points[pidx] = (work, cells): trial t of point pidx has seed
    derive_seed(master_seed, pidx, t) and `cells` symbols of input.  A
    point's trials run in chunks of consecutive trials, at most CHUNK_CELLS
    cells and ceil(trials / min(threads, CPUs)) trials each but never less
    than one trial.  A chunk is sent as (point, first trial, end): it derives
    its own seeds where it runs, and work(seeds) returns its results summed
    field by field.  The serial path and the pool run the same chunks.
    Returns each point's sums and the (point, trial, seed) log for the
    manifest, assembled in chunk order from the seeds the chunks return.
    """
    cpus = os.cpu_count() or 1
    chunks = []
    for pidx, (work, cells) in enumerate(points):
        size = max(1, min(CHUNK_CELLS // cells, -(-trials // min(threads, cpus))))
        chunks += [(work, master_seed, pidx, first, min(first + size, trials))
                   for first in range(0, trials, size)]
    if threads <= 1 or len(chunks) <= 1:
        results = list(map(_run_chunk, chunks))
    else:
        # The pool forks all its workers at once: no more than can be busy.
        workers = min(threads, len(chunks), cpus)
        with ProcessPoolExecutor(max_workers=workers) as ex:
            results = list(ex.map(_run_chunk, chunks,
                                  chunksize=max(1, len(chunks) // (workers * 8))))
    per_point = [[] for _ in points]
    seed_log = []
    for (_, _, pidx, first, _), (sums, seeds) in zip(chunks, results):
        per_point[pidx].append(sums)
        seed_log += [(pidx, first + i, seed) for i, seed in enumerate(seeds)]
    return [_field_sums(r) for r in per_point], seed_log


def wilson_interval(successes: int, total: int, z: float = 1.96):
    """95% Wilson score interval for a binomial proportion."""
    if total == 0:
        return 0.0, 1.0
    phat = successes / total
    denom = 1.0 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    half = z * sqrt(phat * (1.0 - phat) / total + z * z / (4.0 * total * total)) / denom
    return max(0.0, center - half), min(1.0, center + half)


class _HalfWidth:
    """ci_half_width of a result with a Wilson interval [ci_low, ci_high]."""

    @property
    def ci_half_width(self) -> float:
        return (self.ci_high - self.ci_low) / 2.0


def _run_sweep(command: str, cfg: ExperimentConfig, grid, specs, point, to_csv) -> list:
    """The loop every Monte Carlo command shares: run the trials of each grid
    point, pool them into a rate with a Wilson interval, emit when cfg.out.

    specs[i] is grid[i]'s (work, cells) for _sweep.  Work returns
    (successes, total, *more); point(grid[i], sums, estimate) builds the
    result from those summed over trials, estimate = (rate, ci_low, ci_high).
    """
    started = time.time()
    totals, seed_log = _sweep(specs, cfg.trials, cfg.master_seed, cfg.threads)
    points = [point(key, sums, (sums[0] / sums[1] if sums[1] else 0.0,
                                *wilson_interval(sums[0], sums[1])))
              for key, sums in zip(grid, totals)]
    if cfg.out:
        _emit(cfg.out, command, to_csv(points), _cfg_echo(cfg, command), cfg.master_seed,
              tuple(seed_log), time.time() - started)
    return points


# ---------------------------------------------------------------------------
# Runners


@dataclass(frozen=True)
class RatePoint:
    delta: float
    alpha: float
    rate: float
    regime_ok: bool


def rates_csv(points) -> str:
    rows = [(_fmt(p.delta), _fmt(p.alpha), _fmt(p.rate),
             "true" if p.regime_ok else "false") for p in points]
    return csv_text("delta,alpha,rate,regime_ok", rows)


def run_rates(dist: Distribution, deltas, alphas, out: str = None) -> list:
    """Achievable-rate table over a (delta, alpha) grid."""
    started = time.time()
    points = [RatePoint(d, a, achievable_rate(RateParams(dist, d, a)),
                        RateParams(dist, d, a).regime_ok)
              for a in alphas for d in deltas]
    if out:
        _emit(out, "rates", rates_csv(points),
              config_echo=[("dist", _dist_echo(dist)),
                           ("deltas", ",".join(_fmt(d) for d in deltas)),
                           ("alphas", ",".join(_fmt(a) for a in alphas))],
              master_seed=None, trial_seeds=(), elapsed=time.time() - started)
    return points


@dataclass(frozen=True)
class MatchPoint(_HalfWidth):
    """One simulate-match or pipeline grid point: B = 0 for simulate-match,
    alpha = 0 for pipeline."""
    n: int
    B: int
    rate: float
    delta: float
    alpha: float
    trials: int
    mismatches: int
    evaluated: int
    detected_cols: int
    deleted_cols: int
    mismatch_rate: float
    ci_low: float
    ci_high: float
    mode: str

    @property
    def detected_fraction(self) -> float:
        return self.detected_cols / self.deleted_cols if self.deleted_cols else 0.0


def _guarded_cells(name: str, size: int, n: int) -> int:
    """size * n, one trial's cells at n columns (size = m, B or n), refused
    with a sizing hint past CELL_GUARD: the one work guard of the sweeps."""
    cells = size * n
    if cells > CELL_GUARD:
        most = isqrt(CELL_GUARD) if name == "n" else CELL_GUARD // n
        raise ConfigError(f"{name}*n = {cells} exceeds the work guard {CELL_GUARD}; "
                          f"reduce {name} to <= {most} at n = {n}")
    return cells


def _choose_match_mode(cfg: ExperimentConfig, m: int, n: int) -> str:
    """'virtual', the exact closed form, beyond the m*n guard for a uniform
    distribution; 'materialized' otherwise."""
    return "virtual" if m * n > CELL_GUARD and cfg.dist.is_uniform() else "materialized"


def run_simulate_match(cfg: ExperimentConfig) -> list:
    """Monte Carlo mismatch rates for the given-alpha side-information mode."""
    if cfg.alpha is None:
        raise ConfigError("simulate-match needs the given-alpha mode")
    epsilon = cfg.matcher_epsilon()
    grid = [(n, m, _choose_match_mode(cfg, m, n))
            for n in cfg.n_values for m in [cfg.resolve_m(n)]]
    # The closed form sums up to n + 1 terms of up to n * log2(q) bits.
    specs = [(partial(_trial_by_trial, _match_trial,
                      (cfg.dist, n, m, cfg.delta, cfg.alpha, 0, epsilon, None)),
              _guarded_cells("m", m, n))
             if mode == "materialized" else
             (partial(_trial_by_trial, _virtual_match_trial,
                      (cfg.dist, n, m, cfg.delta, cfg.alpha)), _guarded_cells("n", n, n))
             for n, m, mode in grid]

    def point(key, sums, estimate):
        n, _, mode = key
        return MatchPoint(n, 0, cfg.rate_for(n), cfg.delta, cfg.alpha, cfg.trials,
                          *sums, *estimate, mode)

    return _run_sweep("simulate-match", cfg, grid, specs, point, match_csv)


def match_csv(points) -> str:
    rows = [(str(p.n), _fmt(p.rate), _fmt(p.delta), _fmt(p.alpha),
             str(p.trials), _fmt(p.mismatch_rate), _fmt(p.ci_half_width))
            for p in points]
    return csv_text("n,R,delta,alpha,trials,mismatch_rate,CI", rows)


@dataclass(frozen=True)
class DetectPoint(_HalfWidth):
    n: int
    B: int
    delta: float
    epsilon: float
    trials: int
    detected: int
    deleted: int
    empirical_alpha: float
    ci_low: float
    ci_high: float
    bound: float


def run_simulate_detect(cfg: ExperimentConfig) -> list:
    """Empirical detection probability next to the analytic bound, per (n, B).

    The slack is cfg.detect_epsilon, 0.05 when unset; rate, m and the
    matcher's keys are unused."""
    if cfg.batch_sizes is None:
        raise ConfigError("simulate-detect needs the seeded(B) mode")
    if min(cfg.batch_sizes, default=1) < 1:
        raise ConfigError(f"batch size {min(cfg.batch_sizes)} must be >= 1")
    epsilon = _detect_only_epsilon(cfg)
    h = entropy(cfg.dist)
    grid = [(n, b) for n in cfg.n_values for b in cfg.batch_sizes]
    specs = [(partial(detection_trials, cfg.dist, n, b, cfg.delta, epsilon),
              _guarded_cells("B", b, n)) for n, b in grid]

    # Refuse an all-retained point before any trial; any() stops at its
    # first deletion.
    for pidx, (n, b) in enumerate(grid):
        if not any(trial_deletions(derive_seed(cfg.master_seed, pidx, t), n, cfg.delta).any()
                   for t in range(cfg.trials)):
            raise RuntimeError(f"no columns were deleted in any trial at (n={n}, "
                               f"B={b}); estimate undefined (delta too small?)")

    def point(key, sums, estimate):
        return DetectPoint(*key, cfg.delta, epsilon, cfg.trials, *sums, *estimate,
                           detection_probability_bound(*key, cfg.delta, h, epsilon))

    return _run_sweep("simulate-detect", cfg, grid, specs, point, detect_csv)


def _detect_only_epsilon(cfg: ExperimentConfig) -> float:
    """simulate-detect's slack: detect_epsilon, else 0.05 (it has no matcher)."""
    return 0.05 if cfg.detect_epsilon is None else cfg.detect_epsilon


def detect_csv(points) -> str:
    rows = [(str(p.n), str(p.B), _fmt(p.empirical_alpha),
             _fmt(p.ci_half_width), _fmt(p.bound)) for p in points]
    return csv_text("n,B,empirical_alpha,CI,theorem2_bound", rows)


def run_pipeline(cfg: ExperimentConfig) -> list:
    """Seeds -> certainty verdicts -> detected set -> match the remaining rows."""
    if cfg.batch_sizes is None:
        raise ConfigError("pipeline needs the seeded(B) mode")
    epsilon = cfg.matcher_epsilon()
    detect_eps = cfg.detector_epsilon()
    grid = [(n, b) for n in cfg.n_values for b in cfg.batch_sizes]
    specs = []
    for n, b in grid:
        m = cfg.resolve_m(n)
        if b >= m:
            raise ConfigError(f"batch size {b} must be < m = {m}")
        specs.append((partial(_trial_by_trial, _match_trial,
                              (cfg.dist, n, m, cfg.delta, 0.0, b, epsilon, detect_eps)),
                      _guarded_cells("m", m, n)))

    def point(key, sums, estimate):
        n, b = key
        return MatchPoint(n, b, cfg.rate_for(n), cfg.delta, 0.0, cfg.trials,
                          *sums, *estimate, "materialized")

    return _run_sweep("pipeline", cfg, grid, specs, point, pipeline_csv)


def pipeline_csv(points) -> str:
    rows = [(str(p.n), str(p.B), _fmt(p.rate), _fmt(p.delta),
             _fmt(p.detected_fraction), _fmt(p.mismatch_rate),
             _fmt(p.ci_half_width)) for p in points]
    return csv_text("n,B,R,delta,detected_fraction,mismatch_rate,CI", rows)


# ---------------------------------------------------------------------------
# Oracle check: exhaustive small-instance verification of the exact machinery


@dataclass
class OracleReport:
    suites: list
    failures: list

    @property
    def passed(self) -> bool:
        return not self.failures


def _random_instance(rng, n_max=12, consistent=True):
    """(d1, d2, deleted): a small random batch and its deletion flags, or
    None for them when not consistent (d2 then is arbitrary)."""
    q = int(rng.choice([2, 3]))
    n = int(rng.integers(1, n_max + 1))
    b = int(rng.integers(0, 4))
    d1 = rng.integers(0, q, size=(b, n)).astype(np.uint8)
    if consistent:
        deleted = rng.random(n) < rng.uniform(0.0, 0.9)
        return d1, d1[:, ~deleted], deleted
    k = int(rng.integers(0, n + 1))
    return d1, rng.integers(0, q, size=(b, k)).astype(np.uint8), None


def check_counting(cases: int, seed: int) -> list:
    """count_embeddings == brute force on random small (consistent and
    arbitrary) instances."""
    failures = []
    rng = _rng(seed, 1)
    for i in range(cases):
        d1, d2, _ = _random_instance(rng, consistent=bool(i % 2))
        got, want = count_embeddings(d1, d2), brute_force_embeddings(d1, d2)
        if got != want:
            failures.append(f"counting case {i}: got {got}, brute force {want}, "
                            f"d1={d1.tolist()}, d2={d2.tolist()}")
    return failures


def check_posteriors(cases: int, seed: int) -> list:
    failures = []
    rng = _rng(seed, 2)
    for i in range(cases):
        d1, d2, _ = _random_instance(rng, consistent=True)
        n, k = d1.shape[1], d2.shape[1]
        batch = model.SeedBatch(d1, d2)
        fast = posterior_deletions(batch)
        brute = brute_force_posterior(d1, d2)
        if fast != brute:
            failures.append(f"posterior case {i}: fb={fast}, brute={brute}, "
                            f"d1={d1.tolist()}, d2={d2.tolist()}")
            continue
        if sum(fast) != n - k:
            failures.append(f"posterior case {i}: sum {sum(fast)} != n-K = {n - k}")
        ids1, ids2 = model._column_ids(d1, d2)
        present = set(ids2.tolist())
        for j in range(n):
            if int(ids1[j]) not in present and fast[j] != 1:
                failures.append(f"posterior case {i}: column {j} absent from d2 "
                                f"but posterior {fast[j]} != 1")
    return failures


def check_supersequence(seed: int, n_exact=9) -> list:
    failures = []
    rng = _rng(seed, 3)
    for q in (2, 3):
        for n in range(1, n_exact + 1):
            seqs = _all_sequences(n, q)
            for k in range(0, n + 1):
                fixed = rng.integers(0, q, size=k)
                want = _count_containing(seqs, fixed)
                got = supersequence_count_exact(n, k, q)
                if got != want:
                    failures.append(f"F({n},{k},{q}) = {got}, brute force {want} "
                                    f"for fixed {fixed.tolist()}")
        for n in range(1, 21):
            for k in range(1, n + 1):
                if k * q < n:
                    continue
                exact = supersequence_count_exact(n, k, q)
                bound = supersequence_count_bound(n, k, q)
                if log2(exact) > bound + 1e-12:
                    failures.append(f"bound violated at ({n},{k},{q}): "
                                    f"log2 F = {log2(exact)}, bound = {bound}")
    return failures


def _all_sequences(n: int, q: int) -> np.ndarray:
    grids = np.indices((q,) * n).reshape(n, -1).T
    return grids.astype(np.uint8)


def _count_containing(seqs: np.ndarray, fixed: np.ndarray) -> int:
    counts, _ = _containment_counts(seqs, np.asarray(fixed).reshape(1, -1))
    return int(counts[0])


def check_g_subset_f(cases: int, seed: int) -> list:
    """Every g-Deleted column is f-Deleted; a run with no g-Deleted verdict
    checked nothing and fails."""
    failures = []
    checked = 0
    rng = _rng(seed, 4)
    dists = [Distribution.bernoulli(0.5), Distribution.bernoulli(0.3),
             Distribution.uniform(3)]
    for i in range(cases):
        d1, d2, _ = _random_instance(rng, n_max=10, consistent=True)
        dist = dists[i % len(dists)]
        if int(d1.max(initial=0)) >= dist.alphabet_size:
            dist = Distribution.uniform(3)
        batch = model.SeedBatch(d1, d2)
        eps = float(rng.uniform(0.0, 0.6))
        f_verdicts = detect_f(batch, dist, eps)
        g_verdicts = detect_g(batch, dist, eps)
        for j, (g, f) in enumerate(zip(g_verdicts, f_verdicts)):
            checked += g is Verdict.DELETED
            if g is Verdict.DELETED and f is not Verdict.DELETED:
                failures.append(f"g=f case {i} col {j}: g Deleted but f {f.value}, "
                                f"d1={d1.tolist()}, d2={d2.tolist()}")
    if not checked:
        failures.append(f"g=f: no g-Deleted verdict in {cases} cases, so none was checked")
    return failures


def check_fast_kernel(cases: int, seed: int) -> list:
    """The certainty masks, with no embedding known and from the instance's
    own retained columns, equal the exact posteriors' 1 and 0 entries."""
    failures = []
    rng = _rng(seed, 5)
    for i in range(cases):
        d1, d2, deleted = _random_instance(rng, consistent=True)
        posts = posterior_deletions(model.SeedBatch(d1, d2))
        want = [[p == 1 for p in posts], [p == 0 for p in posts]]
        ids1, ids2 = model._column_ids(d1, d2)
        for name, masks in (("no embedding", certain_verdict_masks(d1, d2)),
                            ("known embedding", _certain_masks(ids1, ids2, ~deleted))):
            if [m.tolist() for m in masks] != want:
                failures.append(f"fast kernel case {i}, {name}: masks disagree with "
                                f"posteriors, d1={d1.tolist()}, d2={d2.tolist()}")
    return failures


def run_oracle_check(master_seed: int = 0, cases: int = 400) -> OracleReport:
    """Run every brute-force equivalence suite; counterexamples are collected
    verbatim."""
    if cases < 1:
        raise ConfigError(f"cases must be >= 1, got {cases}")
    check_range("seed", master_seed, hi=2 ** 64, error=ConfigError)
    suites = [
        ("embedding counts vs enumeration", check_counting(cases, master_seed)),
        ("posteriors: fb = Bayes enumeration", check_posteriors(cases, master_seed)),
        ("supersequence count and bound", check_supersequence(master_seed)),
        ("g-Deleted subset of f-Deleted", check_g_subset_f(cases, master_seed)),
        ("boolean kernel vs exact posteriors", check_fast_kernel(cases, master_seed)),
    ]
    failures = [msg for _, fails in suites for msg in fails]
    return OracleReport([(name, len(fails) == 0) for name, fails in suites],
                        failures)


# ---------------------------------------------------------------------------
# CSV + manifest emission


def _fmt(x: float) -> str:
    return f"{x:.6f}"


def _dist_echo(dist: Distribution) -> str:
    return ",".join(repr(p) for p in dist.probabilities)


def _cfg_echo(cfg: ExperimentConfig, command: str) -> list:
    echo = [("dist", _dist_echo(cfg.dist)),
            ("n", ",".join(str(n) for n in cfg.n_values)),
            ("delta", repr(cfg.delta)), ("trials", str(cfg.trials))]
    if cfg.rate is not None:
        echo.append(("rate", repr(cfg.rate)))
    if cfg.m is not None:
        echo.append(("m", str(cfg.m)))
    if cfg.alpha is not None:
        echo.append(("alpha", repr(cfg.alpha)))
    if cfg.batch_sizes is not None:
        echo.append(("B", ",".join(str(b) for b in cfg.batch_sizes)))
    if command == "simulate-detect":  # no matcher: its one slack is the detector's
        return echo + [("epsilon", repr(_detect_only_epsilon(cfg)))]
    echo.append(("epsilon", repr(cfg.matcher_epsilon())))
    if command == "pipeline":  # simulate-match has no detector
        echo.append(("detect_epsilon", repr(cfg.detector_epsilon())))
    return echo


def csv_text(header: str, rows) -> str:
    """The one CSV serialisation: a header line, then one line per row of
    already formatted fields."""
    return header + "\n" + "".join(",".join(r) + "\n" for r in rows)


def _emit(out: str, command: str, text: str, config_echo,
          master_seed, trial_seeds, elapsed: float) -> None:
    data = text.encode()
    digest = hashlib.sha256(data).hexdigest()
    lines = [
        f"artifact = delmatch {__version__}",
        f"command = {command}",
        f"created_utc = {time.strftime('%Y-%m-%dT%H:%M:%SZ', time.gmtime())}",
        f"elapsed_seconds = {elapsed:.3f}",
        f"csv_path = {out}",
        f"csv_sha256 = {digest}",
    ]
    if master_seed is not None:
        lines.append("seed_rule = trial_seed = SeedSequence([master_seed, point_index, "
                     "trial_index]) -> uint64; streams: 0 database, 1 channel, 2 batch, "
                     "3 eval")
        lines.append(f"master_seed = {master_seed}")
    lines.extend(f"config.{k} = {v}" for k, v in config_echo)
    lines.extend(f"trial_seed.{p}.{t} = {s}" for p, t, s in trial_seeds)
    write_atomic(out, data)
    write_atomic(str(out) + ".manifest.txt", ("\n".join(lines) + "\n").encode())


def write_atomic(path, payload: bytes) -> None:
    """Write payload to a temporary name next to path and rename it into
    place, so a failed write leaves neither a partial file nor the
    temporary one."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
