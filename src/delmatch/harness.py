"""Deterministic Monte Carlo experiment drivers and their CSV/manifest output.

Seeding scheme: every trial draws from
    trial_seed = SeedSequence([master_seed, point_index, trial_index])
and splits further into fixed streams (a matching trial's database,
channel, batch and evaluation; a detection trial's batch and deletion), so
results are byte-identical regardless of worker count or scheduling.
Trials run in chunks of consecutive trials of one grid point, and a chunk
of detection trials shares one labelling and one certainty pass; sums, and
so CSVs, are the same for any chunking.  A sweep's chunks run on its own
process and on children it forks, which inherit their chunks and send back
only pickled results (_sweep); no executor is imported.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from dataclasses import dataclass
from functools import partial
from math import expm1, isqrt, log1p, log2, sqrt

import numpy as np

from . import __version__
from .model import (Distribution, derive_seed, _rng, sample_database,
                    apply_deletion_channel, extract_seed_batch, check_range,
                    _channel_pattern)
from . import model
from .infotheory import (achievable_rate, regime_ok,
                         supersequence_count_exact, supersequence_count_bound,
                         detection_probability_bound)
from .matcher import (default_epsilon, match_counts, count_mismatches,
                      _containment_counts)
from .detector import (Verdict, detect_f, detect_g, detection_trials,
                       count_embeddings, brute_force_embeddings, posterior_deletions,
                       brute_force_posterior, certain_verdict_masks, trial_deletions,
                       _certain_masks, _sound_deletions, _TRIAL_STREAM_BATCH,
                       _TRIAL_STREAM_DELETION)

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

# Each sweep's streams inside one trial seed, as its manifest names them.
_MATCH_STREAMS = ((STREAM_DATABASE, "database"), (STREAM_CHANNEL, "channel"),
                  (STREAM_BATCH, "batch"), (STREAM_EVAL, "eval"))
_DETECT_STREAMS = ((_TRIAL_STREAM_BATCH, "batch"), (_TRIAL_STREAM_DELETION, "deletion"))


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
        raise ValueError(f"bad distribution spec {spec!r}: {exc}") from exc


def parse_float_grid(spec: str) -> tuple:
    """'start:stop:count' (inclusive linspace) or a comma list of values."""
    spec = spec.strip()
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise ValueError(f"bad grid spec {spec!r}")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 1:
            raise ValueError(f"grid {spec!r} needs a count >= 1")
        return tuple(float(x) for x in np.linspace(start, stop, count))
    return tuple(float(x) for x in spec.split(","))


def parse_int_list(spec: str) -> tuple:
    return tuple(int(x) for x in str(spec).split(","))


def parse_config_file(path: str) -> dict:
    """Flat 'key = value' text config; '#' starts a comment line.  A '-' in
    a key reads as '_', so 'detect-epsilon' is 'detect_epsilon'.  An empty
    key or value, and a key given twice, are errors."""
    out, lines = {}, {}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, sep, value = (part.strip() for part in line.partition("="))
            key = key.replace("-", "_")
            problem = ("expected 'key = value'" if not sep
                       else "empty key" if not key
                       else f"empty value for {key}" if not value
                       else f"{key} given again (first on line {lines[key]})" if key in out
                       else None)
            if problem:
                raise ValueError(f"{path}:{lineno}: {problem}")
            out[key], lines[key] = value, lineno
    return out


def _check_sweep(*, n, delta, trials, seed, threads, rate=None, m=None, alpha=None,
                 B=None, epsilon=None, detect_epsilon=None, **_) -> None:
    """The checks every sweep makes of its runner's arguments before any
    trial, in the order that picks the one error reported when several
    values are bad.  At most one of rate/m fixes the row count."""
    if rate is not None and m is not None:
        raise ValueError("at most one of rate/m may be given")
    if not n or any(cols < 1 for cols in n):
        raise ValueError("n values must be positive")
    check_range("delta", delta, hi=1.0)
    if alpha is not None:
        check_range("alpha", alpha, hi=1.0, closed=True)
    if B is not None and min(B, default=-1) < 0:
        raise ValueError("batch sizes must be a non-empty list of values >= 0")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    check_range("seed", seed, hi=2 ** 64)
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if m is not None and not 1 <= m <= 2 ** 512:
        raise ValueError("m must be >= 1 and <= 2^512")
    for name, value in (("rate", rate), ("epsilon", epsilon),
                        ("detect_epsilon", detect_epsilon)):
        if value is not None:
            check_range(name, value)


def resolve_m(n: int, rate, m) -> int:
    """The row count at n columns: m, or round(2^(n*rate)) when the rate is
    given."""
    if m is not None:
        return m
    if rate is None:
        raise ValueError("one of rate/m must be given")
    if n * rate > 512:
        raise ValueError(f"2^({n}*{rate}) is beyond any supported size")
    return max(1, round(2.0 ** (n * rate)))


def rate_for(n: int, rate, m) -> float:
    return rate if rate is not None else log2(m) / n


# ---------------------------------------------------------------------------
# Per-trial workers


def _match_trial(dist, n, m, delta, alpha, B, epsilon, detect_epsilon, trial_seed):
    """One materialized matching trial: (mismatches, rows scored, columns
    detected, columns deleted).

    The channel reveals each deletion with probability alpha.  With B > 0 a
    batch of B seed rows is drawn, the detected set is detect_f's Deleted
    verdicts, and the seed rows' images are not scored.  simulate-match
    passes B = 0 and pipeline alpha = 0; no caller passes both non-zero."""
    c1 = sample_database(dist, m, n, derive_seed(trial_seed, STREAM_DATABASE))
    exp = apply_deletion_channel(c1, delta, alpha,
                                 derive_seed(trial_seed, STREAM_CHANNEL))
    perm, observed, scored = exp.labeling.perm, exp.c2.symbols, np.arange(m)
    detected = exp.detection.detected_indices
    if B:
        batch = extract_seed_batch(exp, B, derive_seed(trial_seed, STREAM_BATCH))
        detected = np.flatnonzero(_sound_deletions(
            batch.d1, exp.deletion.flags.astype(bool), dist, detect_epsilon, [trial_seed]))
        scored = np.delete(scored, perm[batch.source_rows])
        observed = observed[scored]
    _, rows = match_counts(exp.c1, observed, detected, epsilon, dist)
    return (count_mismatches(rows, perm, scored), scored.size, len(detected),
            n - exp.retained_count)


def _virtual_match_trial(dist, n, m, delta, alpha, trial_seed):
    """Exact-distribution stand-in for _match_trial at sizes that cannot be
    materialized.  Uniform distributions only: every restricted row is
    typical, so a row is mismatched iff at least one of the other m-1 i.i.d.
    rows both contains it and survives typicality, which happens with
    probability F(L, K, q)/q^L per competitor, independent of the row's
    content.  The per-row mismatch indicator is sampled from its exact
    marginal for EVAL_ROWS rows per trial.  Returns _match_trial's four
    fields; the column counts come from the channel streams it draws."""
    deleted, detected = _channel_pattern(n, delta, alpha,
                                         derive_seed(trial_seed, STREAM_CHANNEL))
    big_k = int(n - deleted.sum())
    width = int(n - detected.sum())
    q = dist.alphabet_size
    p_col = supersequence_count_exact(width, big_k, q) / q ** width
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


def _trial_by_trial(trial, seeds):
    """Chunk worker for trials that run one at a time: trial(seed) for each
    seed, summed field by field."""
    return _field_sums(map(trial, seeds))


def _run_chunk(chunk):
    """Trials first..end-1 of one grid point: their seeds, derived here, and
    work(seeds), the chunk's results summed field by field."""
    work, master_seed, pidx, first, end = chunk
    seeds = [derive_seed(master_seed, pidx, t) for t in range(first, end)]
    return work(seeds), seeds


def _child(chunks, fd: int):
    """A forked worker's whole life: run chunks and write (True, results),
    or (False, the exception raised), pickled to fd.  It never returns into
    its caller's frames and leaves by os._exit, so it flushes no buffer it
    inherited; an exception that cannot be pickled leaves no result."""
    code = 1
    try:
        try:
            result = True, list(map(_run_chunk, chunks))
        except BaseException as exc:
            result = False, exc
        with open(fd, "wb") as pipe:
            pipe.write(pickle.dumps(result))
        code = 0
    finally:
        os._exit(code)


def _collected(worker: int, data: bytes, status: int) -> list:
    """A child's results from what it wrote and its wait status: its
    exception raised again, or a one-line RuntimeError if it was killed or
    left no result that can be read."""
    if os.WIFSIGNALED(status):
        import signal  # only a failed sweep needs it
        signum = os.WTERMSIG(status)
        raise RuntimeError(f"sweep worker {worker} was killed by signal {signum} "
                           f"({signal.Signals(signum).name})")
    try:
        ok, value = pickle.loads(data)
    except Exception:  # nothing written, or an exception that does not unpickle
        raise RuntimeError(f"sweep worker {worker} exited with status "
                           f"{os.waitstatus_to_exitcode(status)} and no result") from None
    if ok:
        return value
    raise value


def _pooled(chunks, workers: int) -> list:
    """Every chunk's result, in chunk order, from `workers` processes: this
    one runs chunks[0::workers] while each of workers - 1 forked children w
    runs chunks[w::workers], inherited through the fork, and sends back one
    pickled list.  On every exit path no child is left: one that has not
    been reaped is killed and reaped."""
    results = [None] * len(chunks)
    children, pipes = [], []
    if workers > 1:  # loaded once here, not once in each child
        import numpy.random  # noqa: F401
    try:
        for w in range(1, workers):
            fd, end = os.pipe()
            pipes.append(open(fd, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    _child(chunks[w::workers], end)
            finally:
                os.close(end)
            children.append(pid)
        results[0::workers] = map(_run_chunk, chunks[0::workers])
        for w, pipe in enumerate(pipes, 1):
            data = pipe.read()
            _, status = os.waitpid(children[w - 1], 0)
            children[w - 1] = None
            results[w::workers] = _collected(w, data, status)
        return results
    finally:
        if any(children):
            import signal  # only a failed sweep needs it
            for pid in filter(None, children):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for pipe in pipes:
            pipe.close()


def _sweep(points, trials: int, master_seed: int, threads: int):
    """Run every trial of every grid point on W = min(threads, chunks, CPUs)
    processes, this one among them; W is 1 where os.fork does not exist.

    points[pidx] = (work, cells): trial t of point pidx has seed
    derive_seed(master_seed, pidx, t) and `cells` symbols of input.  A
    point's trials run in chunks of consecutive trials, at most CHUNK_CELLS
    cells and ceil(trials / min(threads, CPUs)) trials each but never less
    than one trial.  A chunk is (point, first trial, end): it derives its
    own seeds where it runs, and work(seeds) returns its results summed
    field by field.  The W - 1 workers are forked all at once and run their
    chunks with nothing sent to them (_pooled); W = 1 runs the same chunks
    here.  Returns each point's sums and the (point, trial, seed) log for
    the manifest, assembled in chunk order from the seeds the chunks return.
    """
    cpus = os.cpu_count() or 1
    chunks = []
    for pidx, (work, cells) in enumerate(points):
        size = max(1, min(CHUNK_CELLS // cells, -(-trials // min(threads, cpus))))
        chunks += [(work, master_seed, pidx, first, min(first + size, trials))
                   for first in range(0, trials, size)]
    workers = min(threads, len(chunks), cpus) if hasattr(os, "fork") else 1
    per_point = [[] for _ in points]
    seed_log = []
    for (_, _, pidx, first, _), (sums, seeds) in zip(chunks, _pooled(chunks, workers)):
        per_point[pidx].append(sums)
        seed_log += [(pidx, first + i, seed) for i, seed in enumerate(seeds)]
    return [_field_sums(r) for r in per_point], seed_log


def wilson_interval(successes: int, total: int):
    """95% Wilson score interval for a binomial proportion."""
    if total == 0:
        return 0.0, 1.0
    z = 1.96
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


def _run_sweep(command: str, keys: dict, grid, specs, point, to_csv, streams) -> list:
    """The loop every Monte Carlo command shares: run the trials of each grid
    point, pool them into a rate with a Wilson interval, emit when keys["out"].

    keys are the runner's arguments, its slacks resolved.  specs[i] is
    grid[i]'s (work, cells) for _sweep.  Work returns (successes, total,
    *more); point(grid[i], sums, estimate) builds the result from those
    summed over trials, estimate = (rate, ci_low, ci_high).  streams are the
    work's (stream id, name) pairs inside one trial seed.
    """
    started = time.time()
    totals, seed_log = _sweep(specs, keys["trials"], keys["seed"], keys["threads"])
    points = [point(key, sums, (sums[0] / sums[1] if sums[1] else 0.0,
                                *wilson_interval(sums[0], sums[1])))
              for key, sums in zip(grid, totals)]
    if keys["out"]:
        _emit(keys["out"], command, to_csv(points), _cfg_echo(keys), keys["seed"],
              tuple(seed_log), time.time() - started, streams)
    return points


# ---------------------------------------------------------------------------
# Runners
#
# A runner's keyword parameters are the keys its command reads, in the order
# its manifest echoes them, each with its one default; the CLI reads them
# from its signature.  Each runner takes its arguments, slacks resolved, as
# keys = dict(locals()) before it assigns any other name.


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


def run_rates(*, dist=Distribution.bernoulli(0.5), deltas=parse_float_grid("0:0.95:20"),
              alphas=(0.0, 0.25, 0.5, 0.75, 1.0), out=None) -> list:
    """Achievable-rate table over a (delta, alpha) grid."""
    keys = dict(locals())
    started = time.time()
    points = [RatePoint(d, a, achievable_rate(dist, d, a), regime_ok(dist, d))
              for a in alphas for d in deltas]
    if out:
        _emit(out, "rates", rates_csv(points), _cfg_echo(keys), master_seed=None,
              trial_seeds=(), elapsed=time.time() - started)
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
        raise ValueError(f"{name}*n = {cells} exceeds the work guard {CELL_GUARD}; "
                          f"reduce {name} to <= {most} at n = {n}")
    return cells


def _choose_match_mode(dist: Distribution, m: int, n: int) -> str:
    """'virtual', the exact closed form, beyond the m*n guard for a uniform
    distribution; 'materialized' otherwise."""
    return "virtual" if m * n > CELL_GUARD and dist.is_uniform else "materialized"


def run_simulate_match(*, dist=Distribution.bernoulli(0.5), n, delta, trials=100, rate=None,
                       m=None, alpha, epsilon=None, seed=0, threads=1, out=None) -> list:
    """Monte Carlo mismatch rates for the given-alpha side-information mode,
    at each column count in n; one of rate/m fixes the row count."""
    epsilon = default_epsilon(dist) if epsilon is None else epsilon
    keys = dict(locals())
    _check_sweep(**keys)
    grid = [(cols, rows, _choose_match_mode(dist, rows, cols))
            for cols in n for rows in [resolve_m(cols, rate, m)]]
    # The closed form sums up to n + 1 terms of up to n * log2(q) bits.
    specs = [(partial(_trial_by_trial, partial(_match_trial, dist, cols, rows, delta, alpha,
                                               0, epsilon, None)),
              _guarded_cells("m", rows, cols))
             if mode == "materialized" else
             (partial(_trial_by_trial, partial(_virtual_match_trial, dist, cols, rows, delta,
                                               alpha)),
              _guarded_cells("n", cols, cols))
             for cols, rows, mode in grid]

    def point(key, sums, estimate):
        cols, _, mode = key
        return MatchPoint(cols, 0, rate_for(cols, rate, m), delta, alpha, trials,
                          *sums, *estimate, mode)

    return _run_sweep("simulate-match", keys, grid, specs, point, match_csv, _MATCH_STREAMS)


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


def run_simulate_detect(*, dist=Distribution.bernoulli(0.5), n, delta, trials=100, B,
                        epsilon=0.05, seed=0, threads=1, out=None) -> list:
    """Empirical detection probability next to the analytic bound, per (n, B).

    There is no matcher: epsilon is the detector's slack."""
    keys = dict(locals())
    _check_sweep(**keys)
    if min(B, default=1) < 1:
        raise ValueError(f"batch size {min(B)} must be >= 1")
    grid = [(cols, b) for cols in n for b in B]
    specs = [(partial(detection_trials, dist, cols, b, delta, epsilon),
              _guarded_cells("B", b, cols)) for cols, b in grid]

    # Refuse an all-retained point before any trial; any() stops at its
    # first deletion.
    for pidx, (cols, b) in enumerate(grid):
        if not any(trial_deletions(derive_seed(seed, pidx, t), cols, delta).any()
                   for t in range(trials)):
            raise RuntimeError(f"no columns were deleted in any trial at (n={cols}, "
                               f"B={b}); estimate undefined (delta too small?)")

    def point(key, sums, estimate):
        return DetectPoint(*key, delta, epsilon, trials, *sums, *estimate,
                           detection_probability_bound(*key, delta, dist.entropy, epsilon))

    return _run_sweep("simulate-detect", keys, grid, specs, point, detect_csv,
                      _DETECT_STREAMS)


def detect_csv(points) -> str:
    rows = [(str(p.n), str(p.B), _fmt(p.empirical_alpha),
             _fmt(p.ci_half_width), _fmt(p.bound)) for p in points]
    return csv_text("n,B,empirical_alpha,CI,theorem2_bound", rows)


def run_pipeline(*, dist=Distribution.bernoulli(0.5), n, delta, trials=100, rate=None, m=None,
                 B, epsilon=None, detect_epsilon=None, seed=0, threads=1, out=None) -> list:
    """Seeds -> certainty verdicts -> detected set -> match the remaining rows.
    The detector's slack is the matcher's unless detect_epsilon is given."""
    epsilon = default_epsilon(dist) if epsilon is None else epsilon
    detect_epsilon = epsilon if detect_epsilon is None else detect_epsilon
    keys = dict(locals())
    _check_sweep(**keys)
    grid = [(cols, b) for cols in n for b in B]
    specs = []
    for cols, b in grid:
        rows = resolve_m(cols, rate, m)
        if b >= rows:
            raise ValueError(f"batch size {b} must be < m = {rows}")
        specs.append((partial(_trial_by_trial, partial(_match_trial, dist, cols, rows, delta,
                                                       0.0, b, epsilon, detect_epsilon)),
                      _guarded_cells("m", rows, cols)))

    def point(key, sums, estimate):
        cols, b = key
        return MatchPoint(cols, b, rate_for(cols, rate, m), delta, 0.0, trials,
                          *sums, *estimate, "materialized")

    return _run_sweep("pipeline", keys, grid, specs, point, pipeline_csv, _MATCH_STREAMS)


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

    @property
    def text(self) -> str:
        """The report: a line per suite, each counterexample, the verdict."""
        lines = [f"{'ok  ' if ok else 'FAIL'} {name}" for name, ok in self.suites]
        lines += [f"counterexample: {msg}" for msg in self.failures]
        lines.append("oracle-check: " + ("all suites passed" if self.passed
                                         else f"{len(self.failures)} failure(s)"))
        return "\n".join(lines) + "\n"


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


def run_oracle_check(*, seed=0, cases=400, out=None) -> OracleReport:
    """Run every brute-force equivalence suite; counterexamples are collected
    verbatim, and the report's text is written to out when given."""
    if cases < 1:
        raise ValueError(f"cases must be >= 1, got {cases}")
    check_range("seed", seed, hi=2 ** 64)
    suites = [
        ("embedding counts vs enumeration", check_counting(cases, seed)),
        ("posteriors: fb = Bayes enumeration", check_posteriors(cases, seed)),
        ("supersequence count and bound", check_supersequence(seed)),
        ("g-Deleted subset of f-Deleted", check_g_subset_f(cases, seed)),
        ("boolean kernel vs exact posteriors", check_fast_kernel(cases, seed)),
    ]
    failures = [msg for _, fails in suites for msg in fails]
    report = OracleReport([(name, len(fails) == 0) for name, fails in suites], failures)
    if out:
        write_atomic(out, report.text.encode())
    return report


# ---------------------------------------------------------------------------
# CSV + manifest emission


def _fmt(x: float) -> str:
    # Six decimals below 1e15. From there on a double keeps at most one of
    # them, and a fixed-point field would grow with the magnitude (a Theorem 2
    # bound can be as low as -1.8e308), so the exponent form is used.
    return f"{x:.6f}" if abs(x) < 1e15 else f"{x:.6e}"


def _dist_echo(dist: Distribution) -> str:
    return ",".join(repr(p) for p in dist.probabilities)


def _cfg_echo(keys: dict) -> list:
    """The manifest's config.* lines: a runner's arguments that are set, in
    its signature's order and with its slacks resolved, so that the lines
    replay as a config file.  The seed has its own line, threads do not
    change a CSV, and out is the CSV itself."""
    return [(key, _dist_echo(v) if isinstance(v, Distribution)
             else ",".join(map(str, v)) if isinstance(v, (tuple, list)) else str(v))
            for key, v in keys.items()
            if v is not None and key not in ("seed", "threads", "out")]


def csv_text(header: str, rows) -> str:
    """The one CSV serialisation: a header line, then one line per row of
    already formatted fields."""
    return header + "\n" + "".join(",".join(r) + "\n" for r in rows)


def _emit(out: str, command: str, text: str, config_echo,
          master_seed, trial_seeds, elapsed: float, streams=()) -> None:
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
                     "trial_index]) -> uint64; streams: "
                     + ", ".join(f"{stream} {name}" for stream, name in streams))
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
