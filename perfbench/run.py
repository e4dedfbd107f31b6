"""One benchmark run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a delmatch checkout; the program is taken from its
`src/` directory.  Every run ends by checking the program's outputs: it
re-runs the sweep's trials in this process (see workloads.replay) and
compares them, and the sweep's CSV and manifest, with computations made
apart from the program (see checks.py).

--trace 0 launches the CLI sweep again and again for S seconds, each time as
a fresh `python3` process, and reports the end-to-end metrics: the median
over sweeps of trials per second of sweep wall time and of the sweep's CPU
seconds (main process plus workers) and peak RSS, and the median set-up time
(process launch until `delmatch.cli.main` is entered) over every launch.

--trace 1 runs the traced-run trial set once through the CLI untraced, then
replays the same trials in this process with a span around every layer call,
and reports the per-layer metrics.  It measures a fixed set of trials, so S
does not apply.

The last line on stdout is one JSON object with the keys correct, attempted,
failed and metrics.  attempted counts the Monte Carlo trials the CLI ran;
failed counts those of them that failed a check.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import checks

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
LAUNCH = BENCH / "launch.py"
WORKLOAD_NAMES = ("match-known", "pipeline-hidden", "detect-sweep")
SETUP_LAUNCHES = 5        # set-up-only launches per run, besides the sweeps
LAUNCH_TIMEOUT_S = 150


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


@dataclass
class Launch:
    setup_s: float = None     # process launch until cli.main is entered
    wall_s: float = None      # inside cli.main
    elapsed_s: float = None   # process launch until exit
    cpu_s: float = None
    rss_mb: float = None
    code: int = None
    error: str = ""
    csv: bytes = None
    manifest: str = None


class Launcher:
    """Starts the CLI through launch.py, each time as a new process."""

    def __init__(self, work: Path):
        self.work = work
        self.count = 0

    def _launch(self, argv: list) -> Launch:
        started = _now()
        proc = subprocess.Popen([sys.executable, str(LAUNCH), str(SRC), *argv],
                                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            _, err = proc.communicate(timeout=LAUNCH_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)   # the sweep's workers too
            proc.communicate()
            return Launch(code=-1, error=f"killed after {LAUNCH_TIMEOUT_S} s")
        elapsed = _now() - started
        lines = err.decode(errors="replace").strip().splitlines()
        try:
            report = json.loads(lines[-1])
        except (IndexError, ValueError):
            return Launch(code=proc.returncode, error="\n".join(lines[-5:]))
        return Launch(setup_s=report["entered"] - started,
                      wall_s=report["left"] - report["entered"], elapsed_s=elapsed,
                      cpu_s=report["cpu_s"], rss_mb=report["rss_kb"] / 1024.0,
                      code=report["code"], error="\n".join(lines[:-1]))

    def setup_only(self) -> Launch:
        return self._launch(["--setup-only"])

    def sweep(self, w, seed: int, trials: int, threads: int) -> Launch:
        self.count += 1
        out = self.work / f"sweep{self.count}.csv"
        launch = self._launch(w.cli_args(seed, trials, threads, str(out)))
        manifest = Path(str(out) + ".manifest.txt")
        if launch.code == 0 and out.is_file() and manifest.is_file():
            launch.csv = out.read_bytes()
            launch.manifest = manifest.read_text()
        for path in (out, manifest):
            path.unlink(missing_ok=True)
        return launch


def verify(w, seed: int, trials: int, sweeps: list, tracer):
    """Replay the sweeps' trials and check them and every sweep's output.

    All sweeps ran the same trials with the same seed, so their CSVs must be
    byte-identical, whatever their worker count.  Returns (failed trials
    summed over sweeps, failure messages, replayed TrialResults).
    """
    import workloads

    results = workloads.replay(w, seed, trials, tracer)
    per_sweep = len(w.grid()) * trials
    messages = [f"trial {r.point}.{r.t}: {m}" for r in results for m in r.failures]
    bad = {(r.point, r.t) for r in results if r.failures}
    reference = sweeps[0].csv
    if reference is not None:
        for point, failures in workloads.check_csv(w, reference.decode(), results,
                                                   trials).items():
            messages += failures
            if failures:
                bad |= {(p, t) for p in range(len(w.grid())) for t in range(trials)
                        if point is None or p == point}
    failed = 0
    for i, s in enumerate(sweeps):
        if s.csv is None:
            problems = [f"sweep {i} exited with {s.code}: {s.error}"]
        elif s.csv != reference:
            problems = [f"sweep {i} CSV differs from sweep 0 with the same seed"]
        else:
            problems = checks.check_manifest(s.manifest, s.csv, seed, trials,
                                             len(w.grid()))
        messages += problems
        failed += per_sweep if problems else len(bad)
    return failed, messages, results


def e2e_run(w, seed: int, seconds: float, launcher: Launcher, tracer):
    launcher.setup_only()     # warm-up: compiles bytecode, fills the page cache
    setups = [launcher.setup_only() for _ in range(SETUP_LAUNCHES)]
    sweeps = []
    began = _now()
    while not sweeps or _now() - began + sweeps[-1].elapsed_s <= seconds:
        sweeps.append(launcher.sweep(w, seed, w.trials, w.threads))
        if sweeps[-1].elapsed_s is None:
            break
    failed, messages, _ = verify(w, seed, w.trials, sweeps, tracer)
    done = [s for s in sweeps if s.wall_s is not None]
    trials = len(w.grid()) * w.trials
    metrics = {}
    if done:
        metrics = {
            "trials_per_s": (statistics.median(trials / s.wall_s for s in done), "trials/s"),
            "cpu_s": (statistics.median(s.cpu_s for s in done), "s"),
            "setup_s": (statistics.median(s.setup_s for s in setups + done
                                          if s.setup_s is not None), "s"),
            "peak_rss_mb": (statistics.median(s.rss_mb for s in done), "MB"),
        }
    notes = [f"{len(sweeps)} sweeps of {trials} trials, {len(setups) + len(done)} set-ups",
             "trials/s by sweep: " + " ".join(f"{trials / s.wall_s:.4g}" for s in done),
             "cpu s by sweep: " + " ".join(f"{s.cpu_s:.4g}" for s in done)]
    return trials * len(sweeps), failed, messages, metrics, notes


def traced_run(w, seed: int, launcher: Launcher, tracer):
    import workloads

    launcher.setup_only()     # warm-up, as in the untraced run
    # The workload's own worker count for cpu_s, and one worker so that the
    # traced replay, which runs in one process, has a wall time to compare.
    refs = [launcher.sweep(w, seed, w.trace_trials, threads)
            for threads in sorted({w.threads, 1}, reverse=True)]
    failed, messages, results = verify(w, seed, w.trace_trials, refs, tracer)
    pooled, serial = refs[0], refs[-1]
    c = Counter()
    for r in results:
        c.update(r.counts)

    def share(num, den):
        return num / den if den else 0.0

    # Every workload traces at least 40 trials, so the trial ten from the
    # slowest is a tail and not just the maximum.
    trial_ms = sorted(1e3 * d for d in tracer.durations("harness.trial"))
    match_s = tracer.busy("matcher.match")
    layer_busy = sum(tracer.busy(name) for name in workloads.TRIAL_LAYERS)
    metrics = {
        "model.sample_s": (tracer.busy("model.sample"), "s"),
        "model.channel_s": (tracer.busy("model.channel"), "s"),
        "model.batch_s": (tracer.busy("model.batch"), "s"),
        "model.cells": (c["cells"], "count"),
        "matcher.match_s": (match_s, "s"),
        "matcher.rows": (c["rows"], "count"),
        "matcher.us_per_row": (1e6 * share(match_s, c["rows"]), "us"),
        "matcher.u0_row_share": (share(c["u0_rows"], c["rows"]), "ratio"),
        "matcher.typical_share": (share(c["typical"], c["source_rows"]), "ratio"),
        "matcher.matched": (c["matched"], "count"),
        "matcher.collision": (c["collision"], "count"),
        "matcher.no_candidate": (c["no_candidate"], "count"),
        "matcher.correct_ratio": (share(c["correct"], c["rows"]), "ratio"),
        "detector.verdict_s": (tracer.busy("detector.verdict"), "s"),
        "detector.trial_s": (tracer.busy("detector.trial"), "s"),
        "detector.masks_s": (tracer.busy("detector.masks"), "s"),
        "detector.columns": (c["columns"], "count"),
        "detector.deleted_verdicts": (c["deleted_verdicts"], "count"),
        "detector.detected_ratio": (share(c["deleted_verdicts"], c["true_deleted"]), "ratio"),
        "harness.trial_p50_ms": (statistics.median(trial_ms), "ms"),
        "harness.trial_tail_ms": (trial_ms[-11], "ms"),
        "harness.overhead_cpu_s": (pooled.cpu_s - layer_busy
                                   if pooled.cpu_s is not None else 0.0, "s"),
        "trace.overhead_s": (sum(trial_ms) / 1e3 - serial.wall_s
                             if serial.wall_s is not None else 0.0, "s"),
    }
    notes = [f"traced {len(trial_ms)} trials; harness.trial_tail_ms is the "
             f"p{100 * (len(trial_ms) - 10) / len(trial_ms):.2f} trial",
             "harness.overhead_cpu_s is computed: untraced sweep CPU "
             f"({w.threads} worker(s)) minus traced layer busy time"]
    attempted = len(refs) * len(w.grid()) * w.trace_trials
    return attempted, failed, messages, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "delmatch" / "cli.py").is_file():
        print(f"error: no delmatch sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from tracing import Tracer

    w = workloads.WORKLOADS[args.workload]
    with tempfile.TemporaryDirectory(dir=BENCH, prefix=".work-") as work:
        launcher = Launcher(Path(work))
        if args.trace:
            result = traced_run(w, args.seed, launcher, Tracer())
        else:
            result = e2e_run(w, args.seed, args.seconds, launcher, Tracer())
    attempted, failed, messages, metrics, notes = result
    for msg in messages:
        print(f"check failed: {msg}", file=sys.stderr)
    for note in notes:
        print(f"{w.name}: {note}")
    for name, (value, unit) in metrics.items():
        print(f"{w.name}: {name} = {value:.6g} {unit}")
    correct = not messages and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
