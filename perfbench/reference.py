"""Reference figures for the README, measured at the current commit.

    python3 perfbench/reference.py [--seed N] [--repeats R]

Run from the root of a checkout.  Prints

- the detect-sweep sweep at 1 and at 2 worker processes, alternating, R
  sweeps each: median trials per second of sweep wall time and CPU seconds;
- the matcher's growth with the row count: match_all wall time per trial and
  per observed row at n=32, delta=0.2, for m = 1024, 2048, 4096, at alpha=0.5
  (the ROADMAP baseline setting) and alpha=1 (the match-known setting),
  median of R trials each.
"""

import argparse
import statistics
import sys
import tempfile
import time
from pathlib import Path

import run

SIZES = (1024, 2048, 4096)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args()
    sys.path.insert(0, str(run.SRC))
    import checks
    import workloads
    from delmatch import (Distribution, MatcherConfig, apply_deletion_channel,
                          match_all, sample_database)

    w = workloads.WORKLOADS["detect-sweep"]
    with tempfile.TemporaryDirectory(dir=run.BENCH, prefix=".work-") as work:
        launcher = run.Launcher(Path(work))
        launcher.setup_only()
        sweeps = {1: [], 2: []}
        for _ in range(args.repeats):
            for threads in (1, 2):
                sweeps[threads].append(launcher.sweep(w, args.seed, w.trials, threads))
    trials = len(w.grid()) * w.trials
    for threads, done in sweeps.items():
        print(f"detect-sweep, {threads} worker(s), {trials} trials per sweep: "
              f"{statistics.median(trials / s.wall_s for s in done):.1f} trials/s, "
              f"cpu {statistics.median(s.cpu_s for s in done):.2f} s, "
              f"wall {statistics.median(s.wall_s for s in done):.2f} s "
              f"(median of {len(done)})")

    dist = Distribution.bernoulli(0.5)
    cfg = MatcherConfig(epsilon=0.1)
    for alpha in (0.5, 1.0):
        for m in SIZES:
            times = []
            for t in range(args.repeats):
                ts = checks.seed_rule(args.seed, 0, t)
                c1 = sample_database(dist, m, 32, checks.seed_rule(ts, 0))
                exp = apply_deletion_channel(c1, 0.2, alpha, checks.seed_rule(ts, 1))
                started = time.perf_counter()
                match_all(exp.c1, exp.c2.symbols, exp.detection.detected_indices, cfg, dist)
                times.append(time.perf_counter() - started)
            per_trial = statistics.median(times)
            print(f"match_all n=32 delta=0.2 alpha={alpha} m={m}: {per_trial:.3f} s "
                  f"per trial, {1e6 * per_trial / m:.0f} us per observed row "
                  f"(median of {len(times)})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
