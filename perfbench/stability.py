"""Run workloads repeatedly and print each metric's median, quartiles and spread.

    python3 perfbench/stability.py [--workloads W1,W2] [--seeds 1,2,3]
                                   [--repeat N] [--trace 0|1] [--seconds S]

Each run is `run.py` in its own process, as the benchmark is run.  Runs go
seed by seed, and within a seed workload by workload, so that a slow spell
of the machine touches every workload alike.  For every workload and metric
the table gives the median, the first and third quartiles as
`statistics.quantiles(values, n=4)` gives them, and the spread
(q3 - q1) / median.  A spread above a third of the metric's bound in
BENCHMARK.json is marked with `!`.  With --trace 1 this is the traced-run
command: it prints every per-layer metric of every workload.

--seconds defaults to run_seconds from BENCHMARK.json; --repeat runs every
seed that many times.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    names = args.workloads.split(",")
    seeds = [int(s) for s in args.seeds.split(",")] * args.repeat
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(lines[-1])
            runs[name].append(result)
            print(f"{name} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
            if proc.stderr.strip():
                print(proc.stderr.rstrip(), flush=True)

    print(f"\n{'workload':16} {'metric':26} {'unit':9} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8}")
    for name, results in runs.items():
        if not results:
            continue
        shares = {r["failed"] / r["attempted"] for r in results}
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            unit = results[0]["metrics"][metric]["unit"]
            median = statistics.median(values)
            q1, q3 = quartiles(values)
            spread = (q3 - q1) / abs(median) if median else 0.0
            flag = "!" if spread > bounds.get(metric, float("inf")) / 3 else ""
            print(f"{name:16} {metric:26} {unit:9} {median:12.6g} {q1:12.6g} "
                  f"{q3:12.6g} {spread:8.4f}{flag}")
        print(f"{name:16} {'failed share':26} {'':9} {sorted(shares)}  "
              f"all correct: {all(r['correct'] for r in results)}  runs: {len(results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
