"""Run one `delmatch` CLI command in this process and report how long it took.

    python3 launch.py SRC_DIR [delmatch arguments ...]
    python3 launch.py SRC_DIR --setup-only

SRC_DIR is the directory that holds the `delmatch` package.  The command is
run exactly as the `delmatch` console script runs it, by calling
`delmatch.cli.main`.  After it returns, the last line written to stderr is a
JSON object with

- `entered`, `left`: CLOCK_MONOTONIC readings when `main` was entered and
  left, comparable with the parent's readings because the clock is
  system-wide;
- `cpu_s`: CPU seconds spent inside `main` by this process plus those of its
  reaped children (the sweep's worker processes);
- `rss_kb`: peak resident set of this process and of its largest child;
- `code`: the exit code `main` returned.

With --setup-only the package is imported and `main` is not called, so the
report measures interpreter start and imports alone.
"""

import resource
import sys
import time


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def main() -> int:
    src, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, src)
    from delmatch.cli import main as cli_main

    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    entered = time.clock_gettime(time.CLOCK_MONOTONIC)
    code = 0 if argv == ["--setup-only"] else cli_main(argv)
    left = time.clock_gettime(time.CLOCK_MONOTONIC)
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    sys.stdout.flush()

    import json     # after the clock readings, so it is not counted as set-up
    report = {
        "entered": entered,
        "left": left,
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
        "rss_kb": max(self1.ru_maxrss, kids1.ru_maxrss),
        "code": code,
    }
    print(json.dumps(report), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
