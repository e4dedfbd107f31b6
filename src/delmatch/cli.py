"""Command-line entry point.

Subcommands: rates, simulate-match, simulate-detect, pipeline, oracle-check.
Values may come from flags or from a flat 'key = value' config file
(--config); flags win.  Exit codes: 0 success, 1 check failure, 2 usage
or file error.  Without --out, data commands print the CSV to stdout.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys

from .harness import (parse_config_file, parse_distribution, parse_float_grid,
                      parse_int_list, run_rates, run_simulate_match, run_simulate_detect,
                      run_pipeline, run_oracle_check, rates_csv, match_csv, detect_csv,
                      pipeline_csv)


def _out_path(path: str) -> str:
    """--out, refused before any trial runs if it cannot be a file."""
    if not path:
        raise ValueError("empty path")
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise ValueError(f"output directory {directory} does not exist")
    if os.path.isdir(path):
        raise ValueError(f"output path {path} is a directory")
    return path


# Per key: its conversion and its flag help.  A flag has no type: _read
# converts a flag and a config line alike.  A key's default is its runner's
# parameter default, which the help states as "(default X)", or as
# "(command default X)" for one command's own.
KEYS = {
    "dist": (parse_distribution, "bern:p | uniform:q | p0,p1,... (default bern:0.5)"),
    "deltas": (parse_float_grid,
               "comma list or start:stop:count grid (default 0:0.95:20)"),
    "alphas": (parse_float_grid,
               "comma list of detection probabilities (default 0,0.25,0.5,0.75,1)"),
    "n": (parse_int_list, "comma list of column counts"),
    "delta": (float, "column deletion probability"),
    "trials": (int, "Monte Carlo trials per grid point (default 100)"),
    "rate": (float, "growth rate R; m = round(2^(n R))"),
    "m": (int, "explicit row count (alternative to --rate)"),
    "alpha": (float, "deletion detection probability"),
    "B": (parse_int_list, "comma list of seed batch sizes"),
    "epsilon": (float, "typicality slack of the matcher (default 0.1 * H(X)), or of "
                       "simulate-detect's detector (simulate-detect default 0.05)"),
    "detect_epsilon": (float, "typicality slack for the detector "
                              "(defaults to --epsilon)"),
    "seed": (int, "64-bit master seed (default 0)"),
    "threads": (int, "at most this many worker processes (default 1)"),
    "cases": (int, "random cases per suite (default 400)"),
    "out": (_out_path, "output CSV path (default: print to stdout)"),
}

# Per command: its runner, whose keyword parameters are the keys it reads;
# its CSV table (None: it prints a check report); the line printed per point
# after writing --out; and its line in `delmatch --help`.
COMMANDS = {
    "rates": (run_rates, rates_csv, None,
              "achievable-rate table over a (delta, alpha) grid"),
    "simulate-match": (run_simulate_match, match_csv,
                       "n={0.n} m_eval={0.evaluated} mode={0.mode} "
                       "mismatch_rate={0.mismatch_rate:.6f}",
                       "mismatch rate of the matching scheme under given-alpha side "
                       "information"),
    "simulate-detect": (run_simulate_detect, detect_csv, None,
                        "empirical deletion-detection probability vs the analytic bound"),
    "pipeline": (run_pipeline, pipeline_csv,
                 "n={0.n} B={0.B} detected_fraction={0.detected_fraction:.6f} "
                 "mismatch_rate={0.mismatch_rate:.6f}",
                 "end to end: seed rows -> detected deletions -> match the remaining rows"),
    "oracle-check": (run_oracle_check, None, None,
                     "exhaustive small-instance verification of the exact counting "
                     "machinery"),
}

# The keys each command reads besides out, which every command reads: its
# runner's parameters, in the order its manifest echoes them.
READS = {command: tuple(key for key in inspect.signature(runner).parameters if key != "out")
         for command, (runner, *_) in COMMANDS.items()}


def _read(args, cfgmap) -> dict:
    """Each key the command's runner takes: its flag, else its config line,
    converted, else the runner's default.  A conversion error names the
    option, and a config key left over was never read: misspelt, or not
    this command's."""
    values = {}
    for key, param in inspect.signature(COMMANDS[args.command][0]).parameters.items():
        text = cfgmap.pop(key, None)
        if getattr(args, key) is not None:
            text = getattr(args, key)
        if text is None and param.default is param.empty:
            raise ValueError(f"missing required option {_flag(key)}")
        try:
            values[key] = param.default if text is None else KEYS[key][0](text)
        except ValueError as exc:
            raise ValueError(f"{_flag(key)}: {exc}") from exc
    if cfgmap:
        raise ValueError(f"unknown config key(s) for {args.command}: "
                          + ", ".join(sorted(cfgmap)))
    return values


def _run(args, cfgmap) -> int:
    """Call the command's runner with the keys it reads and print what it
    made: its check report, its CSV, or after writing --out, a line per point."""
    runner, to_csv, point_line, _ = COMMANDS[args.command]
    values = _read(args, cfgmap)
    result, out = runner(**values), values["out"]
    if to_csv is None:
        print(result.text, end="")
        return 0 if result.passed else 1
    if not out:
        print(to_csv(result), end="")
        return 0
    print(f"wrote {len(result)} points to {out}")
    if point_line:
        for p in result:
            print("  " + point_line.format(p))
    return 0


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delmatch",
        description="Database matching under random column deletions: "
                    "rate curves, Monte Carlo matching and deletion-detection "
                    "experiments, and brute-force oracle checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    # A command takes exactly the flags whose keys it reads.
    for command, (*_, text) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", help="flat key = value config file")
        for key in READS[command] + ("out",):
            p.add_argument(_flag(key), help=KEYS[key][1])
    return parser


def _plain_args(argv: list):
    """argv as the parser reads it, when argv is a command followed only by
    `--flag value` pairs, each flag the command's own and spelt in full and
    no value starting with '-'; else None, and the parser reads argv and
    words its help and usage errors.  Such an argv skips the parser's first
    build: about 1.5 ms with the locale import of its gettext lookups, a
    tenth of an 8-trial sweep."""
    if not argv or argv[0] not in COMMANDS or len(argv) % 2 == 0:
        return None
    keys = {_flag(key): key for key in ("config",) + READS[argv[0]] + ("out",)}
    values = dict.fromkeys(keys.values())
    for flag, value in zip(argv[1::2], argv[2::2]):
        if flag not in keys or value.startswith("-"):
            return None
        values[keys[flag]] = value
    return argparse.Namespace(command=argv[0], **values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _plain_args(argv) or build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits itself on usage errors / --help
        return int(exc.code or 0)
    try:
        cfgmap = parse_config_file(args.config) if args.config else {}
        return _run(args, cfgmap)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
