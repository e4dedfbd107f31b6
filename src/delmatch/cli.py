"""Command-line entry point.

Subcommands: rates, simulate-match, simulate-detect, pipeline, oracle-check.
Values may come from flags or from a flat 'key = value' config file
(--config); flags win.  Exit codes: 0 success, 1 check failure, 2 usage
or file error.  Without --out, data commands print the CSV to stdout.
"""

from __future__ import annotations

import argparse
import os
import sys

from .harness import (READS, FIELDS, ConfigError, ExperimentConfig, parse_config_file,
                      parse_distribution, parse_float_grid, parse_int_list,
                      run_rates, run_simulate_match, run_simulate_detect,
                      run_pipeline, run_oracle_check, write_atomic,
                      rates_csv, match_csv, detect_csv, pipeline_csv)


def _out_path(path: str) -> str:
    """--out, refused before any trial runs if it cannot be a file."""
    if not path:
        raise ConfigError("empty path")
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise ConfigError(f"output directory {directory} does not exist")
    if os.path.isdir(path):
        raise ConfigError(f"output path {path} is a directory")
    return path


REQUIRED = object()  # the default of a key with none

# Per key (see harness.READS for who reads it): its conversion, default and
# flag help.  A flag has no type: _read converts a flag and a config line
# alike.
KEYS = {
    "dist": (parse_distribution, "bern:0.5", "bern:p | uniform:q | p0,p1,..."),
    "deltas": (parse_float_grid, "0:0.95:20", "comma list or start:stop:count grid"),
    "alphas": (parse_float_grid, "0,0.25,0.5,0.75,1",
               "comma list of detection probabilities"),
    "n": (parse_int_list, REQUIRED, "comma list of column counts"),
    "delta": (float, REQUIRED, "column deletion probability"),
    "trials": (int, "100", "Monte Carlo trials per grid point (default 100)"),
    "rate": (float, None, "growth rate R; m = round(2^(n R))"),
    "m": (int, None, "explicit row count (alternative to --rate)"),
    "alpha": (float, REQUIRED, "deletion detection probability"),
    "B": (parse_int_list, REQUIRED, "comma list of seed batch sizes"),
    "epsilon": (float, None, "typicality slack (default 0.1 * H(X); "
                             "simulate-detect's detector: 0.05)"),
    "detect_epsilon": (float, None, "typicality slack for the detector "
                                    "(defaults to --epsilon)"),
    "seed": (int, "0", "64-bit master seed (default 0)"),
    "threads": (int, "1", "at most this many worker processes (default 1)"),
    "cases": (int, "400", "random cases per suite (default 400)"),
    "out": (_out_path, None, "output CSV path (default: print to stdout)"),
}


def _read(args, cfgmap) -> dict:
    """Each key the command reads: its flag, else its config line, else its
    default, converted, by its ExperimentConfig or runner parameter name.  A
    conversion error names the option, and a config key left over was never
    read: misspelt, or not this command's."""
    values = {}
    for key in READS[args.command] + ("out",):
        conv, default, _ = KEYS[key]
        val = cfgmap.pop(key, default)
        if getattr(args, key) is not None:
            val = getattr(args, key)
        option = _flag(key)
        if val is REQUIRED:
            raise ConfigError(f"missing required option {option}")
        try:
            values[FIELDS.get(key, key)] = None if val is None else conv(val)
        except ValueError as exc:  # ConfigError included
            raise ConfigError(f"{option}: {exc}") from exc
    if cfgmap:
        raise ConfigError(f"unknown config key(s) for {args.command}: "
                          + ", ".join(sorted(cfgmap)))
    return values


def cmd_rates(args, cfgmap) -> int:
    dist, deltas, alphas, out = _read(args, cfgmap).values()
    points = run_rates(dist, deltas, alphas, out)
    if out:
        print(f"wrote {len(points)} rate points to {out}")
    else:
        print(rates_csv(points), end="")
    return 0


# Per sweep command: runner, CSV table, and the line printed per point
# after writing --out.
SWEEPS = {
    "simulate-match": (run_simulate_match, match_csv,
                       "n={0.n} m_eval={0.evaluated} mode={0.mode} "
                       "mismatch_rate={0.mismatch_rate:.6f}"),
    "simulate-detect": (run_simulate_detect, detect_csv, None),
    "pipeline": (run_pipeline, pipeline_csv,
                 "n={0.n} B={0.B} detected_fraction={0.detected_fraction:.6f} "
                 "mismatch_rate={0.mismatch_rate:.6f}"),
}


def cmd_sweep(args, cfgmap) -> int:
    runner, to_csv, point_line = SWEEPS[args.command]
    cfg = ExperimentConfig(**_read(args, cfgmap))
    points = runner(cfg)
    if cfg.out:
        print(f"wrote {len(points)} points to {cfg.out}")
        if point_line:
            for p in points:
                print("  " + point_line.format(p))
    else:
        print(to_csv(points), end="")
    return 0


def cmd_oracle_check(args, cfgmap) -> int:
    seed, cases, out = _read(args, cfgmap).values()
    report = run_oracle_check(seed, cases)
    lines = [f"{'ok  ' if ok else 'FAIL'} {name}" for name, ok in report.suites]
    lines += [f"counterexample: {msg}" for msg in report.failures]
    lines.append("oracle-check: " + ("all suites passed" if report.passed
                                     else f"{len(report.failures)} failure(s)"))
    print("\n".join(lines))
    if out:
        write_atomic(out, ("\n".join(lines) + "\n").encode())
    return 0 if report.passed else 1


# Per command: its handler and its line in `delmatch --help`.
COMMANDS = {
    "rates": (cmd_rates, "achievable-rate table over a (delta, alpha) grid"),
    "simulate-match": (cmd_sweep, "mismatch rate of the matching scheme under "
                                  "given-alpha side information"),
    "simulate-detect": (cmd_sweep, "empirical deletion-detection probability vs "
                                   "the analytic bound"),
    "pipeline": (cmd_sweep, "end to end: seed rows -> detected deletions -> "
                            "match the remaining rows"),
    "oracle-check": (cmd_oracle_check, "exhaustive small-instance verification "
                                       "of the exact counting machinery"),
}


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
    for command, (func, text) in COMMANDS.items():
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", help="flat key = value config file")
        for key in READS[command] + ("out",):
            p.add_argument(_flag(key), help=KEYS[key][2])
        p.set_defaults(func=func)
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
    return argparse.Namespace(command=argv[0], func=COMMANDS[argv[0]][0], **values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _plain_args(argv) or build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits itself on usage errors / --help
        return int(exc.code or 0)
    try:
        cfgmap = parse_config_file(args.config) if args.config else {}
        return args.func(args, cfgmap)
    except (ValueError, OSError) as exc:  # ConfigError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
