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

from .harness import (ConfigError, ExperimentConfig, parse_config_file,
                      parse_distribution, parse_float_grid, parse_int_list,
                      run_rates, run_simulate_match, run_simulate_detect,
                      run_pipeline, run_oracle_check, write_atomic,
                      rates_csv, match_csv, detect_csv, pipeline_csv)

DEFAULTS = {
    "dist": "bern:0.5",
    "deltas": "0:0.95:20",
    "alphas": "0,0.25,0.5,0.75,1",
    "trials": 100,
    "seed": 0,
    "threads": 1,
    "cases": 400,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delmatch",
        description="Database matching under random column deletions: "
                    "rate curves, Monte Carlo matching and deletion-detection "
                    "experiments, and brute-force oracle checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    # No flag has a type: _get converts a flag and a config line alike.  A
    # command takes exactly the flags whose keys it reads.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value config file")
    common.add_argument("--out", help="output CSV path (default: print to stdout)")
    sweep = argparse.ArgumentParser(add_help=False, parents=[common])
    sweep.add_argument("--seed", help="64-bit master seed (default 0)")
    sweep.add_argument("--trials", help="Monte Carlo trials per grid point")
    sweep.add_argument("--threads", help="at most this many worker processes (default 1)")

    p = sub.add_parser("rates", parents=[common],
                       help="achievable-rate table over a (delta, alpha) grid")
    p.add_argument("--dist", help="bern:p | uniform:q | p0,p1,...")
    p.add_argument("--deltas", help="comma list or start:stop:count grid")
    p.add_argument("--alphas", help="comma list of detection probabilities")
    p.set_defaults(func=cmd_rates)

    p = sub.add_parser("simulate-match", parents=[sweep],
                       help="mismatch rate of the matching scheme under "
                            "given-alpha side information")
    _add_match_args(p)
    p.add_argument("--alpha", help="deletion detection probability")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("simulate-detect", parents=[sweep],
                       help="empirical deletion-detection probability vs the "
                            "analytic bound")
    p.add_argument("--dist", help="bern:p | uniform:q | p0,p1,...")
    p.add_argument("--n", help="comma list of column counts")
    p.add_argument("--B", help="comma list of seed batch sizes")
    p.add_argument("--delta", help="column deletion probability")
    p.add_argument("--epsilon", help="typicality slack for the detector (default 0.05)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("pipeline", parents=[sweep],
                       help="end to end: seed rows -> detected deletions -> "
                            "match the remaining rows")
    _add_match_args(p)
    p.add_argument("--B", help="comma list of seed batch sizes")
    p.add_argument("--detect-epsilon",
                   help="typicality slack for the detector (defaults to --epsilon)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("oracle-check", parents=[common],
                       help="exhaustive small-instance verification of the "
                            "exact counting machinery")
    p.add_argument("--seed", help="64-bit master seed (default 0)")
    p.add_argument("--cases", help="random cases per suite (default 400)")
    p.set_defaults(func=cmd_oracle_check)
    return parser


def _add_match_args(p):
    p.add_argument("--dist", help="bern:p | uniform:q | p0,p1,...")
    p.add_argument("--n", help="comma list of column counts")
    p.add_argument("--rate", help="growth rate R; m = round(2^(n R))")
    p.add_argument("--m", help="explicit row count (alternative to --rate)")
    p.add_argument("--delta", help="column deletion probability")
    p.add_argument("--epsilon", help="typicality slack (default 0.1 * H(X))")


def _out_path(path: str) -> str:
    """--out, refused before any trial runs if it cannot be a file."""
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise ConfigError(f"output directory {directory} does not exist")
    if os.path.isdir(path):
        raise ConfigError(f"output path {path} is a directory")
    return path


def _get(args, cfgmap, key, conv=None, required=False):
    """A flag, else the config file's key, else its DEFAULTS entry, passed
    through conv; a conv error names the option.  The key is taken out of
    cfgmap, so the keys left there were never read."""
    val = cfgmap.pop(key, DEFAULTS.get(key))
    if getattr(args, key, None) is not None:
        val = getattr(args, key)
    if val is None and required:
        raise ConfigError(f"missing required option --{key}")
    if conv is None or val is None:
        return val
    try:
        return conv(val)
    except ValueError as exc:  # ConfigError included
        raise ConfigError(f"--{key.replace('_', '-')}: {exc}") from exc


def _refuse_unread(args, cfgmap):
    """A config key the command did not read is misspelt or not its own."""
    if cfgmap:
        raise ConfigError(f"unknown config key(s) for {args.command}: "
                          + ", ".join(sorted(cfgmap)))


def cmd_rates(args, cfgmap) -> int:
    dist = parse_distribution(_get(args, cfgmap, "dist"))
    deltas = _get(args, cfgmap, "deltas", parse_float_grid)
    alphas = _get(args, cfgmap, "alphas", parse_float_grid)
    out = _get(args, cfgmap, "out", _out_path)
    _refuse_unread(args, cfgmap)
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


def _sweep_config(args, cfgmap) -> ExperimentConfig:
    kw = dict(
        dist=parse_distribution(_get(args, cfgmap, "dist")),
        n_values=_get(args, cfgmap, "n", parse_int_list, required=True),
        delta=_get(args, cfgmap, "delta", float, required=True),
        trials=_get(args, cfgmap, "trials", int),
        master_seed=_get(args, cfgmap, "seed", int),
        epsilon=_get(args, cfgmap, "epsilon", float),
        out=_get(args, cfgmap, "out", _out_path),
        threads=_get(args, cfgmap, "threads", int),
    )
    if args.command == "simulate-detect":  # no matcher: --epsilon is the detector's
        kw["detect_epsilon"] = kw.pop("epsilon")
    else:
        kw.update(rate=_get(args, cfgmap, "rate", float), m=_get(args, cfgmap, "m", int))
    if args.command == "simulate-match":
        kw["alpha"] = _get(args, cfgmap, "alpha", float, required=True)
    else:
        kw["batch_sizes"] = _get(args, cfgmap, "B", parse_int_list, required=True)
    if args.command == "pipeline":
        kw["detect_epsilon"] = _get(args, cfgmap, "detect_epsilon", float)
    _refuse_unread(args, cfgmap)
    return ExperimentConfig(**kw)


def cmd_sweep(args, cfgmap) -> int:
    runner, to_csv, point_line = SWEEPS[args.command]
    cfg = _sweep_config(args, cfgmap)
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
    seed = _get(args, cfgmap, "seed", int)
    cases = _get(args, cfgmap, "cases", int)
    out = _get(args, cfgmap, "out", _out_path)
    _refuse_unread(args, cfgmap)
    report = run_oracle_check(seed, cases)
    lines = [f"{'ok  ' if ok else 'FAIL'} {name}" for name, ok in report.suites]
    lines += [f"counterexample: {msg}" for msg in report.failures]
    lines.append("oracle-check: " + ("all suites passed" if report.passed
                                     else f"{len(report.failures)} failure(s)"))
    print("\n".join(lines))
    if out:
        write_atomic(out, ("\n".join(lines) + "\n").encode())
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
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
