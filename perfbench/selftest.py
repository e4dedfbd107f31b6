"""Show that each correctness check rejects a deliberately corrupted output.

    python3 perfbench/selftest.py

Run from the root of a checkout.  Small versions of the three workloads are
replayed and their CLI sweeps run in this process.  First every check must
pass on the program's own outputs.  Then one output at a time is corrupted,
either by wrapping a program function so that it returns one wrong value or
by altering one character of a CSV or manifest, and the check named for it
must report a failure.  Exits 1 if a check passes a corrupted output or
fails a good one.
"""

import dataclasses
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np                                            # noqa: E402

from delmatch import MatchOutcome, MatchStatus, Verdict       # noqa: E402
from delmatch.cli import main as cli_main                     # noqa: E402

import checks                                                 # noqa: E402
import run                                                    # noqa: E402
import workloads                                              # noqa: E402
from tracing import Tracer                                    # noqa: E402

SMALL = {
    "match-known": dict(m=256, trials=2),
    "pipeline-hidden": dict(m=128, trials=2),
    "detect-sweep": dict(n_values=(64, 128), batch_sizes=(8,), trials=10),
}
SEED = 11


def small(name):
    return dataclasses.replace(workloads.WORKLOADS[name], **SMALL[name])


@contextmanager
def patched(name, wrap):
    """Replace the program function `name` as the workloads module calls it."""
    original = getattr(workloads, name)
    setattr(workloads, name, wrap(original))
    try:
        yield
    finally:
        setattr(workloads, name, original)


def replay_failures(w) -> list:
    results = workloads.replay(w, SEED, w.trials, Tracer())
    return [m for r in results for m in r.failures]


def sweep_csv(w, tmp: Path) -> tuple:
    out = tmp / f"{w.name}.csv"
    code = cli_main(w.cli_args(SEED, w.trials, 1, str(out)))
    if code != 0:
        raise SystemExit(f"{w.name}: the CLI exited with {code}")
    return out.read_text(), Path(str(out) + ".manifest.txt").read_text()


def set_field(text: str, column: str, point: int, value=None) -> str:
    """Set one CSV field to value, or by default change its last digit."""
    lines = text.splitlines()
    header = lines[0].split(",")
    fields = lines[1 + point].split(",")
    old = fields[header.index(column)]
    fields[header.index(column)] = (value if value is not None
                                    else old[:-1] + str((int(old[-1]) + 1) % 10))
    lines[1 + point] = ",".join(fields)
    return "\n".join(lines) + "\n"


# Corrupting wrappers: each returns the program's result with one value wrong.

def move_one_match(match_all):
    def wrapped(c1, rows, detected, cfg, dist):
        outcomes, matched = match_all(c1, rows, detected, cfg, dist)
        j = next(j for j, o in enumerate(outcomes) if o.is_match)
        outcomes[j] = MatchOutcome(MatchStatus.MATCHED, (outcomes[j].row + 1) % c1.m)
        return outcomes, matched
    return wrapped


def drop_one_match(match_all):
    def wrapped(c1, rows, detected, cfg, dist):
        outcomes, matched = match_all(c1, rows, detected, cfg, dist)
        j = next(j for j, o in enumerate(outcomes) if o.is_match)
        outcomes[j] = MatchOutcome(MatchStatus.NO_CANDIDATE)
        return outcomes, matched
    return wrapped


def false_deleted(detect_f):
    def wrapped(batch, dist, epsilon):
        verdicts = detect_f(batch, dist, epsilon)
        if Verdict.RETAINED in verdicts:
            verdicts[verdicts.index(Verdict.RETAINED)] = Verdict.DELETED
        return verdicts
    return wrapped


def retained_marked_deleted(masks):
    def wrapped(d1, d2):
        certain_del, certain_ret = masks(d1, d2)
        certain_del = certain_del.copy()
        certain_del[np.flatnonzero(certain_ret)[0]] = True
        return certain_del, certain_ret
    return wrapped


def retained_left_open(masks):
    def wrapped(d1, d2):
        certain_del, certain_ret = masks(d1, d2)
        certain_ret = certain_ret.copy()
        certain_ret[np.flatnonzero(certain_ret)[0]] = False
        return certain_del, certain_ret
    return wrapped


def one_more_hit(detection_trial):
    def wrapped(*args):
        hits, total = detection_trial(*args)
        return hits + 1, total
    return wrapped


def main() -> int:
    bad = []

    def expect(label, failures, want_failure):
        ok = bool(failures) == want_failure
        shown = failures[0] if failures else "no failure"
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {shown}")
        if not ok:
            bad.append(label)

    match, pipe, detect = (small(name) for name in SMALL)
    # In the small pipeline every observed row is scanned, so one flipped
    # outcome is caught wherever it lands.
    workloads.SCAN_SAMPLE = pipe.m

    for w in (match, pipe, detect):
        expect(f"{w.name}: replay of good outputs", replay_failures(w), False)

    corruptions = [
        (match, "match_all", move_one_match, "one MATCHED outcome moved to another row (dict matcher)"),
        (pipe, "match_all", move_one_match, "one MATCHED outcome moved to another row (two-pointer scan)"),
        (pipe, "match_all", drop_one_match, "one MATCHED outcome turned NO_CANDIDATE"),
        (pipe, "detect_f", false_deleted, "one false Deleted verdict"),
        (detect, "certain_verdict_masks", retained_marked_deleted, "a retained column marked certainly deleted"),
        (detect, "certain_verdict_masks", retained_left_open, "a certainly-retained column left open"),
        (detect, "detection_trial", one_more_hit, "detection_trial reports one hit too many"),
    ]
    for w, name, wrap, label in corruptions:
        with patched(name, wrap):
            expect(f"{w.name}: {label}", replay_failures(w), True)

    with tempfile.TemporaryDirectory(dir=BENCH, prefix=".work-") as tmp:
        for w, column in ((match, "mismatch_rate"), (pipe, "detected_fraction"),
                          (pipe, "CI"), (detect, "empirical_alpha")):
            csv_text, manifest = sweep_csv(w, Path(tmp))
            results = workloads.replay(w, SEED, w.trials, Tracer())
            point = 0
            if column == "detected_fraction":
                # The B=0 point, where the property check applies as well.
                point = [b for _, b in w.grid()].index(0)

            def csv_failures(text):
                return [m for fs in workloads.check_csv(w, text, results, w.trials).values()
                        for m in fs]

            expect(f"{w.name}: good CSV", csv_failures(csv_text), False)
            expect(f"{w.name}: one digit of {column} altered",
                   csv_failures(set_field(csv_text, column, point)), True)
            expect(f"{w.name}: good manifest",
                   checks.check_manifest(manifest, csv_text.encode(), SEED, w.trials,
                                         len(w.grid())), False)
            expect(f"{w.name}: one digit of a manifest trial seed altered",
                   checks.check_manifest(manifest.replace("trial_seed.0.1 = ", "trial_seed.0.1 = 9"),
                                         csv_text.encode(), SEED, w.trials, len(w.grid())), True)
            expect(f"{w.name}: CSV altered after the manifest hashed it",
                   checks.check_manifest(manifest, set_field(csv_text, column, point).encode(),
                                         SEED, w.trials, len(w.grid())), True)
            if w is detect:
                zeroed = csv_text
                for field in ("empirical_alpha", "CI"):
                    zeroed = set_field(zeroed, field, 0, "0.000000")
                failures = [m for fs in workloads.check_csv(w, zeroed, results, w.trials).values()
                            for m in fs if "below theorem2_bound" in m]
                expect(f"{w.name}: empirical_alpha + CI below the bound", failures, True)
            if w is match:
                good = run.Launch(code=0, csv=csv_text.encode(), manifest=manifest)
                changed = run.Launch(code=0, csv=set_field(csv_text, column, 0).encode(),
                                     manifest=manifest)
                _, messages, _ = run.verify(w, SEED, w.trials, [good, good], Tracer())
                expect(f"{w.name}: two identical sweeps", messages, False)
                _, messages, _ = run.verify(w, SEED, w.trials, [good, changed], Tracer())
                expect(f"{w.name}: second sweep's CSV differs",
                       [m for m in messages if "differs" in m], True)

    print(f"selftest: {'all checks behave' if not bad else f'{len(bad)} check(s) misbehave'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
