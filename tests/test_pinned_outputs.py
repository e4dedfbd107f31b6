"""The stdout of a fixed command corpus, pinned by sha256.

C10 compares a command's output across worker counts and reruns; these pins
catch an output change that is the same at every worker count.  A change
made on purpose updates its hash here and says why in CHANGES.md.  `_symbols`
reproduces numpy's Generator draws, and numpy does not promise its streams
across versions, so a failure names the numpy version."""

import contextlib
import hashlib
import io

import numpy as np
import pytest

from delmatch import cli, harness, model

# Name -> (argv, sha256 of its stdout).  Sweeps run at --threads 1 (C10
# covers thread parity).
CORPUS = {
    # acceptance C10's four commands
    "c10-rates": ("rates --dist bern:0.5 --deltas 0:0.9:10 --alphas 0,0.5,1",
                  "42aa1559b545ed17b69c0d316c448e9a529957fdce25722765f04fa0ac767985"),
    "c10-simulate-match": (
        "simulate-match --dist bern:0.5 --n 16 --rate 0.2 --delta 0.2 --alpha 1 "
        "--trials 40 --seed 5 --threads 1",
        "2009daa53e9f66dd2ee0e3315bc0af5207acc96a9371cbc11aa08a809d2a3697"),
    "c10-simulate-detect": (
        "simulate-detect --dist bern:0.5 --n 16,32 --B 8 --delta 0.5 --trials 40 "
        "--seed 5 --threads 1",
        "7935bbf33d102d81fd20ba15be92720b6187ced801f77cad4b4573837c5e4701"),
    "c10-pipeline": (
        "pipeline --dist bern:0.5 --n 16 --rate 0.25 --delta 0.3 --B 4 --trials 30 "
        "--seed 5 --threads 1",
        "1afe7c8af1f82406c02b3ce10abf0a09193a02f36687d0570959e217fdd52c8d"),
    # the benchmark's three workloads at --seed 1
    "match-known": (
        "simulate-match --dist bern:0.5 --n 32 --delta 0.2 --m 2048 --alpha 1.0 "
        "--trials 8 --seed 1 --threads 1",
        "9c89fcee977cc173e37f6c7d2559b0c439ce483fffa4e8390dfaf7aa24dda7ce"),
    "pipeline-hidden": (
        "pipeline --dist 0.4,0.3,0.2,0.1 --n 32 --delta 0.3 --m 2048 --B 0,4 "
        "--trials 3 --seed 1 --threads 1",
        "b84cda91b0a2b3fc6a150e428303755dcd302ba7f6d507fbcb80ffecd0ef337c"),
    "detect-sweep": (
        "simulate-detect --dist bern:0.5 --n 64,256,1024 --delta 0.3 --B 8,16 "
        "--trials 100 --seed 1 --threads 1",
        "0ff916fd04aff924a16f2c1894adfe838b404c801d545ed761d8bd10be49fdda"),
    "pipeline-skewed": (
        "pipeline --dist 0.7,0.2,0.1 --n 24 --m 600 --delta 0.3 --B 0,2,4,8 "
        "--trials 10 --seed 9 --threads 1",
        "8c6f79c2c12b732168151b0fb0a60332cc8ada126391c8200351bd82b1aedbc5"),
    # one materialized and one closed-form point
    "match-mixed-modes": (
        "simulate-match --dist bern:0.5 --n 8,120 --rate 0.5 --delta 0.3 --alpha 0.5 "
        "--trials 7 --threads 1",
        "cf87432b5dbab6eccd0a7cff6c6cbeb72f4e101f60f8b3380f0131232e1874be"),
    "oracle-check": ("oracle-check --cases 200 --seed 3",
                     "e905326fdb81ff2b1043827e58a3d87cfe9ca4aee7d3bccd695e1d24a73db2d8"),
}
SWEEPS = {name for name, (argv, _) in CORPUS.items() if argv.split()[0] in cli.SWEEPS}


def _stdout_sha256(argv: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv.split())
    assert code == 0, argv
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


def _changed() -> dict:
    """Name -> a message naming the command and both hashes, for every
    command whose stdout no longer has its pinned hash."""
    changed = {}
    for name, (argv, pinned) in CORPUS.items():
        got = _stdout_sha256(argv)
        if got != pinned:
            changed[name] = (f"delmatch {argv}: stdout sha256 {got}, pinned {pinned} "
                             f"(numpy {np.__version__})")
    return changed


def test_corpus_stdout_has_its_pinned_hash():
    assert list(_changed().values()) == []


def _seven_decimals(x):
    return f"{x:.7f}"


def _swapped_seed_path(seed, *path):
    # trial_seed = SeedSequence([master_seed, trial_index, point_index]); a
    # one-element stream path is unchanged
    return model.derive_seed(seed, *path[::-1])


@pytest.mark.parametrize("target, mutant, caught", [
    ("_fmt", _seven_decimals, set(CORPUS) - {"oracle-check"}),
    # C10's simulate-match happens to count 2 mismatches in 360 rows either way
    ("derive_seed", _swapped_seed_path, SWEEPS - {"c10-simulate-match"}),
], ids=["fmt-seven-decimals", "seed-rule-path"])
def test_pins_catch_mutant(monkeypatch, target, mutant, caught):
    monkeypatch.setattr(harness, target, mutant)
    assert set(_changed()) == caught
