"""Correctness checks computed apart from the program under test.

Nothing here imports `delmatch`.  The seed rule, weak typicality (from
`math.log2` of the probabilities), exact-equality and two-pointer matching,
the Wilson interval and the detection bound are coded again from their
definitions.  Every check returns a list of failure messages and never uses
`assert`, so the checks hold under `python -O` too.
"""

import hashlib
import math

import numpy as np

U64 = (1 << 64) - 1


def seed_rule(master: int, *path: int) -> int:
    """The documented seed split: SeedSequence([master, *path]) -> uint64."""
    ss = np.random.SeedSequence([master & U64, *path])
    return int(ss.generate_state(1, np.uint64)[0])


def entropy(probs) -> float:
    return sum(-p * math.log2(p) for p in probs if p > 0.0)


def typical(mat: np.ndarray, probs, eps: float, axis: int) -> np.ndarray:
    """Weak typicality of each line of mat along axis (1: rows, 0: columns)."""
    width = mat.shape[axis]
    if width == 0:
        return np.ones(mat.shape[1 - axis], dtype=bool)
    table = np.array([-math.log2(p) if p > 0.0 else math.inf for p in probs])
    scores = table[mat].sum(axis=axis) / width
    return np.abs(scores - entropy(probs)) <= eps


def contains(x: list, y: list) -> bool:
    """Two-pointer scan: does y occur in x as an order-preserving subsequence?"""
    k = len(y)
    if k == 0:
        return True
    i = 0
    for sym in x:
        if sym == y[i]:
            i += 1
            if i == k:
                return True
    return False


def classify(candidates: list) -> tuple:
    if len(candidates) == 1:
        return ("matched", candidates[0])
    if candidates:
        return ("collision", None)
    return ("no_candidate", None)


def check_matching(c1: np.ndarray, keep: np.ndarray, observed: np.ndarray,
                   true_rows, probs, eps: float, outcomes: list, sample) -> tuple:
    """Check matcher outcomes, given as (status, row) pairs, one per observed row.

    When no undetected deletion remains (u = 0), an observed row is contained
    in a restricted source row iff the two are equal, so a dict keyed by the
    bytes of every typical restricted row decides every outcome.  Otherwise
    the rows listed in `sample` are decided by a two-pointer scan over all
    source rows.  For every row, NO_CANDIDATE is allowed only when the true
    source row is atypical, since that row always contains its observation.
    Returns (failures, typicality mask of the restricted source rows).
    """
    restricted = c1[:, keep]
    typ = typical(restricted, probs, eps, axis=1)
    failures = []
    if len(outcomes) != observed.shape[0]:
        return [f"{len(outcomes)} outcomes for {observed.shape[0]} observed rows"], typ
    if restricted.shape[1] == observed.shape[1]:
        index = {}
        for i in np.flatnonzero(typ):
            index.setdefault(restricted[i].tobytes(), []).append(int(i))
        decided = range(observed.shape[0])
        expected = [classify(index.get(y.tobytes(), [])) for y in observed]
    else:
        typical_rows = [(int(i), restricted[i].tolist()) for i in np.flatnonzero(typ)]
        decided = sample
        expected = {}
        for j in sample:
            y = observed[j].tolist()
            expected[j] = classify([i for i, x in typical_rows if contains(x, y)])
    for j in decided:
        if tuple(outcomes[j]) != expected[j]:
            failures.append(f"observed row {j}: program says {outcomes[j]}, "
                            f"independent matcher says {expected[j]}")
    for j, (status, _) in enumerate(outcomes):
        if status == "no_candidate" and typ[true_rows[j]]:
            failures.append(f"observed row {j}: NO_CANDIDATE although its true "
                            f"source row {true_rows[j]} is typical")
    return failures, typ


def check_deleted_verdicts(deleted_cols, deletion_flags) -> list:
    """A Deleted verdict is a certainty claim: it must name a true deletion."""
    return [f"column {j} reported Deleted but it was retained"
            for j in deleted_cols if not deletion_flags[j]]


def check_masks(certainly_deleted, certainly_retained, deleted,
                posteriors=None) -> list:
    """Certainty masks against the truth and, when given, exact posteriors."""
    failures = []
    for j in np.flatnonzero(np.asarray(certainly_deleted) & ~deleted):
        failures.append(f"column {j} certainly deleted but truly retained")
    for j in np.flatnonzero(np.asarray(certainly_retained) & deleted):
        failures.append(f"column {j} certainly retained but truly deleted")
    if posteriors is not None:
        if not np.array_equal(certainly_deleted, [p == 1 for p in posteriors]):
            failures.append("certainly-deleted mask differs from posterior == 1")
        if not np.array_equal(certainly_retained, [p == 0 for p in posteriors]):
            failures.append("certainly-retained mask differs from posterior == 0")
    return failures


def wilson_half_width(successes: int, total: int, z: float = 1.96) -> float:
    """Half-width of the 95% Wilson score interval, clipped to [0, 1]."""
    if total == 0:
        return 0.5
    phat = successes / total
    denom = 1.0 + z * z / total
    center = (phat + z * z / (2 * total)) / denom
    half = z * math.sqrt(phat * (1 - phat) / total + z * z / (4 * total * total)) / denom
    return (min(1.0, center + half) - max(0.0, center - half)) / 2


def detection_bound(n: int, b: int, delta: float, h: float, eps: float) -> float:
    """The analytic lower bound 1 - eps - n 2^(-B(H-eps)) (1-delta)."""
    return 1.0 - eps - n * 2.0 ** (-b * (h - eps)) * (1.0 - delta)


def fmt(x: float) -> str:
    return f"{x:.6f}"


def parse_csv(text: str) -> list:
    """CSV text -> one dict per data row, keyed by the header's column names."""
    lines = text.splitlines()
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def check_fields(where: str, row: dict, expected: dict) -> list:
    return [f"{where}: {key} is {row.get(key)!r}, expected {want!r}"
            for key, want in expected.items() if row.get(key) != want]


def check_manifest(manifest: str, csv_bytes: bytes, master: int,
                   trials: int, points: int) -> list:
    """The sidecar manifest must hash the CSV it sits beside and list every
    trial seed as the seed rule derives it."""
    kv = dict(line.split(" = ", 1) for line in manifest.splitlines() if " = " in line)
    failures = []
    if kv.get("csv_sha256") != hashlib.sha256(csv_bytes).hexdigest():
        failures.append("manifest csv_sha256 does not hash the CSV")
    if kv.get("master_seed") != str(master):
        failures.append(f"manifest master_seed is {kv.get('master_seed')!r}")
    for p in range(points):
        for t in range(trials):
            got = kv.get(f"trial_seed.{p}.{t}")
            if got != str(seed_rule(master, p, t)):
                failures.append(f"manifest trial_seed.{p}.{t} is {got!r}, "
                                f"the seed rule gives {seed_rule(master, p, t)}")
    return failures
