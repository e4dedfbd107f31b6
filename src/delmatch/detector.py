"""Deletion detection from a batch of correctly-matched row pairs.

The counting function S(d1, d2) is the number of columnwise deletion
patterns mapping d1 to d2, i.e. order-preserving embeddings of d2's column
sequence into d1's.  Counts are exact unbounded integers and posteriors are
exact Fractions, so the "certainly deleted" / "certainly retained" tests are
integer comparisons, never float ones.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np

from .model import Distribution, SeedBatch, _column_ids, _exact_cast, _rng, _symbols
from .infotheory import typicality_mask

BRUTE_FORCE_PATTERN_GUARD = 10 ** 6

# Streams inside one detection-trial seed.
_TRIAL_STREAM_BATCH = 0
_TRIAL_STREAM_DELETION = 1


class InconsistentBatchError(ValueError):
    """The batch admits no deletion pattern at all (S = 0): it cannot be a
    correctly-matched pair."""


class GuardExceededError(ValueError):
    """A brute-force enumeration was refused because C(n, K) is too large."""


class Verdict(Enum):
    DELETED = "deleted"
    RETAINED = "retained"
    INCONCLUSIVE = "inconclusive"


def _integer_matrix(d):
    """d as a 2-d integer matrix; integral floats (an empty list reads as
    float64) become int64, and any other entry is refused."""
    d = np.atleast_2d(np.asarray(d))
    return d if d.dtype.kind in "biu" else _exact_cast(d, np.int64, "symbols")


def _as_batch_matrices(d1, d2):
    d1, d2 = _integer_matrix(d1), _integer_matrix(d2)
    if d1.shape[0] != d2.shape[0]:
        raise ValueError(f"row counts differ: {d1.shape[0]} vs {d2.shape[0]}")
    return d1, d2


def count_embeddings(d1, d2) -> int:
    """S(d1, d2): the exact number of ways d2's columns embed, in order, into
    d1's columns with entrywise column equality.

    Standard subsequence-occurrence DP over column ids, O(n*K) big-int adds,
    keeping only its last row.
    """
    ids1, ids2 = _column_ids(*_as_batch_matrices(d1, d2))
    for row in _prefix_rows(ids1.tolist(), ids2.tolist()):
        pass
    return row[-1]


def _prefix_rows(ids1, ids2):
    """The subsequence-count DP, one row per t = 0..len(ids2): entry i of
    row t is the number of embeddings of ids2[:t] into ids1[:i]."""
    row = [1] * (len(ids1) + 1)
    yield row
    for sym in ids2:
        prev, row = row, [0]
        for i, ci in enumerate(ids1):
            row.append(row[i] + (prev[i] if ci == sym else 0))
        yield row


def posterior_deletions(batch: SeedBatch) -> list:
    """Exact posterior deletion probability of every column given the batch.

    Entry j is S(d1 with column j removed, d2) / S(d1, d2) as a Fraction.
    One forward and one backward prefix DP cover all n removals.
    """
    n, k = batch.n, batch.retained_count
    ids1, ids2 = (ids.tolist() for ids in _column_ids(batch.d1, batch.d2))
    fore = list(_prefix_rows(ids1, ids2))
    back = list(_prefix_rows(ids1[::-1], ids2[::-1]))
    total = fore[k][n]
    if total == 0:
        raise InconsistentBatchError("no deletion pattern maps d1 to d2")
    out = []
    for j in range(n):
        # embeddings avoiding column j, split by how many of d2's columns
        # land strictly before it
        s_j = sum(fore[t][j] * back[k - t][n - 1 - j] for t in range(k + 1))
        out.append(Fraction(s_j, total))
    return out


def detect_f(batch: SeedBatch, dist: Distribution, epsilon: float) -> list:
    """Certainty classification of every column of d1.

    Deleted   iff the posterior is exactly 1 and the column is typical;
    Retained  iff the posterior is exactly 0 and the column is typical;
    Inconclusive otherwise.  certain_verdict_masks decides the two exact
    posterior values without computing any posterior.
    """
    deleted, retained = _certain_masks(*_column_ids(batch.d1, batch.d2))
    typical = typicality_mask(batch.d1, dist, epsilon, axis=0)
    return [Verdict.DELETED if dele and typ else
            Verdict.RETAINED if ret and typ else Verdict.INCONCLUSIVE
            for dele, ret, typ in zip(deleted.tolist(), retained.tolist(), typical.tolist())]


def detect_g(batch: SeedBatch, dist: Distribution, epsilon: float) -> list:
    """Column-presence detector: Deleted iff the column of d1 appears nowhere
    among d2's columns and is typical.  Never claims Retained.

    Whenever this says Deleted, detect_f says Deleted too.
    """
    ids1, ids2 = _column_ids(batch.d1, batch.d2)
    present = set(ids2.tolist())
    typical = typicality_mask(batch.d1, dist, epsilon, axis=0)
    return [Verdict.DELETED if typical[j] and int(ids1[j]) not in present
            else Verdict.INCONCLUSIVE
            for j in range(batch.n)]


def _brute_force_patterns(d1, d2):
    """Iterator over every K-subset of d1's columns equal to d2 columnwise,
    found by enumerating all C(n, K) of them.  Refuses when C(n, K) > 10^6."""
    d1, d2 = _as_batch_matrices(d1, d2)
    n, k = d1.shape[1], d2.shape[1]
    if k > n:
        return iter(())
    if comb(n, k) > BRUTE_FORCE_PATTERN_GUARD:
        raise GuardExceededError(f"C({n},{k}) exceeds {BRUTE_FORCE_PATTERN_GUARD}")
    ids1, ids2 = _column_ids(d1, d2)
    ids1 = ids1.tolist()
    target = tuple(ids2.tolist())
    return (combo for combo in combinations(range(n), k)
            if tuple(ids1[i] for i in combo) == target)


def brute_force_embeddings(d1, d2) -> int:
    """Oracle for count_embeddings: enumerate every K-subset of columns and
    count those equal to d2 columnwise.  Refuses when C(n, K) > 10^6."""
    return sum(1 for _ in _brute_force_patterns(d1, d2))


def brute_force_posterior(d1, d2) -> list:
    """Bayes-by-enumeration oracle: average the deletion indicator over all
    consistent patterns.  Every consistent pattern deletes exactly n-K
    columns, so the Bernoulli prior weight cancels and the average is
    uniform.  Same guard as brute_force_embeddings."""
    d1, d2 = _as_batch_matrices(d1, d2)
    total = 0
    kept_counts = [0] * d1.shape[1]
    for combo in _brute_force_patterns(d1, d2):
        total += 1
        for j in combo:
            kept_counts[j] += 1
    if total == 0:
        raise InconsistentBatchError("no deletion pattern maps d1 to d2")
    return [Fraction(total - c, total) for c in kept_counts]


# ---------------------------------------------------------------------------
# Fast boolean kernel for Monte Carlo work.  The certainty tests need only
# whether some embedding uses column j and whether some embedding avoids it;
# the leftmost and rightmost greedy embeddings answer both for every column
# at once, with no counting.  Equivalence with the exact posteriors is a
# tested guarantee.

def _greedy_scan(ids1: list, ids2, places, starts):
    """The leftmost embedding of ids2 into ids1, written over places.

    places holds a valid embedding, or -1 in every entry for none; ids2
    and places are lists or integer arrays.  From each start t, in
    increasing order, the scan re-places symbols at the first position
    after the previous one, and stops at the first symbol it puts back
    where places already had it: from there on the two agree until the
    next start.  A start inside an earlier re-placement is skipped, so each
    position is re-placed at most once; a -1 entry is never met again, so
    starts = [0] over -1s is the plain greedy scan.  Raises when ids2 does
    not embed.
    """
    index, done = ids1.index, -1
    try:
        for start in starts:
            if start <= done:
                continue
            pos = places[start - 1] if start else -1
            # done ends at the symbol that rejoined places, or at the last one
            for done in range(start, len(ids2)):
                pos = index(ids2[done], pos + 1)
                if pos == places[done]:
                    break
                places[done] = pos
    except ValueError:
        raise InconsistentBatchError("no deletion pattern maps d1 to d2") from None
    return places


def certain_verdict_masks(d1, d2):
    """(certainly_deleted, certainly_retained) boolean masks per column.

    certainly_deleted[j]  <=> no embedding of d2 uses column j      (P_j = 1)
    certainly_retained[j] <=> no embedding of d2 avoids column j    (P_j = 0)

    Requires at least one embedding to exist; raises otherwise.  Costs a
    labelling sort of the columns, two greedy scans over d1's columns
    (leftmost and rightmost), and O(n) array passes.
    """
    return _certain_masks(*_column_ids(*_as_batch_matrices(d1, d2)))


def _certain_masks(ids1, ids2, retained=None):
    """certain_verdict_masks on column ids: equal ids are equal columns.

    retained, when given, marks a known embedding: d2's columns are d1's
    retained columns, in order.  The greedy embeddings then differ from it
    only where a symbol also occurs in the gap of deleted columns on its
    left (leftmost) or right (rightmost), and only those are re-placed.
    """
    n, k = len(ids1), len(ids2)
    if k > n:
        raise InconsistentBatchError("d2 wider than d1")
    if n and int(ids1.max()) >= 2 ** 63 // (k + 1):
        raise ValueError("column ids too large for the int64 keys id * (K+1) + t")
    if retained is None:
        seq2, fore, back = ids2.tolist(), [-1] * k, [-1] * k
        starts_fore = starts_back = [0]
    else:
        retained = np.asarray(retained, dtype=bool)
        emb = np.flatnonzero(retained)
        if retained.shape != (n,) or not np.array_equal(ids1[emb], ids2):
            raise ValueError("the retained columns of d1 are not d2")
        # Few symbols move, so the scans read and write arrays in place.
        seq2, fore, back = ids2, emb, n - 1 - emb[::-1]
        # A deleted column after g retained ones lies between d2's columns
        # g - 1 and g.  The leftmost embedding leaves emb first at column g
        # when the ids match (the first occurrence after emb[g - 1] is then
        # in the gap), the rightmost at column g - 1.  Ids are >= 0, so -1
        # pads both ends.
        gap = np.cumsum(retained)[~retained]
        sym = ids1[~retained]
        padded = np.concatenate(([-1], ids2, [-1]))
        starts_fore = gap[sym == padded[gap + 1]].tolist()
        starts_back = (k - gap[sym == padded[gap]])[::-1].tolist()
    # d2's column t sits in column left[t] of the leftmost embedding and
    # right[t] of the rightmost one; no embedding puts it outside that range.
    # A scan with no start reads no id, so its list is built only with one.
    list1 = ids1.tolist() if starts_fore or starts_back else []
    left = np.asarray(_greedy_scan(list1, seq2, fore, starts_fore), dtype=np.int64)
    right = n - 1 - np.asarray(_greedy_scan(list1[::-1] if starts_back else [], seq2[::-1],
                                            back, starts_back), dtype=np.int64)[::-1]
    on_left = np.bincount(left, minlength=n)
    on_right = np.bincount(right, minlength=n)
    left_upto, right_upto = np.cumsum(on_left), np.cumsum(on_right)
    # Some embedding avoids j iff, for some split t, d2[:t] fits left of j
    # and d2[t:] right of it: left[t-1] < j < right[t], with left[-1] = -1
    # and right[K] = n.  Both arrays increase, so such t exist iff
    # #(right <= j) <= #(left < j).
    avoid = right_upto <= left_upto - on_left
    # Every column with d2[t]'s id in [left[t], right[t]] is used by some
    # embedding, so the columns of an embedding are used.  The other
    # columns' t form the range [#(right < j), #(left <= j)), and only t
    # with left[t] < right[t] can fall in one.  Look for ids1[j] among
    # those t on the keys id * (K+1) + t, sorted and ended by a sentinel:
    # j is unused iff the first key at or above the range's lowest key is
    # past its highest.
    known = on_left.astype(bool) if retained is None else retained
    lo, hi = right_upto - on_right, left_upto
    search = np.flatnonzero(~known & (lo < hi))
    spread = np.flatnonzero(left != right)
    keys = np.append(np.sort(ids2[spread] * (k + 1) + spread), np.iinfo(np.int64).max)
    base = ids1[search] * (k + 1)
    deleted = ~known
    deleted[search] = keys[np.searchsorted(keys, base + lo[search])] >= base + hi[search]
    return deleted, ~avoid


def trial_deletions(seed: int, n: int, delta: float) -> np.ndarray:
    """The deletion flags of detection trial `seed`: stream (seed, 1)."""
    return _rng(seed, _TRIAL_STREAM_DELETION).random(n) < delta


def detection_trial(dist: Distribution, n: int, B: int, delta: float,
                    epsilon: float, trial_seed: int):
    """One seeded-batch detection experiment: detection_trials with one seed."""
    return detection_trials(dist, n, B, delta, epsilon, [trial_seed])


def detection_trials(dist: Distribution, n: int, B: int, delta: float,
                     epsilon: float, seeds):
    """Seeded-batch detection experiments, one per trial seed, summed.

    Trial seed s samples a fresh B x n batch from stream (s, 0) and a
    deletion pattern from stream (s, 1), and the detector flags the typical
    columns that are certainly deleted.  Returns (columns flagged Deleted,
    number of truly deleted columns), summed over the seeds; a Deleted verdict
    on a retained column raises RuntimeError.
    """
    cols = len(seeds) * n
    d1 = np.empty((B, cols), dtype=np.uint8)
    deleted = np.empty(cols, dtype=bool)
    for t, seed in enumerate(seeds):
        d1[:, t * n:(t + 1) * n] = _symbols(dist, (B, n), seed, _TRIAL_STREAM_BATCH)
        deleted[t * n:(t + 1) * n] = trial_deletions(seed, n, delta)
    return int(_sound_deletions(d1, deleted, dist, epsilon, seeds).sum()), int(deleted.sum())


def _sound_deletions(d1, deleted, dist: Distribution, epsilon: float, seeds):
    """detect_f's Deleted mask over the seed batches d1 of trials whose
    true deletion flags are the bool mask deleted, side by side with equal
    widths, one per trial seed: one labelling and one certainty pass.
    Each trial's column ids are offset so that no column of one trial
    equals a column of another.  Every embedding of the stacked d2 then
    maps each trial's retained columns into that trial's own columns, so
    every mask entry equals its per-trial value.  A Deleted verdict on a
    retained column raises RuntimeError naming its trial seed.
    """
    cols = d1.shape[1]
    ids1, _ = _column_ids(d1, d1[:, :0])
    # Ids are ranks below cols, so with trial t's offset t * cols they stay
    # below cols^2, and the certainty keys id * (K+1) + t below about
    # cols^3: 2^45 for a sweep chunk's at most 2^15 columns.
    ids1 += np.repeat(np.arange(len(seeds), dtype=np.int64) * cols, cols // len(seeds))
    # A retained column is the same column in d2, so d2 needs no labelling,
    # and the retained columns are an embedding to start the scans from;
    # the masks do not depend on which embedding the scans start from.
    retained = ~deleted
    certain, _ = _certain_masks(ids1, ids1[retained], retained)
    flagged = certain & typicality_mask(d1, dist, epsilon, axis=0)
    # Deleted verdicts are certainty claims, hence always true deletions.
    false_verdicts = flagged & retained
    if false_verdicts.any():
        raise RuntimeError("detector reported a retained column as deleted (trial seed "
                           f"{seeds[int(false_verdicts.argmax()) * len(seeds) // cols]})")
    return flagged


def verdicts_to_csv(verdicts, posteriors) -> str:
    """One line per column: index, verdict, posterior numerator, denominator."""
    lines = ["index,verdict,posterior_num,posterior_den"]
    for j, (v, p) in enumerate(zip(verdicts, posteriors)):
        lines.append(f"{j},{v.value},{p.numerator},{p.denominator}")
    return "\n".join(lines) + "\n"
