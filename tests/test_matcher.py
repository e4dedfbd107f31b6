import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from delmatch import matcher
from delmatch.infotheory import entropy, typicality_mask
from delmatch.matcher import (MatcherConfig, MatchStatus, MatchOutcome, is_subsequence,
                              match_all, default_epsilon, match_counts, count_mismatches)
from delmatch.model import (Distribution, Database, sample_database, apply_deletion_channel,
                            derive_seed)


def _db(rows, q=2):
    return Database(np.array(rows, dtype=np.uint8), q)


BERN = Distribution.bernoulli(0.5)

# A row's status is min(counts, 2) of match_counts.
NO_CANDIDATE, MATCHED, COLLISION = 0, 1, 2
_STATUS = {MatchStatus.NO_CANDIDATE: NO_CANDIDATE, MatchStatus.MATCHED: MATCHED,
           MatchStatus.COLLISION: COLLISION}


def _one(y, c1, detected, cfg, dist):
    """(status, row) of match_counts for the one observed row y."""
    counts, rows = match_counts(c1, np.asarray(y).reshape(1, -1), detected, cfg, dist)
    return min(int(counts[0]), 2), int(rows[0])


def _pair(outcome):
    """(status, row) of a MatchOutcome, in _one's form."""
    return _STATUS[outcome.status], outcome.row if outcome.is_match else -1


def _experiment_counts(exp, cfg, dist):
    """match_counts over every c2 row of exp, with its detected deletions."""
    return match_counts(exp.c1, exp.c2.symbols, exp.detection.detected_indices, cfg, dist)


# -- subsequence containment -------------------------------------------------

def test_is_subsequence_basic():
    assert is_subsequence([0, 1], [0, 0, 1])
    assert not is_subsequence([0, 1], [1, 0])
    assert is_subsequence([], [1, 0])
    assert is_subsequence([], [])
    assert not is_subsequence([0], [])


# -- one observed row -----------------------------------------------------------

def test_match_row_full_length_equality():
    c1 = _db([[0, 1], [1, 0]])
    assert _one([0, 1], c1, [], MatcherConfig(epsilon=0.0), BERN) == (MATCHED, 0)


def test_match_row_collision():
    c1 = _db([[0, 0, 1], [0, 1, 1]])
    assert _one([0, 1], c1, [], MatcherConfig(epsilon=0.5), BERN) == (COLLISION, -1)


def test_match_row_with_detected_column():
    c1 = _db([[0, 0, 1]])
    assert _one([0, 1], c1, [1], MatcherConfig(epsilon=0.5), BERN) == (MATCHED, 0)


def test_match_row_no_candidate_from_typicality():
    # the only containing row is atypical under a skewed distribution
    dist = Distribution((0.9, 0.1))
    c1 = _db([[1, 1, 1, 1]])
    assert _one([1, 1], c1, [], MatcherConfig(epsilon=0.2), dist) == (NO_CANDIDATE, -1)


def test_match_row_length_guard():
    c1 = _db([[0, 1]])
    with pytest.raises(ValueError):
        _one([0, 1, 1], c1, [], MatcherConfig(epsilon=0.5), BERN)
    with pytest.raises(ValueError):
        _one([0, 1], c1, [0], MatcherConfig(epsilon=0.5), BERN)


def test_match_row_order_invariance():
    rng = np.random.default_rng(5)
    rows = rng.integers(0, 2, size=(6, 10)).astype(np.uint8)
    c1 = Database(rows, 2)
    y = rows[3, [0, 2, 4, 5, 6, 8]]
    status, row = _one(y, c1, [], MatcherConfig(epsilon=0.3), BERN)
    perm = rng.permutation(6)
    shuffled = Database(rows[perm], 2)
    status2, row2 = _one(y, shuffled, [], MatcherConfig(epsilon=0.3), BERN)
    assert status == status2
    if status == MATCHED:
        assert perm[row2] == row


# -- whole experiments -----------------------------------------------------------

def test_match_all_no_deletion_distinct_rows():
    rows = np.array([[0, 0], [0, 1], [1, 0], [1, 1]], dtype=np.uint8)
    c1 = Database(rows, 2)
    exp = apply_deletion_channel(c1, 0.0, 0.0, 42)
    counts, matched = _experiment_counts(exp, MatcherConfig(epsilon=1.0), BERN)
    assert (counts == 1).all()
    assert count_mismatches(matched, exp.labeling.perm, np.arange(4)) == 0
    for j, i in enumerate(matched.tolist()):
        assert exp.labeling.perm[i] == j


def test_match_all_duplicate_rows_collide():
    rows = np.array([[0, 1], [0, 1], [1, 0]], dtype=np.uint8)
    c1 = Database(rows, 2)
    exp = apply_deletion_channel(c1, 0.0, 0.0, 43)
    counts, matched = _experiment_counts(exp, MatcherConfig(epsilon=1.0), BERN)
    dup_targets = {int(exp.labeling.perm[0]), int(exp.labeling.perm[1])}
    for j, (count, row) in enumerate(zip(counts.tolist(), matched.tolist())):
        if j in dup_targets:
            assert min(count, 2) == COLLISION and row == -1
        else:
            assert count == MATCHED and row >= 0


def test_match_all_monte_carlo_low_rate():
    # m = 4 at n = 24 sits far below the guaranteed-rate boundary
    correct = total = 0
    eps = default_epsilon(BERN)
    for trial in range(200):
        c1 = sample_database(BERN, 4, 24, derive_seed(9000, trial, 0))
        exp = apply_deletion_channel(c1, 0.2, 1.0, derive_seed(9000, trial, 1))
        _, matched = _experiment_counts(exp, MatcherConfig(epsilon=eps), BERN)
        right = sum(row >= 0 and int(exp.labeling.perm[row]) == j
                    for j, row in enumerate(matched.tolist()))
        assert count_mismatches(matched, exp.labeling.perm, np.arange(4)) == 4 - right
        correct += right
        total += 4
    assert correct / total >= 0.95


def test_true_row_always_containment_candidate():
    # NO_CANDIDATE can only come from typicality rejecting the true row
    dist = Distribution((0.75, 0.25))
    eps = 0.05  # tight slack so typicality rejections actually occur
    saw_no_candidate = False
    for trial in range(100):
        c1 = sample_database(dist, 6, 16, derive_seed(7000, trial, 0))
        exp = apply_deletion_channel(c1, 0.3, 0.5, derive_seed(7000, trial, 1))
        keep = np.ones(c1.n, dtype=bool)
        keep[exp.detection.detected_indices] = False
        counts, _ = _experiment_counts(exp, MatcherConfig(epsilon=eps), dist)
        inv = np.argsort(exp.labeling.perm)
        nl2 = dist.costs
        for j, count in enumerate(counts.tolist()):
            true_row = c1.symbols[inv[j]][keep]
            assert is_subsequence(exp.c2.symbols[j], true_row)
            if count == NO_CANDIDATE:
                saw_no_candidate = True
                score = float(nl2[true_row].mean())
                assert abs(score - entropy(dist)) > eps
    assert saw_no_candidate


def test_enlarging_detected_set_never_creates_collision():
    # uniform alphabet: typicality is vacuous, candidate sets only shrink
    for q, dist in ((2, BERN), (3, Distribution.uniform(3))):
        for trial in range(60):
            c1 = sample_database(dist, 8, 14, derive_seed(8000, trial, q))
            exp = apply_deletion_channel(c1, 0.4, 0.5, derive_seed(8001, trial, q))
            detected = list(exp.detection.detected_indices)
            extra = [int(j) for j in np.flatnonzero(exp.deletion.flags)
                     if j not in detected]
            cfg = MatcherConfig(epsilon=0.2)
            _, matched = _experiment_counts(exp, cfg, dist)
            bigger, _ = match_counts(exp.c1, exp.c2.symbols, detected + extra,
                                     cfg, dist)
            inv = np.argsort(exp.labeling.perm)
            for j, row in enumerate(matched.tolist()):
                if row == int(inv[j]):
                    assert min(int(bigger[j]), 2) != COLLISION


# -- exact-equality path (no undetected deletion) ------------------------------

SKEWED = Distribution((0.75, 0.25))


def _brute_force_candidates(c1, ys, detected, cfg, dist):
    """Per observed row y, the c1 rows whose restriction is typical (by
    math.log2) and contains y (by is_subsequence), row by row."""
    keep = [j for j in range(c1.n) if j not in set(detected)]
    h = sum(-p * math.log2(p) for p in dist.probabilities if p > 0)
    typical_rows = []
    for i, row in enumerate(c1.symbols.tolist()):
        x = [row[j] for j in keep]
        score = sum(-math.log2(dist.probabilities[s]) for s in x) / len(x) if x else h
        # scores equal to H up to rounding are typical, also at epsilon = 0
        if abs(score - h) <= cfg.epsilon + 1e-12 * max(1.0, h):
            typical_rows.append((i, x))
    return [[i for i, x in typical_rows if is_subsequence(list(y), x)] for y in ys]


def _brute_force(c1, y, detected, cfg, dist):
    """The matcher's outcome for one observed row, from _brute_force_candidates."""
    candidates, = _brute_force_candidates(c1, [y], detected, cfg, dist)
    if len(candidates) == 1:
        return MatchOutcome(MatchStatus.MATCHED, candidates[0])
    if candidates:
        return MatchOutcome(MatchStatus.COLLISION)
    return MatchOutcome(MatchStatus.NO_CANDIDATE)


@st.composite
def _u0_instances(draw):
    dist = draw(st.sampled_from([BERN, SKEWED, Distribution.uniform(3)]))
    q = dist.alphabet_size
    n = draw(st.integers(0, 7))
    m = draw(st.integers(1, 8))
    symbol = st.integers(0, q - 1)
    rows = [draw(st.lists(symbol, min_size=n, max_size=n)) for _ in range(m)]
    for _ in range(draw(st.integers(0, m))):  # plant duplicate source rows
        rows[draw(st.integers(0, m - 1))] = list(rows[draw(st.integers(0, m - 1))])
    c1 = _db(np.array(rows, dtype=np.uint8).reshape(m, n), q)
    detected = sorted(draw(st.sets(st.integers(0, n - 1))) if n else set())
    keep = [j for j in range(n) if j not in detected]
    observed = [[row[j] for j in keep] for row in rows]  # every true row
    observed += draw(st.lists(st.lists(symbol, min_size=len(keep),
                                       max_size=len(keep)), max_size=3))
    cfg = MatcherConfig(epsilon=draw(st.sampled_from([0.05, 0.3, 1.0])))
    c2_rows = np.array(observed, dtype=np.uint8).reshape(len(observed), len(keep))
    return c1, c2_rows, detected, cfg, dist


@settings(max_examples=300, deadline=None)
@given(_u0_instances())
def test_hash_join_equals_brute_force_at_u0(instance):
    c1, c2_rows, detected, cfg, dist = instance
    outcomes, matched = match_all(c1, c2_rows, detected, cfg, dist)
    assert len(outcomes) == c2_rows.shape[0]
    for j, y in enumerate(c2_rows):
        expected = _brute_force(c1, y.tolist(), detected, cfg, dist)
        assert outcomes[j] == expected
        assert _one(y, c1, detected, cfg, dist) == _pair(expected)
        assert matched.get(j) == (expected.row if expected.is_match else None)


def test_hash_join_duplicates_collide():
    c1 = _db([[0, 1, 1], [1, 0, 0], [0, 1, 0], [1, 0, 0]])
    outcomes, matched = match_all(c1, [[0, 1], [1, 0], [1, 1]], [2],
                                  MatcherConfig(epsilon=1.0), BERN)
    assert [o.status for o in outcomes] == [MatchStatus.COLLISION] * 2 + [
        MatchStatus.NO_CANDIDATE]
    assert matched == {}


def test_hash_join_skips_atypical_rows():
    # under (0.75, 0.25) with epsilon 0.3, [0, 0, 0, 1] and [0, 1, 0, 0] are
    # typical while the all-ones row is not
    cfg = MatcherConfig(epsilon=0.3)
    c1 = _db([[1, 1, 1, 1], [0, 0, 0, 1], [1, 1, 1, 1], [0, 1, 0, 0], [0, 1, 0, 0]])
    outcomes, matched = match_all(c1, [[0, 0, 0, 1], [1, 1, 1, 1], [0, 1, 0, 0]],
                                  [], cfg, SKEWED)
    assert outcomes == [MatchOutcome(MatchStatus.MATCHED, 1),
                        MatchOutcome(MatchStatus.NO_CANDIDATE),
                        MatchOutcome(MatchStatus.COLLISION)]
    assert matched == {0: 1}


def test_hash_join_width_zero():
    # every column detected: K = 0, each observation is the empty row
    cfg = MatcherConfig(epsilon=0.0)
    one = _db([[1, 0, 1]])
    assert match_all(one, np.zeros((2, 0)), [0, 1, 2], cfg, BERN)[0] == [
        MatchOutcome(MatchStatus.MATCHED, 0)] * 2
    assert _one([], one, [0, 1, 2], cfg, BERN) == (MATCHED, 0)
    two = _db([[1, 0, 1], [0, 0, 1]])
    assert _one([], two, [0, 1, 2], cfg, BERN) == (COLLISION, -1)


def test_containment_decides_at_u1():
    # one undetected deletion: both rows contain [0, 1, 0], but only the
    # typical one under (0.75, 0.25) is accepted, so the result is a match
    # that plain equality would have missed
    cfg = MatcherConfig(epsilon=0.3)
    c1 = _db([[0, 0, 1, 0], [1, 0, 1, 0]])
    outcome = _one([0, 1, 0], c1, [], cfg, SKEWED)
    assert outcome == (MATCHED, 0)
    assert outcome == _pair(_brute_force(c1, [0, 1, 0], [], cfg, SKEWED))
    loose = MatcherConfig(epsilon=1.0)
    assert _one([0, 1, 0], c1, [], loose, SKEWED) == (COLLISION, -1)


# -- bit-parallel containment (undetected deletions remain) --------------------

@st.composite
def _hidden_instances(draw, max_width=8, max_u=None):
    """Observed rows that are source rows with u >= 1 undetected deletions,
    plus random rows; contents come from a drawn numpy seed.  Rows have at
    most max_width columns, and max_u, when given, draws K near the retained
    width: u <= max_u."""
    dist = draw(st.sampled_from([BERN, SKEWED, Distribution.uniform(3),
                                 Distribution.uniform(256)]))
    q = dist.alphabet_size
    n = draw(st.integers(1, max_width))
    m = draw(st.sampled_from([0, 1, 2, 5, 63, 64, 65]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.choice(q, size=(m, n), p=dist.probabilities).astype(np.uint8)
    for _ in range(draw(st.integers(0, 3)) if m else 0):  # plant duplicate rows
        rows[rng.integers(m)] = rows[rng.integers(m)]
    detected = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n - 1)))
    keep = [j for j in range(n) if j not in detected]
    # u = len(keep) - k >= 1
    k = draw(st.integers(max(0, len(keep) - (max_u or len(keep))), len(keep) - 1))
    observed = [row[np.sort(rng.choice(keep, size=k, replace=False))]
                for row in rows]
    observed += list(rng.integers(0, q, size=(draw(st.integers(0, 3)), k)))
    cfg = MatcherConfig(epsilon=draw(st.sampled_from([0.0, 0.05, 0.3, 1.0])))
    c2_rows = np.array(observed, dtype=np.uint8).reshape(len(observed), k)
    return Database(rows, q), c2_rows, detected, cfg, dist


@settings(max_examples=150, deadline=None)
@given(_hidden_instances())
def test_containment_kernel_equals_brute_force(instance):
    c1, c2_rows, detected, cfg, dist = instance
    outcomes, matched = match_all(c1, c2_rows, detected, cfg, dist)
    assert len(outcomes) == c2_rows.shape[0]
    for j, y in enumerate(c2_rows):
        expected = _brute_force(c1, y.tolist(), detected, cfg, dist)
        assert outcomes[j] == expected
        assert matched.get(j) == (expected.row if expected.is_match else None)


@pytest.mark.parametrize("m", [0, 1, 63, 65, 4096 + 65])
@pytest.mark.parametrize("q", [4, 256])
def test_symbol_sets_equal_column_masks(m, q):
    # every bit of eq[c, s], the padding bits of the last word included,
    # against rows[:, c] == s; the extra symbol q marks no row
    rng = np.random.default_rng(m + q)
    rows = rng.integers(0, q, size=(m, 11)).astype(np.uint8)
    eq = matcher._symbol_sets(rows, q + 1)
    assert eq.shape == (11, q + 1, -(-m // 64)) and eq.dtype == np.uint64
    bits = np.unpackbits(eq.view(np.uint8), axis=2, bitorder="little")
    assert not bits[:, :, m:].any()
    want = rows.T[:, None, :] == np.arange(q + 1)[None, :, None]
    assert np.array_equal(bits[:, :, :m], want)


def _set_tiles(patch, m, u, source_words, obs_block):
    """Patch the kernel's tile sizes: source tiles of source_words words and
    a state budget that holds obs_block observed rows of m source rows at u
    undetected deletions."""
    words = max(1, min(source_words, -(-m // 64)))
    patch.setattr(matcher, "_SOURCE_WORDS", source_words)
    patch.setattr(matcher, "_STATE_BYTES", 16 * (u + 1) * words * obs_block)


@pytest.mark.parametrize("m, width, k, count, source_words, obs_block", [
    pytest.param(0, 6, 3, 7, 64, 64, id="0-64-64"),
    pytest.param(65, 6, 3, 7, 64, 64, id="65-64-64"),
    # source tiles of 64 rows, blocks of 3
    pytest.param(130, 6, 3, 7, 1, 3, id="130-1-3"),
    # the default source-tile boundary
    pytest.param(4096 + 65, 6, 3, 7, 64, 64, id="4161-64-64"),
    pytest.param(130, 6, 5, 7, 1, 3, id="u-1"),
    pytest.param(130, 6, 1, 7, 1, 3, id="u-width-minus-1"),
    pytest.param(130, 6, 0, 7, 1, 3, id="k-0"),  # every row contains y
    pytest.param(70, 7, 4, 64 + 9, 64, 64, id="ragged-last-block"),
    pytest.param(130, 7, 2, 64 + 9, 1, 64, id="ragged-block-across-tiles"),
])
def test_containing_sets_equal_is_subsequence(monkeypatch, m, width, k, count,
                                              source_words, obs_block):
    # every bit of every tile against the greedy scan, at the band's edges
    # (u = 1, u = width - 1, K = 0) and across blocks and tiles
    _set_tiles(monkeypatch, m, width - k, source_words, obs_block)
    rng = np.random.default_rng(m + 10 * k)
    rows = rng.integers(0, 3, size=(m, width)).astype(np.uint8)
    ys = rng.integers(0, 3, size=(count, k)).astype(np.uint8)
    for j in range(0, count, 2) if m else ():  # plant contained rows
        ys[j] = rows[rng.integers(m), np.sort(rng.choice(width, size=k, replace=False))]
    seen = np.zeros((count, m), dtype=int)
    for lo, start, sets in matcher._containing_sets(rows, ys):
        bits = np.unpackbits(sets.view(np.uint8), axis=1, bitorder="little")
        tile = min(64 * source_words, m - start)
        assert not bits[:, tile:].any()
        for b in range(sets.shape[0]):
            for i in range(tile):
                seen[lo + b, start + i] += 1
                assert bits[b, i] == is_subsequence(ys[lo + b].tolist(),
                                                    rows[start + i].tolist())
    assert (seen == 1).all()


def _kernel_peak(rows, ys):
    tracemalloc.start()
    try:
        matcher._containment_counts(rows, ys)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _kernel_budget(m, width, u, count, symbols):
    """The lag buffer (state and step arrays of every observed row by u + 1
    lags by the tile's words, at most the state budget), one tile's symbol
    table, the wanted array and the two output arrays."""
    words = min(64, m // 64)
    return (min(matcher._STATE_BYTES, 2 * count * (u + 1) * words * 8)
            + width * symbols * words * 8
            + (width + u + 1) * count * 2 + 2 * count * 8)


def _pipeline_shaped(rng):
    """q = 4 skewed, 2048 x 32 source rows, and 2048 observed rows with
    u = 11: the source rows shuffled, 21 columns kept."""
    m, width, u = 2048, 32, 11
    rows = rng.choice(4, size=(m, width), p=(0.4, 0.3, 0.2, 0.1)).astype(np.uint8)
    keep = np.sort(rng.choice(width, size=width - u, replace=False))
    return rows, rows[rng.permutation(m)][:, keep]


def test_containing_sets_blocks_fill_the_state_budget():
    # a block holds as many observed rows as its state and step arrays fit
    # in the budget, 170 at u = 11 and 32 words: 13 blocks, not 64-row ones
    rows, ys = _pipeline_shaped(np.random.default_rng(11))
    block = matcher._STATE_BYTES // (16 * (11 + 1) * 32)
    sizes = [sets.shape[0] for _, _, sets in matcher._containing_sets(rows, ys)]
    assert len(sizes) <= math.ceil(2048 / block), len(sizes)
    assert sum(sizes) == 2048 and max(sizes) <= block


def test_containment_peak_allocation_within_kernel_budget():
    # tracemalloc sees numpy's buffers.  A pipeline-shaped input; 64 KiB of
    # slack covers small temporaries.  A lag buffer past the state budget or
    # an extra uint16 copy of the observed rows exceeds it.
    rng = np.random.default_rng(11)
    m, width, u = 2048, 32, 11
    rows, ys = _pipeline_shaped(rng)
    peak, budget = _kernel_peak(rows, ys), _kernel_budget(m, width, u, m, 4 + 1)
    assert peak <= budget + 64 * 1024, (peak, budget)
    # Two 4096-row tiles at q = 256 (a 4 MiB symbol table each), 256
    # observed rows with u = 2.  The budget holds one table, so a table kept
    # alive while the next tile's is built exceeds it.  The slack adds
    # three (64, width) int64 arrays, the temporaries of an earlier table
    # fill; with the 64 KiB it covers packing 8 columns of a tile at a time
    # (a copy, its boolean mask and the packed bytes, about 68 KiB).
    m, width, u, count = 8192, 32, 2, 256
    rows = rng.integers(0, 256, size=(m, width)).astype(np.uint8)
    keep = np.sort(rng.choice(width, size=width - u, replace=False))
    ys = rows[rng.permutation(m)[:count]][:, keep]
    peak, budget = _kernel_peak(rows, ys), _kernel_budget(m, width, u, count, 256 + 1)
    assert peak <= budget + 64 * 1024 + 3 * 64 * width * 8, (peak, budget)


# -- the array-valued core ---------------------------------------------------------

def _assert_counts_equal_brute_force(c1, c2_rows, detected, cfg, dist):
    counts, rows = match_counts(c1, c2_rows, detected, cfg, dist)
    assert counts.shape == rows.shape == (np.asarray(c2_rows).shape[0],)
    ys = np.asarray(c2_rows, dtype=np.uint8).tolist()
    for j, candidates in enumerate(_brute_force_candidates(c1, ys, detected, cfg, dist)):
        assert counts[j] == len(candidates)
        assert rows[j] == (candidates[0] if len(candidates) == 1 else -1)


@settings(max_examples=300, deadline=None)
@given(st.one_of(_u0_instances(), _hidden_instances()))
def test_match_counts_equal_brute_force(instance):
    # u = 0 (labelling join) and u > 0 (containment kernel), with planted
    # duplicate rows and width 0
    _assert_counts_equal_brute_force(*instance)


@settings(max_examples=100, deadline=None)
@given(_hidden_instances(max_width=24, max_u=3), st.sampled_from([1, 3]),
       st.sampled_from([1, 64]))
def test_match_counts_equal_brute_force_in_small_tiles(instance, obs_block, source_words):
    # blocks of 1 or 3 observed rows (a ragged last one at 3) reuse the
    # buffer across blocks in every draw with more than three observed rows,
    # and 64-row source tiles make m = 65 cross tiles; 64 words is the default.
    # Wide rows with K near the width hold long observed prefixes, so state
    # that leaks from one block into the next shows.  The kernel sees the
    # typical rows only, so they set the words of the state budget.
    c1, c2_rows, detected, cfg, dist = instance
    restricted = np.delete(c1.symbols, detected, axis=1)
    typical = int(typicality_mask(restricted, dist, cfg.epsilon, axis=1).sum())
    with pytest.MonkeyPatch.context() as patch:
        _set_tiles(patch, typical, restricted.shape[1] - c2_rows.shape[1], source_words,
                   obs_block)
        _assert_counts_equal_brute_force(*instance)


@pytest.mark.parametrize("rows, observed, detected, cfg", [
    # no typical row: under (0.75, 0.25) at slack 0.05, none of width 3 is
    ([[0, 0, 0], [0, 1, 1], [0, 0, 0]], [[0, 0, 0], [0, 1, 1]], [],
     MatcherConfig(epsilon=0.05)),
    ([[0, 0, 1, 1], [0, 1, 1, 0]], [[0, 1], [1, 1]], [],
     MatcherConfig(epsilon=0.05)),
    # width 0: every typical row equals the empty observation
    ([[1, 0, 1], [0, 0, 1]], [[], []], [0, 1, 2], MatcherConfig(epsilon=1.0)),
    ([[1, 0, 1]], [[]], [0, 1, 2], MatcherConfig(epsilon=0.0)),
    # planted duplicates, one of them atypical, next to a unique row
    ([[0, 0, 0, 1], [0, 0, 0, 1], [1, 1, 1, 1], [1, 1, 1, 1], [0, 1, 0, 0]],
     [[0, 0, 0, 1], [1, 1, 1, 1], [0, 1, 0, 0], [1, 0, 0, 0]], [],
     MatcherConfig(epsilon=0.3)),
    # u = 0: a match and an atypical row; u = 1: a match and a collision
    ([[0, 1, 1], [1, 1, 0]], [[0, 1], [1, 1]], [2], MatcherConfig(epsilon=1.0)),
    ([[0, 1, 1], [1, 1, 0]], [[0, 1], [1, 1]], [], MatcherConfig(epsilon=1.0)),
])
def test_match_counts_edge_cases(rows, observed, detected, cfg):
    c1 = _db(rows)
    c2_rows = np.array(observed, dtype=np.uint8).reshape(len(observed), -1)
    _assert_counts_equal_brute_force(c1, c2_rows, detected, cfg, SKEWED)


def test_empty_observation_list():
    c1 = _db([[0, 1], [1, 0], [0, 1]])
    cfg = MatcherConfig(epsilon=1.0)
    assert match_all(c1, [], [], cfg, BERN) == ([], {})
    assert match_all(c1, np.zeros((0, 1), dtype=np.uint8), [], cfg, BERN) == ([], {})


def test_uniform_rows_typical_at_zero_slack():
    # the mean of -log2(1/3) and H(uniform:3) differ in the last ulp
    dist = Distribution.uniform(3)
    c1 = _db([[0, 1, 2, 2], [2, 1, 0, 0]], q=3)
    cfg = MatcherConfig(epsilon=0.0)
    assert match_all(c1, [[0, 1, 2, 2]], [], cfg, dist)[1] == {0: 0}  # u = 0
    assert match_all(c1, [[1, 0, 0]], [], cfg, dist)[1] == {0: 1}     # u = 1


def test_count_mismatches_on_a_subset():
    # observed rows are c2 rows 1, 3, 4; perm sends c1 row i to c2 row perm[i];
    # -1 marks an observed row with no match
    perm = np.array([3, 4, 0, 1, 2])
    assert count_mismatches([3, 0, 1], perm, [1, 3, 4]) == 0
    assert count_mismatches([3, -1, 0], perm, [1, 3, 4]) == 2
    assert count_mismatches([-1, -1, -1], perm, [1, 3, 4]) == 3


def test_mismatch_rate_trivials():
    # count_mismatches over every row of an identity labelling
    perm = observed = np.arange(4)
    all_right = [0, 1, 2, 3]
    assert count_mismatches(all_right, perm, observed) == 0
    assert count_mismatches([-1] * 4, perm, observed) == 4   # no candidate anywhere
    assert count_mismatches(all_right[:3] + [-1], perm, observed) == 1  # one collision
    assert count_mismatches(all_right[:3] + [0], perm, observed) == 1   # a wrong target


def test_mismatch_rate_guards():
    # count_mismatches refuses rows and observed of different lengths, a
    # row outside [-1, len(perm)) and a row index a cast would change (0.9
    # is not row 0, the true source here); no observed row is no mismatch
    perm = np.arange(2)
    for bad in ([0.9], [math.nan]):
        with pytest.raises(ValueError, match="matched rows must be integers"):
            count_mismatches(bad, perm, [0])
        with pytest.raises(ValueError, match="observed rows must be integers"):
            count_mismatches([0], perm, bad)
    for rows, observed in (([], [0]), ([-1], [0, 1]), ([0, 1], [0])):
        with pytest.raises(ValueError, match="observed rows"):
            count_mismatches(rows, perm, observed)
    for rows in ([2, 0], [0, -2]):
        with pytest.raises(ValueError, match=r"\[-1, 2\)"):
            count_mismatches(rows, perm, [0, 1])
    assert count_mismatches([], perm, []) == 0


def test_matcher_refuses_inputs_a_cast_would_change():
    # a float index is not truncated, a boolean mask is not read as the
    # indices 1 and 0, and an observed symbol is neither wrapped (300 -> 44)
    # nor truncated (0.9 -> 0)
    c1 = _db([[0, 1, 1], [1, 0, 0]])
    cfg = MatcherConfig(epsilon=1.0)
    for detected in ([1.7], [math.nan]):
        with pytest.raises(ValueError, match="detected column indices must be integers"):
            match_counts(c1, [[0, 1]], detected, cfg, BERN)
    for detected in ([True, False, False], np.array([False, True, False])):
        with pytest.raises(ValueError, match="not a boolean mask"):
            match_counts(c1, [[0, 1]], detected, cfg, BERN)
    for rows in (np.array([[300, 1]]), [[0.9, 1]], [[-1, 1]], [[math.nan, 1]]):
        with pytest.raises(ValueError, match="observed symbols"):
            match_counts(c1, rows, [2], cfg, BERN)
        with pytest.raises(ValueError, match="observed symbols"):
            match_counts(c1, rows[0], [], cfg, BERN)  # one observed row
    # exact values of other dtypes are still taken as they are
    expected = match_counts(c1, np.array([[0, 1]], dtype=np.uint8), [2], cfg, BERN)
    for rows, detected in (([[0, 1]], [2]), ([[0.0, 1.0]], [2.0]),
                           (np.array([[0, 1]], dtype=np.int64), np.array([2]))):
        got = match_counts(c1, rows, detected, cfg, BERN)
        assert all(np.array_equal(g, e) for g, e in zip(got, expected))


def test_source_symbol_outside_the_alphabet_named():
    # symbol 2 under bern(0.5) has no probability to index: a ValueError
    # naming it, whether the kernel (u = 1) or the sort join (u = 0) follows
    c1 = _db([[0, 1, 2], [0, 0, 1]], q=3)
    for observed in ([[0, 1]], [[0, 1, 1]]):
        with pytest.raises(ValueError, match="symbol 2 is outside"):
            match_counts(c1, observed, [], MatcherConfig(epsilon=1.0), BERN)


def test_matcher_config_validation():
    for bad in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError):
            MatcherConfig(epsilon=bad)


def test_default_epsilon_scales_entropy():
    assert default_epsilon(BERN) == pytest.approx(0.1)
    assert default_epsilon(Distribution.uniform(4)) == pytest.approx(0.2)
