import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from delmatch import detector, harness
from delmatch.detector import (Verdict, count_embeddings, brute_force_embeddings,
                               posterior_deletions, brute_force_posterior, detect_f,
                               detect_g, certain_verdict_masks, detection_trial,
                               detection_trials, verdicts_to_csv, _brute_force_patterns,
                               _certain_masks, _column_ids, _greedy_scan)
from delmatch.harness import (run_simulate_detect, wilson_interval,
                              _random_instance)
from delmatch.infotheory import detection_probability_bound, typicality_mask
from delmatch.model import (Distribution, SeedBatch, sample_database,
                            apply_deletion_channel, extract_seed_batch, derive_seed)

A, B_, C = 0, 1, 2  # symbol aliases for readable single-row fixtures


def _rows(*strings):
    """Build a B x n matrix from strings like 'aba' (a=0, b=1, c=2)."""
    return np.array([[ord(ch) - ord("a") for ch in s] for s in strings],
                    dtype=np.uint8)


# The brute-force equivalence loops on random instances (counts, posteriors,
# F(n, k, q), g within f, certainty masks) are the oracle-check suites in
# delmatch.harness, run by acceptance C03-C05/C07 and tests/test_harness.py.

# -- counting ----------------------------------------------------------------

def test_count_two_embeddings():
    assert count_embeddings(_rows("aba"), _rows("a")) == 2


def test_count_identical_columns():
    assert count_embeddings(_rows("aaa"), _rows("aa")) == 3


def test_count_empty_d2():
    assert count_embeddings(_rows("aba"), np.zeros((1, 0), np.uint8)) == 1


def test_count_row_mismatch_rejected():
    with pytest.raises(ValueError):
        count_embeddings(_rows("aba"), _rows("a", "b"))


def test_count_column_equality_is_whole_column():
    # columns equal in one row but not another must not match
    d1 = np.array([[0, 1], [0, 0]], dtype=np.uint8)
    d2 = np.array([[1], [0]], dtype=np.uint8)
    assert count_embeddings(d1, d2) == 1


def test_brute_force_guard():
    d1 = np.zeros((1, 40), dtype=np.uint8)
    d2 = np.zeros((1, 20), dtype=np.uint8)
    with pytest.raises(ValueError, match=r"C\(40,20\) exceeds 1000000"):
        brute_force_embeddings(d1, d2)


def test_brute_force_trivials():
    d1 = _rows("abab")
    assert brute_force_embeddings(d1, d1) >= 1
    assert brute_force_embeddings(d1, _rows("c")) == 0


# -- posteriors ---------------------------------------------------------------

def test_posterior_aba_example():
    batch = SeedBatch(_rows("aba"), _rows("a"))
    assert posterior_deletions(batch) == [Fraction(1, 2), Fraction(1), Fraction(1, 2)]


def test_posterior_nothing_deleted():
    batch = SeedBatch(_rows("abc"), _rows("abc"))
    assert posterior_deletions(batch) == [Fraction(0)] * 3


def test_posterior_everything_deleted():
    batch = SeedBatch(_rows("aba"), np.zeros((1, 0), np.uint8))
    assert posterior_deletions(batch) == [Fraction(1)] * 3


def test_posterior_requires_consistency():
    with pytest.raises(ValueError, match="no deletion pattern maps d1 to d2"):
        posterior_deletions(SeedBatch(_rows("aa"), _rows("b")))


def test_posterior_single_pattern_is_indicator():
    d1 = _rows("abc")
    d2 = _rows("ac")
    post = brute_force_posterior(d1, d2)
    assert post == [Fraction(0), Fraction(1), Fraction(0)]


# -- verdicts -----------------------------------------------------------------

def test_detect_f_aba_example():
    batch = SeedBatch(_rows("aba"), _rows("a"))
    verdicts = detect_f(batch, Distribution.bernoulli(0.5), 0.1)
    assert verdicts == [Verdict.INCONCLUSIVE, Verdict.DELETED, Verdict.INCONCLUSIVE]


def test_detect_f_atypical_column_inconclusive():
    # lone column is certainly deleted, but its content is atypical
    dist = Distribution((0.9, 0.1))
    batch = SeedBatch(np.ones((4, 1), np.uint8), np.zeros((4, 0), np.uint8))
    assert detect_f(batch, dist, 0.2) == [Verdict.INCONCLUSIVE]


def test_detect_f_all_retained():
    batch = SeedBatch(_rows("ab"), _rows("ab"))
    verdicts = detect_f(batch, Distribution.bernoulli(0.5), 0.1)
    assert verdicts == [Verdict.RETAINED, Verdict.RETAINED]


def test_detect_g_example():
    batch = SeedBatch(_rows("aba"), _rows("a"))
    verdicts = detect_g(batch, Distribution.bernoulli(0.5), 0.1)
    assert verdicts == [Verdict.INCONCLUSIVE, Verdict.DELETED, Verdict.INCONCLUSIVE]


def test_detect_g_no_deletion_no_verdict():
    batch = SeedBatch(_rows("abab"), _rows("abab"))
    assert Verdict.DELETED not in detect_g(batch, Distribution.bernoulli(0.5), 0.1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_bad_epsilon_refused_by_every_typicality_test(bad):
    # a NaN slack would make every column atypical, so every verdict
    # Inconclusive instead of an error
    batch = SeedBatch(_rows("aba"), _rows("a"))
    dist = Distribution.bernoulli(0.5)
    for check in (lambda: detect_f(batch, dist, bad), lambda: detect_g(batch, dist, bad),
                  lambda: typicality_mask(batch.d1, dist, bad, axis=0)):
        with pytest.raises(ValueError, match="epsilon must be finite and >= 0"):
            check()


def test_symbols_outside_the_alphabet_named():
    # neg_log2 of bern(0.5) has two entries: the first symbol >= 2 in d1, in
    # row order, is named instead of an IndexError
    dist = Distribution.bernoulli(0.5)
    for batch, bad in ((SeedBatch([[2, 0]], [[2]]), 2),
                       (SeedBatch([[0, 3], [2, 1]], [[3], [1]]), 3)):
        for detect in (detect_f, detect_g):
            with pytest.raises(ValueError, match=f"symbol {bad} is outside"):
                detect(batch, dist, 0.1)
    # a negative symbol in signed input is not read as an index from the end
    for mat, axis, bad in (([[-1, 0]], 1, -1), (np.array([[0, 1], [-2, 5]]), 0, -2)):
        with pytest.raises(ValueError, match=f"symbol {bad} is outside"):
            typicality_mask(mat, dist, 1.0, axis=axis)


def test_verdicts_deterministic():
    batch = SeedBatch(_rows("abba"), _rows("ab"))
    dist = Distribution.bernoulli(0.5)
    assert detect_f(batch, dist, 0.1) == detect_f(batch, dist, 0.1)


def test_more_rows_preserve_certainty():
    # growing the batch can only sharpen posterior certainty
    rng = np.random.default_rng(505)
    for _ in range(100):
        q = int(rng.choice([2, 3]))
        n = int(rng.integers(2, 10))
        rows = int(rng.integers(1, 4))
        d1 = rng.integers(0, q, size=(rows + 1, n)).astype(np.uint8)
        deleted = rng.random(n) < 0.4
        d2 = d1[:, ~deleted]
        small_del, small_ret = certain_verdict_masks(d1[:rows], d2[:rows])
        big_del, big_ret = certain_verdict_masks(d1, d2)
        assert not np.any(small_del & ~big_del)
        assert not np.any(small_ret & ~big_ret)


# -- fast kernel ---------------------------------------------------------------

def test_certain_masks_reject_inconsistent():
    with pytest.raises(ValueError, match="no deletion pattern maps d1 to d2"):
        certain_verdict_masks(_rows("aa"), _rows("b"))
    with pytest.raises(ValueError, match="d2 wider than d1"):
        certain_verdict_masks(_rows("a"), _rows("aa"))


@st.composite
def _batches(draw, max_n=12):
    """(d1, d2, d1 as uint8, d2 as uint8): a B x n batch over q symbols and a
    consistent, complete, empty or arbitrary d2.  The first pair holds the
    symbols as drawn, either uint8 or arbitrary int64 values; the second
    relabels them 0..q-1 for SeedBatch, keeping which columns are equal."""
    q = draw(st.sampled_from([1, 2, 3, 256]))
    n = draw(st.integers(0, max_n))
    rows = draw(st.integers(0, 3))
    labels = np.array(draw(st.lists(st.integers(0, q - 1), min_size=rows * n,
                                    max_size=rows * n)), dtype=np.uint8).reshape(rows, n)
    kind = draw(st.sampled_from(["consistent", "none deleted", "all deleted", "arbitrary"]))
    if kind == "consistent":
        keep = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool)
        labels2 = labels[:, keep]
    elif kind == "none deleted":
        labels2 = labels
    elif kind == "all deleted":
        labels2 = labels[:, :0]
    else:
        k = draw(st.integers(0, n))
        labels2 = np.array(draw(st.lists(st.integers(0, q - 1), min_size=rows * k,
                                         max_size=rows * k)), dtype=np.uint8).reshape(rows, k)
    if draw(st.booleans()):
        values = np.array(draw(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=q,
                                        max_size=q, unique=True)), dtype=np.int64)
        return values[labels], values[labels2], labels, labels2
    return labels, labels2, labels, labels2


@settings(max_examples=400, deadline=None)
@given(_batches())
def test_certain_masks_equal_exact_posteriors(batch):
    d1, d2, labels, labels2 = batch
    try:
        posts = posterior_deletions(SeedBatch(labels, labels2))
    except ValueError as exc:
        assert str(exc) == "no deletion pattern maps d1 to d2"
        with pytest.raises(ValueError, match="no deletion pattern maps d1 to d2"):
            certain_verdict_masks(d1, d2)
        with pytest.raises(ValueError, match="no deletion pattern maps d1 to d2"):
            brute_force_posterior(d1, d2)
        return
    assert posts == brute_force_posterior(d1, d2)
    cdel, cret = certain_verdict_masks(d1, d2)
    assert cdel.tolist() == [p == 1 for p in posts]
    assert cret.tolist() == [p == 0 for p in posts]


@settings(max_examples=200, deadline=None)
@given(_batches(max_n=10))
def test_certain_masks_from_every_embedding(batch):
    # the known embedding is any valid one: every consistent pattern gives
    # the masks that the two full scans give
    d1, d2, _, _ = batch
    ids1, ids2 = _column_ids(d1, d2)
    for combo in _brute_force_patterns(d1, d2):
        retained = np.zeros(len(ids1), dtype=bool)
        retained[list(combo)] = True
        got = _certain_masks(ids1, ids2, retained)
        want = _certain_masks(ids1, ids2)
        assert [m.tolist() for m in got] == [m.tolist() for m in want]


def test_known_embedding_must_be_d2():
    ids1, ids2 = np.array([0, 1, 0]), np.array([0, 1])
    for retained in ([True, False, True], [True, True]):
        with pytest.raises(ValueError, match="retained columns"):
            _certain_masks(ids1, ids2, np.array(retained))


@pytest.mark.parametrize("row, kept, left_moved, right_moved", [
    ("aaaaaa", "001110", [0, 1, 2], [0, 1, 2]),  # one chain spans all of d2
    ("aabcc", "01110", [0], [2]),                 # re-placed at t = 0 and t = K-1
    ("aabccd", "011011", [0, 2], []),             # two chains, the second after a rejoin
    ("abab", "0000", [], []),                     # K = 0
    ("abab", "1111", [], []),                     # K = n
    ("", "", [], []),
], ids=["all_equal", "ends", "adjacent", "K0", "Kn", "empty"])
def test_certain_masks_chain_edges(monkeypatch, row, kept, left_moved, right_moved):
    d1 = _rows(row)
    retained = np.array([c == "1" for c in kept], dtype=bool)
    d2 = d1[:, retained]
    posts = posterior_deletions(SeedBatch(d1, d2))
    want = [[p == 1 for p in posts], [p == 0 for p in posts]]
    assert [m.tolist() for m in certain_verdict_masks(d1, d2)] == want
    moved = []

    def recording(ids1, ids2, places, starts):
        before = list(places)
        after = _greedy_scan(ids1, ids2, places, starts)
        moved.append([t for t, (x, y) in enumerate(zip(before, after)) if x != y])
        return after

    monkeypatch.setattr(detector, "_greedy_scan", recording)
    ids1, ids2 = _column_ids(d1, d2)
    assert [m.tolist() for m in _certain_masks(ids1, ids2, retained)] == want
    k = len(ids2)
    # the second scan runs on the reversed columns
    assert moved == [left_moved, sorted(k - 1 - t for t in right_moved)]


class _CountingList(list):
    def index(self, *args):
        self.calls += 1
        return super().index(*args)


def test_greedy_scan_places_each_symbol_at_most_once():
    # from an embedding, with a start at every position, the scan calls
    # index at most once per symbol and still ends at the leftmost
    # embedding; with no embedding it is one call per symbol
    rng = np.random.default_rng(909)
    for _ in range(300):
        n = int(rng.integers(0, 30))
        ids1 = rng.integers(0, int(rng.integers(1, 4)), n).tolist()
        emb = np.flatnonzero(rng.random(n) < rng.uniform(0.1, 1.0)).tolist()
        ids2 = [ids1[j] for j in emb]
        plain = _CountingList(ids1)
        plain.calls = 0
        leftmost = _greedy_scan(plain, ids2, [-1] * len(emb), [0])
        assert plain.calls == len(emb)
        counted = _CountingList(ids1)
        counted.calls = 0
        assert _greedy_scan(counted, ids2, emb, range(len(emb))) == leftmost
        assert counted.calls <= len(emb)


@st.composite
def _label_inputs(draw):
    """(d1, d2) whose columns repeat from a small pool, so equal columns are
    common: uint8, or int64 with negative values and values above 255, up to
    70 rows, so narrow values need several 64-bit words per column, and up to
    2200 columns."""
    dtype, lo, hi = draw(st.sampled_from([(np.uint8, 0, 255),
                                          (np.int64, -2 ** 63, 2 ** 63 - 1)]))
    values = np.array(draw(st.lists(st.integers(lo, hi), min_size=1, max_size=4,
                                    unique=True)), dtype=dtype)
    rows, pool = draw(st.integers(0, 70)), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    columns = values[rng.integers(0, values.size, (rows, pool))]
    widths = st.integers(0, 8) | st.integers(500, 1100)  # some span column blocks
    n, k = draw(widths), draw(widths)
    stacked = columns[:, rng.integers(0, pool, n + k)]
    return stacked[:, :n], stacked[:, n:]


@settings(max_examples=300, deadline=None)
@given(_label_inputs())
def test_column_ids_are_lexicographic_ranks(batch):
    d1, d2 = batch
    ids1, ids2 = _column_ids(d1, d2)
    columns = [tuple(c) for c in np.concatenate([d1, d2], axis=1).T.tolist()]
    rank = {c: i for i, c in enumerate(sorted(set(columns)))}
    assert ids1.dtype == ids2.dtype == np.int64
    assert ids1.tolist() + ids2.tolist() == [rank[c] for c in columns]


@settings(max_examples=100, deadline=None)
@given(_label_inputs())
def test_column_ids_ignore_memory_order(batch):
    d1, d2 = batch
    want = _column_ids(d1, d2)
    for got in (_column_ids(np.ascontiguousarray(d1), np.ascontiguousarray(d2)),
                _column_ids(np.asfortranarray(d1), np.asfortranarray(d2))):
        assert [ids.tolist() for ids in got] == [ids.tolist() for ids in want]


def test_batch_entries_must_be_integers():
    assert count_embeddings([[1, 2]], [[]]) == 1  # an empty list reads as float
    assert count_embeddings([[0., 1.]], [[1.]]) == 1  # integral floats are integers
    # uint64 beside int64 stays exact (concatenated, the pair would be float64,
    # which cannot tell 2^62 from 2^62 + 1)
    big = 2 ** 62
    assert count_embeddings(np.array([[big, big + 1, big]], np.uint64), [[big + 1]]) == 1
    assert count_embeddings(np.array([[0, 1]], np.uint64), [[-1]]) == 0
    for bad in ([[0.5, 0.7]], [[np.nan, 0.7]], [[1e300, 0.7]]):
        with pytest.raises(ValueError, match="integers"):
            certain_verdict_masks(bad, [[0.7]])
    with pytest.raises(ValueError, match="span"):
        count_embeddings(np.array([[2 ** 64 - 1]], np.uint64), [[-1]])


@settings(max_examples=300, deadline=None)
@given(_batches(max_n=20))
def test_column_ids_group_like_unique(batch):
    d1, d2, _, _ = batch
    ids1, ids2 = _column_ids(d1, d2)
    columns = [tuple(c) for c in np.concatenate([d1, d2], axis=1).T.tolist()]
    ids = ids1.tolist() + ids2.tolist()
    if d1.shape[0]:
        _, inverse = np.unique(np.concatenate([d1, d2], axis=1).T, axis=0,
                               return_inverse=True)
        assert ids == inverse.reshape(-1).tolist()
    for a in range(len(columns)):
        for b in range(len(columns)):
            assert (ids[a] == ids[b]) == (columns[a] == columns[b])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([Distribution.bernoulli(0.5), Distribution((0.6, 0.3, 0.1)),
                        Distribution.uniform(3)]),
       st.integers(0, 48), st.integers(0, 6), st.floats(0.0, 1.0),
       st.sampled_from([0.0, 0.05, 0.3]), st.integers(0, 2 ** 32))
def test_deleted_verdict_is_true_deletion(dist, n, rows, delta, epsilon, seed):
    rng = np.random.default_rng(seed)
    d1 = rng.choice(dist.alphabet_size, size=(rows, n), p=dist.probabilities)
    deleted = rng.random(n) < delta
    batch = SeedBatch(d1, d1[:, ~deleted])
    verdicts = detect_f(batch, dist, epsilon)
    for j, v in enumerate(verdicts):
        if v is Verdict.DELETED:
            assert deleted[j]
        if v is Verdict.RETAINED:
            assert not deleted[j]
    cdel, cret = certain_verdict_masks(batch.d1, batch.d2)
    assert not np.any(cdel & ~deleted)
    assert not np.any(cret & deleted)


def test_detect_f_is_posterior_classification():
    rng = np.random.default_rng(707)
    probs = (0.6, 0.3, 0.1)
    h = -sum(p * math.log2(p) for p in probs)
    for _ in range(200):
        d1, d2, _ = _random_instance(rng, consistent=True)
        batch = SeedBatch(d1, d2)
        eps = float(rng.choice([0.0, 0.1, 0.4]))
        posts = posterior_deletions(batch)
        typical = [not col or abs(sum(-math.log2(probs[s]) for s in col) / len(col) - h)
                   <= eps + 1e-12 * max(1.0, h) for col in d1.T.tolist()]
        want = [Verdict.DELETED if t and p == 1 else
                Verdict.RETAINED if t and p == 0 else Verdict.INCONCLUSIVE
                for t, p in zip(typical, posts)]
        assert detect_f(batch, Distribution(probs), eps) == want


def test_detect_f_rejects_inconsistent():
    with pytest.raises(ValueError, match="no deletion pattern maps d1 to d2"):
        detect_f(SeedBatch(_rows("aa"), _rows("b")), Distribution.bernoulli(0.5), 0.1)


# -- Monte Carlo ----------------------------------------------------------------

def test_detection_trial_counts():
    dist = Distribution.bernoulli(0.5)
    hits, deleted = detection_trial(dist, 32, 10, 0.5, 0.05, 99)
    assert 0 <= hits <= deleted <= 32


_DETECT_DISTS = {
    "bern": (0.5, 0.5),
    "skewed4": (0.55, 0.25, 0.15, 0.05),
    "uniform256": (1 / 256,) * 256,
    "zero_symbol": (0.5, 0.0, 0.3, 0.2),
}


def _per_trial_detection(probs, n, b, delta, epsilon, seeds):
    """Each trial rebuilt from the seed rule (stream 0: the B x n batch by
    numpy's choice, stream 1: the deletion draws) and detected on its own by
    the public detect_f."""
    dist, hits, deleted_total = Distribution(probs), 0, 0
    for seed in seeds:
        d1 = np.random.default_rng(np.random.SeedSequence([seed, 0])).choice(
            len(probs), size=(b, n), p=probs).astype(np.uint8)
        deleted = np.random.default_rng(np.random.SeedSequence([seed, 1])).random(n) < delta
        verdicts = detect_f(SeedBatch(d1, d1[:, ~deleted]), dist, epsilon)
        flagged = np.array([v is Verdict.DELETED for v in verdicts])
        hits += int((flagged & deleted).sum())
        deleted_total += int(deleted.sum())
    return hits, deleted_total


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(sorted(_DETECT_DISTS)), st.integers(1, 80), st.integers(1, 20),
       st.sampled_from([0.0, 0.05, 0.5, 0.95]), st.sampled_from([0.0, 0.05, 0.5]),
       st.integers(1, 40), st.integers(0, 2 ** 64 - 1))
@example("bern", 6, 3, 0.0, 0.05, 25, 1)        # no trial deletes a column
@example("skewed4", 3, 4, 0.05, 0.05, 40, 2)    # a few trials delete, most do not
@example("zero_symbol", 1, 20, 0.5, 0.5, 40, 3)  # one column per trial
@example("uniform256", 80, 1, 0.95, 0.0, 2, 4)
def test_chunked_detection_equals_per_trial_detection(dist, n, b, delta, epsilon,
                                                      count, master):
    probs = _DETECT_DISTS[dist]
    seeds = [derive_seed(master, 0, t) for t in range(count)]
    assert (detection_trials(Distribution(probs), n, b, delta, epsilon, seeds)
            == _per_trial_detection(probs, n, b, delta, epsilon, seeds))


@pytest.mark.parametrize("n, trials", [(64, 512), (4, 2 ** 13)])
def test_chunked_detection_at_the_cell_bound(n, trials):
    # One chunk of 2^15 one-row columns, the most a sweep chunk holds.  At
    # n = 4 the offset ids reach about 2^13 * 2^15 and the certainty keys
    # about 2^42 (2^45 at n = 1).  The reference for the long chunk is the
    # sum over chunks of 128 trials, which the property above checks per trial.
    seeds = [derive_seed(8, 1, t) for t in range(trials)]
    got = detection_trials(Distribution.bernoulli(0.5), n, 1, 0.5, 0.05, seeds)
    if trials <= 512:
        want = _per_trial_detection((0.5, 0.5), n, 1, 0.5, 0.05, seeds)
    else:
        parts = [detection_trials(Distribution.bernoulli(0.5), n, 1, 0.5, 0.05,
                                  seeds[i:i + 128]) for i in range(0, trials, 128)]
        want = tuple(map(sum, zip(*parts)))
    assert got == want and got[1] > 0


def test_certainty_keys_refuse_int64_overflow():
    with pytest.raises(ValueError, match="int64"):
        _certain_masks(np.array([2 ** 62, 0]), np.array([0]))
    del_mask, ret_mask = _certain_masks(np.array([2 ** 62 - 1, 0]), np.array([0]))
    assert del_mask.tolist() == [True, False] and ret_mask.tolist() == [False, True]


def _detect_points(n, batch_sizes, delta, trials, epsilon, seed):
    """The simulate-detect sweep's points over bern(0.5) batches."""
    return run_simulate_detect(dist=Distribution.bernoulli(0.5), n=(n,), delta=delta,
                               trials=trials, seed=seed, B=batch_sizes, epsilon=epsilon)


def test_empirical_detection_probability_runs():
    (p,) = _detect_points(32, (12,), 0.5, 40, 0.05, 7)
    assert 0.0 <= p.ci_low <= p.empirical_alpha <= p.ci_high <= 1.0
    assert p.deleted > 0
    # generous sanity check against the analytic bound
    bound = detection_probability_bound(32, 12, 0.5, 1.0, 0.05)
    assert p.bound == bound and p.ci_high >= bound


def test_empirical_detection_heavy_deletion_edge():
    (p,) = _detect_points(8, (3,), 0.95, 30, 0.1, 11)
    assert p.empirical_alpha >= 0.9  # near-empty d2 makes deletions certain


def test_empirical_detection_requires_deletions():
    with pytest.raises(RuntimeError):
        _detect_points(8, (3,), 0.0, 5, 0.1, 11)


def test_all_retained_point_refused_before_any_trial(monkeypatch):
    # At seed 4, point (4096, 64) deletes columns but none of the 300 trials
    # of point (1, 64) does; the sweep is refused before either runs a trial.
    calls = []

    def counting(*args):
        calls.append(len(args[-1]))
        return detection_trials(*args)

    monkeypatch.setattr(harness, "detection_trials", counting)
    with pytest.raises(RuntimeError, match=r"no columns were deleted in any trial "
                                           r"at \(n=1, B=64\)"):
        run_simulate_detect(dist=Distribution.bernoulli(0.5), n=(4096, 1), delta=0.002,
                            trials=300, seed=4, B=(64,))
    assert calls == []


def test_detection_probability_improves_with_batch():
    low, high = _detect_points(16, (2, 16), 0.5, 60, 0.05, 3)
    assert high.empirical_alpha >= low.empirical_alpha


# -- plumbing -------------------------------------------------------------------

def test_wilson_interval_basics():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi < 0.1
    lo, hi = wilson_interval(100, 100)
    assert hi == pytest.approx(1.0) and lo > 0.9
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi


def test_verdict_csv_format():
    batch = SeedBatch(_rows("aba"), _rows("a"))
    verdicts = detect_f(batch, Distribution.bernoulli(0.5), 0.1)
    text = verdicts_to_csv(verdicts, posterior_deletions(batch))
    lines = text.strip().splitlines()
    assert lines[0] == "index,verdict,posterior_num,posterior_den"
    assert lines[1] == "0,inconclusive,1,2"
    assert lines[2] == "1,deleted,1,1"
    assert lines[3] == "2,inconclusive,1,2"


def test_seed_batch_from_experiment_detects():
    dist = Distribution.bernoulli(0.5)
    c1 = sample_database(dist, 50, 24, 1)
    exp = apply_deletion_channel(c1, 0.3, 0.0, 2)
    batch = extract_seed_batch(exp, 20, 3)
    verdicts = detect_f(batch, dist, 0.05)
    flagged = {j for j, v in enumerate(verdicts) if v is Verdict.DELETED}
    truly = set(np.flatnonzero(exp.deletion.flags).tolist())
    assert flagged <= truly  # Deleted verdicts are certainty claims
