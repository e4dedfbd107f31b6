import dataclasses
import hashlib
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from delmatch.model import (MAX_ALPHABET, Distribution, Database, DeletionPattern,
                            DetectionPattern, Labeling, SeedBatch,
                            sample_database, apply_deletion_channel, extract_seed_batch,
                            _symbols, check_range)


def test_degenerate_alphabet_rejected():
    with pytest.raises(ValueError):
        Distribution((1.0,))


def test_invalid_distribution_rejected():
    with pytest.raises(ValueError):
        Distribution((0.5, 0.4))
    with pytest.raises(ValueError):
        Distribution((1.2, -0.2))
    with pytest.raises(ValueError, match=f"alphabet limited to {MAX_ALPHABET} symbols"):
        Distribution((1.0 / (MAX_ALPHABET + 1),) * (MAX_ALPHABET + 1))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_distribution_rejected(bad):
    with pytest.raises(ValueError, match="finite"):
        Distribution((bad, 0.5))
    with pytest.raises(ValueError, match="finite"):
        Distribution.bernoulli(bad)


def test_check_range():
    nan, inf = float("nan"), float("inf")
    check_range("delta", 0.0, hi=1.0)
    check_range("alpha", 1.0, hi=1.0, closed=True)
    check_range("epsilon", 1e300)
    for bad in (nan, inf, -1e-300, 1.0):
        with pytest.raises(ValueError, match=r"delta must be in \[0, 1\), got"):
            check_range("delta", bad, hi=1.0)
    for bad in (nan, inf, -0.5, 1.5):
        with pytest.raises(ValueError, match=r"alpha must be in \[0, 1\], got"):
            check_range("alpha", bad, hi=1.0, closed=True)
    for bad in (nan, inf, -inf, -1.0):
        with pytest.raises(ValueError, match="epsilon must be finite and >= 0, got"):
            check_range("epsilon", bad)


def test_check_range_prints_integer_bounds_exactly():
    with pytest.raises(ValueError) as info:
        check_range("seed", -1, hi=2 ** 64)
    assert str(info.value) == "seed must be in [0, 18446744073709551616), got -1"
    with pytest.raises(ValueError) as info:
        check_range("alphabet size", 300, lo=2, hi=MAX_ALPHABET, closed=True)
    assert str(info.value) == "alphabet size must be in [2, 256], got 300"


@st.composite
def _pmfs(draw):
    """Distributions over q = 2..256 symbols from integer weights, with zero
    weights at both ends or one dominant symbol in some of them."""
    q = draw(st.integers(2, MAX_ALPHABET))
    weights = draw(st.lists(st.integers(0, 1000), min_size=q, max_size=q))
    kind = draw(st.sampled_from(["any", "zero ends", "dominant"]))
    if kind == "zero ends" and q > 2:
        weights[0] = weights[-1] = 0
    if kind == "dominant" or not any(weights):
        weights[draw(st.integers(0, q - 1))] = 10 ** 9
    total = sum(weights)
    return Distribution(tuple(w / total for w in weights))


_SHAPES = st.one_of(
    st.tuples(st.just(1), st.integers(0, 64)),       # one row
    st.tuples(st.integers(2, 16), st.integers(1, 64)),  # a seed batch
    st.tuples(st.integers(17, 600), st.integers(1, 64)),  # a database
)


@settings(max_examples=200, deadline=None)
@given(_pmfs(), _SHAPES, st.integers(0, 2 ** 64 - 1),
       st.lists(st.integers(0, 2 ** 32 - 1), max_size=2))
@example(Distribution.uniform(256), (600, 64), 0, [])  # comparisons at q = 256
@example(Distribution.uniform(256), (1, 64), 0, [1])   # 255 passes over one row
@example(Distribution((0.0, 0.5, 0.0, 0.5, 0.0)), (2048, 32), 7, [0])
def test_symbols_equal_numpy_choice(dist, shape, seed, path):
    # The symbol draw recomputes Generator.choice; any drift from numpy's own
    # choice (in the draw or in numpy) changes every sampled database.
    expected = np.random.default_rng(np.random.SeedSequence([seed, *path])).choice(
        dist.alphabet_size, size=shape, p=dist.probabilities).astype(np.uint8)
    got = _symbols(dist, shape, seed, *path)
    assert got.dtype == np.uint8 and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=200, deadline=None)
@given(_pmfs())
@example(Distribution((0.0, 0.5, 0.0, 0.5, 0.0)))
@example(Distribution.uniform(256))
def test_distribution_constants_equal_their_formulas(dist):
    p = dist.probabilities
    assert dist.entropy == float(sum(-x * math.log2(x) for x in p if x > 0.0))
    with np.errstate(divide="ignore"):
        assert np.array_equal(dist.costs, -np.log2(np.asarray(p)))  # +inf at p = 0
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    assert dist.edges.tobytes() == cdf[:-1].tobytes()
    assert dist.is_uniform == all(x == p[0] for x in p)
    for arr in (dist.costs, dist.edges):
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0


@pytest.mark.parametrize("dist", [Distribution.bernoulli(0.2), Distribution.uniform(7),
                                  Distribution((0.0, 0.25, 0.75))])
def test_distribution_compares_hashes_prints_and_pickles_by_probabilities(dist):
    # the constants are derived, so they stay out of eq, hash, repr and pickles
    p = dist.probabilities
    assert dist == Distribution(p) and dist != Distribution.uniform(2)
    assert hash(dist) == hash((p,))
    assert repr(dist) == f"Distribution(probabilities={p!r})"
    assert dist.__reduce_ex__(pickle.HIGHEST_PROTOCOL)[2] == {"probabilities": p}
    copy = pickle.loads(pickle.dumps(dist))
    assert copy == dist and copy.entropy == dist.entropy
    assert copy.is_uniform == dist.is_uniform
    for name in ("costs", "edges"):
        assert np.array_equal(getattr(copy, name), getattr(dist, name))
        assert not getattr(copy, name).flags.writeable


def test_distribution_pickles_are_bytes_of_the_probabilities_alone():
    # the sha256 of these pickles, at every protocol, from before the
    # constants were stored
    dists = (Distribution.bernoulli(0.3), Distribution.uniform(256),
             Distribution((0.0, 0.25, 0.75)))
    data = b"".join(pickle.dumps(d, protocol=p) for d in dists for p in range(6))
    assert hashlib.sha256(data).hexdigest() == \
        "47aace2219f2972ec3f37108ca5b3fe467ea7e26bb7826b81a36b8e0fb8e2d38"


def test_distribution_helpers():
    d = Distribution.bernoulli(0.2)
    assert d.probabilities == (0.8, 0.2)
    assert d.alphabet_size == 2
    assert Distribution.uniform(4).is_uniform
    assert not d.is_uniform


def test_sampling_deterministic():
    d = Distribution.bernoulli(0.5)
    a = sample_database(d, 2, 4, 1234)
    b = sample_database(d, 2, 4, 1234)
    assert np.array_equal(a.symbols, b.symbols)
    c = sample_database(d, 2, 4, 1235)
    assert not np.array_equal(a.symbols, c.symbols)


def test_sampling_matches_distribution():
    # law of large numbers at 10^6 entries: 0.01 is 25 sigma
    d = Distribution.bernoulli(0.2)
    db = sample_database(d, 10_000, 100, 99)
    assert abs(db.symbols.mean() - 0.2) < 0.01


def test_sampling_validates_shape():
    d = Distribution.bernoulli(0.5)
    with pytest.raises(ValueError):
        sample_database(d, 0, 4, 1)


def test_database_validates_symbols():
    with pytest.raises(ValueError):
        Database(np.array([[0, 3]], dtype=np.uint8), 2)


def test_no_deletion_identity():
    d = Distribution.bernoulli(0.5)
    c1 = sample_database(d, 6, 12, 5)
    exp = apply_deletion_channel(c1, 0.0, 0.7, 11)
    assert exp.retained_count == 12
    assert exp.detection.detected_count == 0
    assert np.array_equal(exp.c2.symbols[exp.labeling.perm], c1.symbols)


def test_full_side_information():
    d = Distribution.bernoulli(0.5)
    c1 = sample_database(d, 4, 200, 5)
    exp = apply_deletion_channel(c1, 0.5, 1.0, 11)
    assert np.array_equal(exp.detection.flags, exp.deletion.flags)


def test_retained_count_concentrates():
    d = Distribution.bernoulli(0.5)
    c1 = sample_database(d, 1, 10_000, 5)
    exp = apply_deletion_channel(c1, 0.5, 0.0, 13)
    assert abs(exp.retained_count - 5000) <= 3 * np.sqrt(10_000 * 0.25)


def test_channel_rates_converge():
    d = Distribution.bernoulli(0.5)
    c1 = sample_database(d, 1, 20_000, 5)
    exp = apply_deletion_channel(c1, 0.3, 0.6, 17)
    deleted = exp.deletion.flags.astype(bool)
    assert abs(deleted.mean() - 0.3) < 0.02
    assert abs(exp.detection.flags[deleted].mean() - 0.6) < 0.02


def test_detection_only_at_deletions():
    d = Distribution.uniform(3)
    c1 = sample_database(d, 3, 500, 5)
    for seed in range(5):
        exp = apply_deletion_channel(c1, 0.4, 0.5, seed)
        assert not np.any(exp.detection.flags > exp.deletion.flags)


def test_rows_match_through_channel():
    d = Distribution.uniform(4)
    c1 = sample_database(d, 8, 30, 21)
    exp = apply_deletion_channel(c1, 0.25, 0.5, 22)
    keep = exp.deletion.flags == 0
    for i in range(c1.m):
        expected = c1.symbols[i, keep]
        assert np.array_equal(exp.c2.symbols[exp.labeling.perm[i]], expected)


def test_experiment_bit_identical_given_seed():
    d = Distribution.bernoulli(0.3)
    for seed in (0, 1, 2 ** 63):
        c1a = sample_database(d, 5, 16, seed)
        c1b = sample_database(d, 5, 16, seed)
        ea = apply_deletion_channel(c1a, 0.4, 0.5, seed + 1)
        eb = apply_deletion_channel(c1b, 0.4, 0.5, seed + 1)
        assert np.array_equal(ea.c2.symbols, eb.c2.symbols)
        assert np.array_equal(ea.deletion.flags, eb.deletion.flags)
        assert np.array_equal(ea.detection.flags, eb.detection.flags)
        assert np.array_equal(ea.labeling.perm, eb.labeling.perm)


def test_parameter_ranges():
    d = Distribution.bernoulli(0.5)
    c1 = sample_database(d, 2, 4, 0)
    with pytest.raises(ValueError):
        apply_deletion_channel(c1, 1.0, 0.5, 0)
    with pytest.raises(ValueError):
        apply_deletion_channel(c1, 0.5, 1.5, 0)


def _channel_faults(c1, exp) -> list:
    """What exp gets wrong as the output of apply_deletion_channel(c1, ...);
    the channel's records do not check it themselves."""
    perm, deleted, detected = exp.labeling.perm, exp.deletion.flags, exp.detection.flags
    faults = [f"{name} flags are not 0/1 uint8 of length n"
              for name, flags in (("deleted", deleted), ("detected", detected))
              if flags.dtype != np.uint8 or flags.shape != (c1.n,) or flags.max(initial=0) > 1]
    if not np.array_equal(np.sort(perm), np.arange(c1.m)):
        faults.append("perm is not a permutation")
    if faults:  # the checks below index with perm and the flags
        return faults
    if np.any(detected > deleted):
        faults.append("a detection outside a deletion")
    if not exp.retained_count == exp.c2.n == c1.n - int(deleted.sum()):
        faults.append("retained count")
    elif exp.c1 is not c1 or exp.c2.q != c1.q or not np.array_equal(
            exp.c2.symbols[perm], c1.symbols[:, deleted == 0]):
        faults.append("c2 is not the column-deleted shuffle of c1")
    faults += [f"{name} is writable" for name, arr in
               (("perm", perm), ("deleted", deleted), ("detected", detected))
               if arr.flags.writeable]
    return faults


@settings(max_examples=200, deadline=None)
@given(_pmfs(), st.integers(1, 40), st.integers(1, 40),
       st.sampled_from([0.0, 1.0 - 2 ** -20]) | st.floats(0.0, 1.0, exclude_max=True),
       st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
       st.integers(0, 2 ** 64 - 1))
@example(Distribution.uniform(256), 1, 1, 0.0, 0.0, 0)
@example(Distribution.uniform(256), 1, 40, 1.0 - 2 ** -20, 1.0, 0)
def test_channel_output_is_consistent(dist, m, n, delta, alpha, seed):
    c1 = sample_database(dist, m, n, seed)
    exp = apply_deletion_channel(c1, delta, alpha, seed ^ 1)
    assert _channel_faults(c1, exp) == []


def _tampered_faults(tamper) -> list:
    """What _channel_faults finds in a valid experiment with tamper(exp)'s fields swapped in."""
    c1 = sample_database(Distribution.bernoulli(0.5), 3, 6, 1)
    exp = apply_deletion_channel(c1, 0.3, 1.0, 2)
    assert exp.c2.n and exp.detection.detected_count  # each tamper changes something
    assert _channel_faults(c1, exp) == []
    return _channel_faults(c1, dataclasses.replace(exp, **tamper(exp)))


def test_experiment_check_rejects_inconsistency():
    def flip_first_symbol(e):
        symbols = np.array(e.c2.symbols)
        symbols[0, 0] ^= 1
        return {"c2": Database(symbols, 2)}
    assert "c2 is not the column-deleted shuffle of c1" in _tampered_faults(flip_first_symbol)
    # detections at exactly the retained columns
    assert "a detection outside a deletion" in _tampered_faults(
        lambda e: {"detection": DetectionPattern(e.deletion.flags ^ np.uint8(1))})


def test_labeling_must_be_bijective():
    assert "perm is not a permutation" in _tampered_faults(
        lambda e: {"labeling": Labeling(np.array([0, 0, 2]))})


@pytest.mark.parametrize("tamper, fault", [
    (lambda e: {"deletion": DeletionPattern(e.deletion.flags.astype(bool))},
     "deleted flags are not 0/1 uint8 of length n"),
    (lambda e: {"deletion": DeletionPattern(e.deletion.flags[1:])},
     "deleted flags are not 0/1 uint8 of length n"),
    (lambda e: {"detection": DetectionPattern(e.detection.flags * np.uint8(2))},
     "detected flags are not 0/1 uint8 of length n"),
    (lambda e: {"labeling": Labeling(e.labeling.perm.copy())}, "perm is writable"),
], ids=["bool-flags", "short-flags", "flag-2", "writable-perm"])
def test_channel_check_catches_a_tampered_experiment(tamper, fault):
    assert fault in _tampered_faults(tamper)


def test_full_batch_is_aligned_reordering():
    d = Distribution.bernoulli(0.5)
    c1 = sample_database(d, 10, 8, 3)
    exp = apply_deletion_channel(c1, 0.25, 0.0, 4)
    batch = extract_seed_batch(exp, 10, 5)
    assert sorted(map(tuple, batch.d1)) == sorted(map(tuple, c1.symbols))
    keep = exp.deletion.flags == 0
    assert np.array_equal(batch.d2, batch.d1[:, keep])


def test_batch_identity_channel():
    d = Distribution.bernoulli(0.5)
    c1 = sample_database(d, 4, 6, 3)
    exp = apply_deletion_channel(c1, 0.0, 0.0, 4)
    batch = extract_seed_batch(exp, 1, 5)
    assert np.array_equal(batch.d1, batch.d2)


def test_batch_rows_verify_against_flags():
    d = Distribution.uniform(3)
    c1 = sample_database(d, 100, 20, 31)
    exp = apply_deletion_channel(c1, 0.35, 0.0, 32)
    batch = extract_seed_batch(exp, 5, 33)
    keep = exp.deletion.flags == 0
    for t in range(5):
        assert np.array_equal(batch.d2[t], batch.d1[t, keep])


def test_batch_size_guard():
    d = Distribution.bernoulli(0.5)
    c1 = sample_database(d, 4, 6, 3)
    exp = apply_deletion_channel(c1, 0.0, 0.0, 4)
    with pytest.raises(ValueError):
        extract_seed_batch(exp, 5, 0)


def test_types_are_immutable():
    d = Distribution.bernoulli(0.5)
    db = sample_database(d, 2, 3, 0)
    with pytest.raises(ValueError):
        db.symbols[0, 0] = 1


@pytest.mark.parametrize("make, values", [
    (lambda a: Database(a, 2), [[-1, 0]]),          # wraps to 255, a symbol >= q
    (lambda a: Database(a, 2), [[1.5, 0]]),         # truncates to 1
    (lambda a: SeedBatch(a, [[300]]), [[300, 1]]),  # wraps to 44
    (lambda a: SeedBatch(a, [[1]]), [[0.5, 1]]),    # truncates to 0
], ids=["Database-negative", "Database-fraction", "SeedBatch-300", "SeedBatch-fraction"])
def test_records_refuse_a_cast_that_changes_a_symbol(make, values):
    with pytest.raises(ValueError, match="integers in the uint8 range"):
        make(np.array(values))


@pytest.mark.parametrize("make, message", [
    (lambda: Database([0, 1], 2), "database must be a 2-d matrix"),
    (lambda: Database([[[0, 1]]], 2), "database must be a 2-d matrix"),
    (lambda: Database([[0, 1]], 1), "alphabet size out of range"),
    (lambda: Database([[0, 1]], MAX_ALPHABET + 1), "alphabet size out of range"),
    (lambda: SeedBatch([[0, 1]], [[0], [1]]), "d1/d2 row counts differ"),
    (lambda: SeedBatch([[0]], [[0, 1]]), "d2 cannot be wider than d1"),
], ids=["Database-1d", "Database-3d", "Database-q1", "Database-q257", "SeedBatch-rows",
        "SeedBatch-width"])
def test_records_refuse_a_shape_or_alphabet_they_cannot_hold(make, message):
    with pytest.raises(ValueError, match=message):
        make()


@pytest.mark.parametrize("make, field, values, dtype", [
    (lambda a: Database(a, 2), "symbols", [[0, 1], [1, 0]], np.uint8),
    (lambda a: SeedBatch(a, a), "d1", [[0, 1], [1, 0]], np.uint8),
    (lambda a: SeedBatch(a, a), "d2", [[0, 1], [1, 0]], np.uint8),
    (lambda a: SeedBatch([[0], [1]], [[0], [1]], source_rows=a), "source_rows", [1, 0],
     np.int64),
], ids=["Database", "SeedBatch.d1", "SeedBatch.d2", "SeedBatch.source_rows"])
def test_records_keep_a_private_copy(make, field, values, dtype):
    base = np.array(values, dtype=dtype)  # already the record's dtype: no cast copies it
    record = make(base[:])
    assert base.flags.writeable  # the caller's array is not frozen
    base[...] = 7  # and its later writes do not reach the record
    assert getattr(record, field).tolist() == values
    assert not getattr(record, field).flags.writeable
