import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from delmatch import (Distribution, Database, DeletionPattern, DetectionPattern,
                      Labeling, DeletionExperiment, SeedBatch, sample_database,
                      apply_deletion_channel, extract_seed_batch,
                      database_to_csv, database_from_csv, save_experiment,
                      load_experiment)
from delmatch.model import MAX_ALPHABET, _symbols, check_range


def test_degenerate_alphabet_rejected():
    with pytest.raises(ValueError):
        Distribution((1.0,))


def test_invalid_distribution_rejected():
    with pytest.raises(ValueError):
        Distribution((0.5, 0.4))
    with pytest.raises(ValueError):
        Distribution((1.2, -0.2))


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

    class Refused(ValueError):
        pass
    for bad in (nan, inf, -inf, -1.0):
        with pytest.raises(Refused, match="epsilon must be finite and >= 0, got"):
            check_range("epsilon", bad, error=Refused)


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


def test_distribution_helpers():
    d = Distribution.bernoulli(0.2)
    assert d.probabilities == (0.8, 0.2)
    assert d.alphabet_size == 2
    assert Distribution.uniform(4).is_uniform()
    assert not d.is_uniform()


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


def test_experiment_constructor_rejects_inconsistency():
    d = Distribution.bernoulli(0.5)
    c1 = sample_database(d, 3, 6, 1)
    exp = apply_deletion_channel(c1, 0.3, 1.0, 2)
    tampered = np.array(exp.c2.symbols)
    if tampered.size:
        tampered[0, 0] ^= 1
        with pytest.raises(ValueError):
            DeletionExperiment(exp.c1, Database(tampered, 2), exp.labeling,
                               exp.deletion, exp.detection, exp.master_seed)
    bad_detect = np.array(exp.deletion.flags) ^ 1  # detections at retained cols
    with pytest.raises(ValueError):
        DeletionExperiment(exp.c1, exp.c2, exp.labeling, exp.deletion,
                           DetectionPattern(bad_detect, 1.0), exp.master_seed)


def test_labeling_must_be_bijective():
    with pytest.raises(ValueError):
        Labeling(np.array([0, 0, 2]))
    assert np.array_equal(Labeling(np.array([2, 0, 1])).inverse,
                          np.array([1, 2, 0]))


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


def test_database_csv_roundtrip():
    d = Distribution.uniform(5)
    db = sample_database(d, 7, 9, 77)
    text = database_to_csv(db)
    assert text.splitlines()[0] == "7,9,5"
    back = database_from_csv(text)
    assert back.q == 5
    assert np.array_equal(back.symbols, db.symbols)


@pytest.mark.parametrize("symbol", [300, -1, 2])
def test_database_csv_rejects_symbols_outside_alphabet(symbol):
    text = f"2,2,2\n0,1\n1,{symbol}\n"
    with pytest.raises(ValueError, match=f"symbol {symbol} outside"):
        database_from_csv(text)
    with pytest.raises(ValueError, match="alphabet size 1000"):
        database_from_csv(f"2,2,1000\n0,1\n1,{symbol}\n")


def _assert_round_trip(exp, directory):
    """save -> load gives back every part of exp exactly, and saving the
    loaded experiment again writes the same bytes."""
    save_experiment(exp, directory)
    back = load_experiment(directory)
    assert np.array_equal(back.c1.symbols, exp.c1.symbols)
    assert np.array_equal(back.c2.symbols, exp.c2.symbols)
    assert back.c1.q == exp.c1.q and back.c2.q == exp.c2.q
    assert np.array_equal(back.labeling.perm, exp.labeling.perm)
    assert np.array_equal(back.deletion.flags, exp.deletion.flags)
    assert np.array_equal(back.detection.flags, exp.detection.flags)
    assert back.deletion.delta == exp.deletion.delta
    assert back.detection.alpha == exp.detection.alpha
    assert back.master_seed == exp.master_seed
    # a second save produces identical bytes
    other = os.path.join(directory, "again")
    save_experiment(back, other)
    for name in ("c1.csv", "c2.csv", "experiment.txt"):
        with open(os.path.join(directory, name), "rb") as a, \
                open(os.path.join(other, name), "rb") as b:
            assert a.read() == b.read()


def test_load_experiment_names_a_missing_key(tmp_path):
    exp = apply_deletion_channel(sample_database(Distribution.bernoulli(0.5), 4, 5, 1),
                                 0.4, 0.5, 2)
    save_experiment(exp, tmp_path)
    manifest = tmp_path / "experiment.txt"
    lines = manifest.read_text().splitlines(keepends=True)
    manifest.write_text("".join(ln for ln in lines if not ln.startswith("permutation")))
    with pytest.raises(ValueError, match="^experiment.txt has no permutation line$"):
        load_experiment(tmp_path)


def test_experiment_save_load_bit_exact(tmp_path):
    d = Distribution.bernoulli(0.3)
    c1 = sample_database(d, 6, 14, 123)
    exp = apply_deletion_channel(c1, 0.4, 0.5, 456)
    _assert_round_trip(exp, tmp_path)


_EDGE_DELTAS = [0.0, 5e-324, 0.1, 1 / 3, math.nextafter(1.0, 0.0)]
_EDGE_ALPHAS = [0.0, 5e-324, 1 / 3, math.nextafter(1.0, 0.0), 1.0]


@st.composite
def _experiments(draw):
    """Consistent experiments of any shape, including every column deleted
    or detected, with delta and alpha at and near the ends of their ranges."""
    q = draw(st.integers(2, 256))
    m, n = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    symbols = rng.integers(0, q, size=(m, n)).astype(np.uint8)
    bits = st.lists(st.booleans(), min_size=n, max_size=n)
    deleted = np.array(draw(bits))
    detected = deleted & np.array(draw(bits))
    perm = rng.permutation(m)
    shuffled = np.empty((m, int((~deleted).sum())), dtype=np.uint8)
    shuffled[perm] = symbols[:, ~deleted]
    delta = draw(st.one_of(st.sampled_from(_EDGE_DELTAS),
                           st.floats(0.0, 1.0, exclude_max=True)))
    alpha = draw(st.one_of(st.sampled_from(_EDGE_ALPHAS), st.floats(0.0, 1.0)))
    return DeletionExperiment(
        Database(symbols, q), Database(shuffled, q), Labeling(perm),
        DeletionPattern(deleted.astype(np.uint8), delta),
        DetectionPattern(detected.astype(np.uint8), alpha),
        draw(st.integers(0, 2 ** 64 - 1)))


@settings(max_examples=150, deadline=None)
@given(_experiments())
def test_experiment_save_load_round_trip_property(exp):
    with tempfile.TemporaryDirectory() as directory:
        _assert_round_trip(exp, directory)


def test_types_are_immutable():
    d = Distribution.bernoulli(0.5)
    db = sample_database(d, 2, 3, 0)
    with pytest.raises(ValueError):
        db.symbols[0, 0] = 1
    pat = DeletionPattern(np.array([1, 0, 1]), 0.5)
    with pytest.raises(ValueError):
        pat.flags[0] = 0


@pytest.mark.parametrize("make, values", [
    (lambda a: Database(a, 2), [[-1, 0]]),          # wraps to 255, a symbol >= q
    (lambda a: Database(a, 2), [[1.5, 0]]),         # truncates to 1
    (lambda a: SeedBatch(a, [[300]]), [[300, 1]]),  # wraps to 44
    (lambda a: SeedBatch(a, [[1]]), [[0.5, 1]]),    # truncates to 0
], ids=["Database-negative", "Database-fraction", "SeedBatch-300", "SeedBatch-fraction"])
def test_records_refuse_a_cast_that_changes_a_symbol(make, values):
    with pytest.raises(ValueError, match="integers in the uint8 range"):
        make(np.array(values))


@pytest.mark.parametrize("make, field, values, dtype", [
    (lambda a: Database(a, 2), "symbols", [[0, 1], [1, 0]], np.uint8),
    (lambda a: SeedBatch(a, a), "d1", [[0, 1], [1, 0]], np.uint8),
    (lambda a: SeedBatch(a, a), "d2", [[0, 1], [1, 0]], np.uint8),
    (lambda a: SeedBatch([[0], [1]], [[0], [1]], source_rows=a), "source_rows", [1, 0],
     np.int64),
    (Labeling, "perm", [1, 0], np.int64),
    (lambda a: DeletionPattern(a, 0.5), "flags", [1, 0], np.uint8),
    (lambda a: DetectionPattern(a, 0.5), "flags", [1, 0], np.uint8),
], ids=["Database", "SeedBatch.d1", "SeedBatch.d2", "SeedBatch.source_rows", "Labeling",
        "DeletionPattern", "DetectionPattern"])
def test_records_keep_a_private_copy(make, field, values, dtype):
    base = np.array(values, dtype=dtype)  # already the record's dtype: no cast copies it
    record = make(base[:])
    assert base.flags.writeable  # the caller's array is not frozen
    base[...] = 7  # and its later writes do not reach the record
    assert getattr(record, field).tolist() == values
    assert not getattr(record, field).flags.writeable
