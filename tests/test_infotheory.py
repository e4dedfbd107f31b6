from itertools import product
from math import comb, inf, log2, nan

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from delmatch.infotheory import (binary_entropy, regime_ok, achievable_rate,
                                 typicality_mask, supersequence_count_exact,
                                 supersequence_count_bound, min_seed_batch_size,
                                 detection_probability_bound)
from delmatch.model import PROB_TOL, Distribution


# -- entropy ---------------------------------------------------------------

def test_entropy_uniform_binary():
    assert Distribution.bernoulli(0.5).entropy == 1.0


def test_entropy_point_mass():
    assert Distribution((1.0, 0.0)).entropy == 0.0


def test_entropy_bern02():
    assert Distribution.bernoulli(0.2).entropy == pytest.approx(0.721928, abs=1e-6)


def test_entropy_bounds():
    for q in (2, 3, 5):
        for seed in range(5):
            p = np.random.default_rng(seed).dirichlet(np.ones(q))
            p = p / p.sum()
            h = Distribution(tuple(p)).entropy
            assert 0.0 <= h <= log2(q) + 1e-12


def test_binary_entropy_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.4) == pytest.approx(0.970951, abs=1e-6)


def test_binary_entropy_symmetric():
    for x in np.linspace(0.0, 1.0, 21):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1.0 - x), abs=1e-12)


def test_binary_entropy_domain():
    with pytest.raises(ValueError):
        binary_entropy(-0.1)
    with pytest.raises(ValueError):
        binary_entropy(1.1)


# -- achievable rate -------------------------------------------------------

def _rate_no_side_info(dist, delta):
    q = dist.alphabet_size
    return max(0.0, dist.entropy - binary_entropy(delta) - delta * log2(q - 1))


def _rate_full_side_info(dist, delta):
    return (1.0 - delta) * dist.entropy


def test_rate_full_info_bern_half():
    assert achievable_rate(Distribution.bernoulli(0.5), 0.4, 1.0) == 0.6


def test_rate_no_info_bern_half():
    r = achievable_rate(Distribution.bernoulli(0.5), 0.4, 0.0)
    assert r == pytest.approx(1.0 - binary_entropy(0.4), abs=1e-12)
    assert r == pytest.approx(0.029049, abs=1e-6)


def test_rate_half_info_bern_half():
    r = achievable_rate(Distribution.bernoulli(0.5), 0.4, 0.5)
    assert r == pytest.approx(0.8 * (1.0 - binary_entropy(0.75)), abs=1e-12)
    assert r == pytest.approx(0.150978, abs=1e-6)


def test_rate_positive_part_boundary():
    # uniform q-ary at delta = 1 - 1/q and no side info sits exactly at zero
    for q in (2, 3, 4, 6):
        dist = Distribution.uniform(q)
        r = achievable_rate(dist, 1.0 - 1.0 / q, 0.0)
        assert 0.0 <= r <= 1e-12


def test_rate_reduces_to_endpoint_formulas():
    dists = [Distribution.bernoulli(p) for p in (0.1, 0.25, 0.5)]
    dists += [Distribution.uniform(q) for q in (2, 3, 4)]
    dists += [Distribution((0.2, 0.3, 0.5))]
    for dist, delta in product(dists, (0.0, 0.1, 0.3, 0.45)):
        assert achievable_rate(dist, delta, 0.0) == pytest.approx(
            _rate_no_side_info(dist, delta), abs=1e-12)
        assert achievable_rate(dist, delta, 1.0) == pytest.approx(
            _rate_full_side_info(dist, delta), abs=1e-12)


def test_rate_nondecreasing_in_alpha():
    dists = [Distribution.bernoulli(0.3), Distribution.uniform(3),
             Distribution((0.5, 0.3, 0.2))]
    alphas = np.linspace(0.0, 1.0, 11)
    for dist in dists:
        for delta in (0.1, 0.3, 0.5):
            if delta >= 1.0 - 1.0 / dist.alphabet_size:
                continue
            rates = [achievable_rate(dist, delta, a) for a in alphas]
            assert all(b >= a - 1e-12 for a, b in zip(rates, rates[1:]))


def test_rate_regime_flag():
    assert not regime_ok(Distribution.bernoulli(0.5), 0.6)
    assert not regime_ok(Distribution.bernoulli(0.5), 0.5)  # needs delta below 1 - 1/q
    assert regime_ok(Distribution.bernoulli(0.5), 0.4)
    # out of regime still evaluates
    achievable_rate(Distribution.bernoulli(0.5), 0.9, 0.0)


def test_rate_refuses_parameters_out_of_range():
    dist = Distribution.bernoulli(0.5)
    for bad in (nan, -0.1, 1.0):
        with pytest.raises(ValueError, match=r"delta must be in \[0, 1\), got"):
            achievable_rate(dist, bad, 0.5)
    for bad in (nan, -0.1, 1.5):
        with pytest.raises(ValueError, match=r"alpha must be in \[0, 1\], got"):
            achievable_rate(dist, 0.4, bad)


# -- typicality ------------------------------------------------------------

def _typical(seq, dist, eps):
    """typicality_mask of one sequence, as a row."""
    return bool(typicality_mask(np.asarray(seq)[None, :], dist, eps, axis=1)[0])


def test_uniform_sequences_always_typical():
    dist = Distribution.bernoulli(0.5)
    for seq in ([0, 0, 0], [1, 0, 1], [1, 1, 1, 1, 1, 1]):
        assert _typical(seq, dist, 0.0)


def test_exact_empirical_match_typical():
    dist = Distribution((0.8, 0.2))
    assert _typical([0, 0, 0, 0, 1], dist, 0.1)


def test_skewed_sequence_atypical():
    dist = Distribution((0.8, 0.2))
    # score 0.321928 differs from H = 0.721928 by 0.4 > 0.1
    assert not _typical([0, 0, 0, 0, 0], dist, 0.1)


def test_zero_probability_symbol_atypical():
    dist = Distribution((0.5, 0.5, 0.0))
    assert not _typical([0, 2], dist, 10.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1])
def test_typicality_params_reject_bad_epsilon(bad):
    # a NaN slack would make every sequence atypical
    with pytest.raises(ValueError, match="epsilon must be finite and >= 0"):
        _typical([0, 1], Distribution.bernoulli(0.5), bad)


@pytest.mark.parametrize("dist", [Distribution.uniform(2), Distribution.bernoulli(0.3)])
def test_typicality_refuses_non_integer_symbols(dist):
    for mat in (np.array([[0.0, 1.0]]), np.array([[True, False]])):
        with pytest.raises(ValueError, match=f"symbols must be integers, got {mat.dtype}"):
            typicality_mask(mat, dist, 0.1, axis=1)


def test_empty_sequence_typical():
    assert _typical([], Distribution((0.8, 0.2)), 0.0)


@pytest.mark.parametrize("q", [3, 6, 7, 200])
def test_uniform_lines_typical_at_epsilon_zero_along_either_axis(q):
    # the float mean of -log2 p and H(X) differ by rounding for these q
    dist = Distribution.uniform(q)
    mat = np.random.default_rng(q).integers(0, q, size=(9, 13))
    assert typicality_mask(mat, dist, 0.0, axis=1).tolist() == [True] * 9
    assert typicality_mask(mat, dist, 0.0, axis=0).tolist() == [True] * 13
    assert all(_typical(row, dist, 0.0) for row in mat)
    assert typicality_mask(mat[:0], dist, 0.0, axis=0).tolist() == [True] * 13


# uniform sources, and equal-probability lists whose sum is within PROB_TOL of 1
_UNIFORM = [Distribution.uniform(q) for q in (2, 3, 5, 6, 7, 256)] + [
    Distribution((p,) * q) for p, q in ((0.1, 10), (0.2, 5), (1 / 3, 3), (1 / 7, 7))]


def test_uniform_sources_include_lists_off_by_rounding():
    assert all(dist.is_uniform for dist in _UNIFORM)
    assert any(sum(dist.probabilities) != 1.0 for dist in _UNIFORM)
    assert all(abs(sum(dist.probabilities) - 1.0) <= PROB_TOL for dist in _UNIFORM)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_UNIFORM), st.integers(0, 6), st.integers(0, 40),
       st.sampled_from([0, 1]), st.sampled_from(["C", "F"]),
       st.sampled_from([np.uint8, np.int64]), st.floats(1e-9, 0.5),
       st.integers(0, 2 ** 32 - 1))
@example(_UNIFORM[1], 5, 1, 0, "F", np.uint8, 1e-9, 0)   # columns of length 5, one column
@example(_UNIFORM[1], 5, 1, 1, "C", np.uint8, 1e-9, 0)   # rows of length 1
@example(_UNIFORM[2], 0, 3, 0, "C", np.int64, 0.5, 0)    # columns of length 0
def test_uniform_typicality_equals_per_line_mean(dist, rows, cols, axis, order, dtype,
                                                 eps, seed):
    # the one comparison of a uniform source agrees with each line's mean
    # cost wherever rounding cannot decide the comparison
    q = dist.alphabet_size
    mat = np.random.default_rng(seed).integers(0, q, (rows, cols)).astype(dtype)
    mat = np.asarray(mat, order=order)
    got = typicality_mask(mat, dist, eps, axis=axis)
    assert got.dtype == bool and got.shape == (mat.shape[1 - axis],)
    if mat.shape[axis] == 0:
        assert got.all()
        return
    h = -sum(p * log2(p) for p in dist.probabilities)
    score = -np.log2(np.asarray(dist.probabilities))[mat].mean(axis=axis)
    gap = np.abs(score - h) - (eps + 1e-12 * max(1.0, h))
    decided = np.abs(gap) > 1e-10
    assert decided.all()  # every uniform line scores within rounding of H
    assert got.tolist() == (gap <= 0).tolist()


@pytest.mark.parametrize("q", [2, 3, 5, 256])
def test_uniform_typicality_names_outside_symbols_like_the_general_path(q):
    skewed = Distribution((0.6,) + (0.4 / (q - 1),) * (q - 1))
    for mat, bad in ((np.array([[0, -3], [1, -1]]), -3),
                     (np.array([[0, 1], [q + 1, q]], dtype=np.int16), q + 1),
                     (np.array([[q, -1]]), q)):
        for axis in (0, 1):
            messages = []
            for dist in (Distribution.uniform(q), skewed):
                with pytest.raises(ValueError) as caught:
                    typicality_mask(mat, dist, 0.1, axis=axis)
                messages.append(str(caught.value))
            assert messages == [f"symbol {bad} is outside the distribution's "
                                f"alphabet [0, {q})"] * 2


def test_long_uniform_columns_typical_at_epsilon_zero():
    # A 100,000-row uniform:5 batch: each column's mean cost rounds about
    # 3.9e-12 away from H, beyond the slack 1e-12 * H, but every column of a
    # uniform source is exactly typical.
    dist = Distribution.uniform(5)
    batch = np.random.default_rng(5).integers(0, 5, (100_000, 4)).astype(np.uint8)
    h = dist.entropy
    means = -np.log2(np.asarray(dist.probabilities))[batch].mean(axis=0)
    assert (np.abs(means - h) > 1e-12 * h).any()  # the per-line mean would miss
    assert typicality_mask(batch, dist, 0.0, axis=0).tolist() == [True] * 4
    assert typicality_mask(batch.T, dist, 0.0, axis=1).tolist() == [True] * 4


def test_typicality_matches_direct_inequality():
    rng = np.random.default_rng(7)
    dist = Distribution((0.6, 0.3, 0.1))
    h = dist.entropy
    for _ in range(100):
        length = int(rng.integers(1, 12))
        seq = rng.integers(0, 3, size=length)
        eps = float(rng.uniform(0.0, 1.0))
        score = -sum(log2(dist.probabilities[int(s)]) for s in seq) / length
        if abs(abs(score - h) - eps) < 1e-9:
            continue  # boundary case: float evaluation order may disagree
        assert _typical(seq, dist, eps) == \
            (abs(score - h) <= eps)


# -- supersequence counts --------------------------------------------------

def _brute_force_supersequences(n, k, q, fixed):
    count = 0
    for code in range(q ** n):
        seq = []
        c = code
        for _ in range(n):
            seq.append(c % q)
            c //= q
        it = iter(seq)
        if all(s in it for s in fixed):
            count += 1
    return count


def test_supersequence_small_case():
    assert supersequence_count_exact(3, 2, 2) == 4
    assert supersequence_count_exact(3, 2, 2) == _brute_force_supersequences(
        3, 2, 2, [0, 1])


def test_supersequence_trivials():
    for n, q in product((1, 3, 6), (2, 3)):
        assert supersequence_count_exact(n, n, q) == 1
        assert supersequence_count_exact(n, 0, q) == q ** n


def test_supersequence_string_independence():
    rng = np.random.default_rng(11)
    for _ in range(30):
        q = int(rng.choice([2, 3]))
        n = int(rng.integers(1, 8))
        k = int(rng.integers(0, n + 1))
        counts = {_brute_force_supersequences(n, k, q, rng.integers(0, q, size=k))
                  for _ in range(3)}
        assert counts == {supersequence_count_exact(n, k, q)}


def test_supersequence_argument_errors():
    for count in (supersequence_count_exact, supersequence_count_bound):
        with pytest.raises(ValueError, match="alphabet size must be >= 2"):
            count(3, 2, 1)
    with pytest.raises(ValueError, match="need 0 <= k <= n"):
        supersequence_count_exact(3, 4, 2)
    for n, k in ((0, 0), (3, 4), (3, -1)):
        with pytest.raises(ValueError, match="need n >= 1 and 0 <= k <= n"):
            supersequence_count_bound(n, k, 2)


def test_bound_small_case():
    bound = supersequence_count_bound(3, 2, 2)
    assert bound == pytest.approx(log2(3) + 3 * binary_entropy(2 / 3), abs=1e-12)
    assert bound >= log2(4)


def test_bound_at_k_equals_n():
    for n in (1, 2, 5, 17):
        assert supersequence_count_bound(n, n, 2) == pytest.approx(log2(n), abs=1e-12)
        assert log2(supersequence_count_exact(n, n, 2)) <= supersequence_count_bound(n, n, 2)


def test_bound_regime_error():
    with pytest.raises(ValueError):
        supersequence_count_bound(10, 2, 3)  # k < n/q


def test_bound_dominates_exact_in_regime():
    for q in (2, 3):
        for n in range(1, 13):
            for k in range(1, n + 1):
                if k * q < n:
                    continue
                exact = supersequence_count_exact(n, k, q)
                assert log2(exact) <= supersequence_count_bound(n, k, q) + 1e-12


# -- batch size and detection bound ----------------------------------------

def test_min_seed_batch_size_values():
    assert min_seed_batch_size(1024, 0.5, 0.5, 1.0) == 10
    assert min_seed_batch_size(8, 0.0, 0.0, 1.0) == 3
    assert min_seed_batch_size(100, 0.5, 0.9, 0.721928) == 13


def test_min_seed_batch_size_unbounded():
    with pytest.raises(ValueError, match="unbounded"):
        min_seed_batch_size(100, 0.5, 1.0, 1.0)


@pytest.mark.parametrize("args, message", [
    ((8, 0.2, nan, 1.0), r"alpha_target must be in \[0, 1\), got nan"),
    ((8, 0.2, -0.5, 1.0), r"alpha_target must be in \[0, 1\), got -0.5"),
    ((8, 0.2, 0.5, nan), "entropy must be positive, got nan"),
    ((8, 0.2, 0.5, 0.0), "entropy must be positive, got 0.0"),
    ((8, 0.2, 0.5, -1.0), "entropy must be positive, got -1.0"),
    ((0, 0.2, 0.5, 1.0), "n must be >= 1"),
    ((8, nan, 0.5, 1.0), r"delta must be in \[0, 1\), got nan"),
])
def test_min_seed_batch_size_refuses_bad_arguments(args, message):
    with pytest.raises(ValueError, match=message):
        min_seed_batch_size(*args)


def test_detection_bound_value():
    assert detection_probability_bound(100, 20, 0.5, 1.0, 0.05) == pytest.approx(
        0.949905, abs=1e-6)


def test_detection_bound_large_batch_limit():
    val = detection_probability_bound(100, 400, 0.5, 1.0, 0.05)
    assert val == pytest.approx(0.95, abs=1e-9)


def test_detection_bound_degrades_with_n():
    # n = 4 * 2^B with H = 1, eps = 0: exactly 1 - 4(1 - delta)
    for B, delta in ((10, 0.5), (16, 0.25)):
        n = 4 * 2 ** B
        assert detection_probability_bound(n, B, delta, 1.0, 0.0) == pytest.approx(
            1.0 - 4.0 * (1.0 - delta), abs=1e-12)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1])
def test_detection_bound_rejects_bad_epsilon(bad):
    with pytest.raises(ValueError, match="epsilon must be finite and >= 0"):
        detection_probability_bound(8, 4, 0.3, 1.0, bad)


@pytest.mark.parametrize("B, h, message", [
    (0, 1.0, "batch size must be >= 1"),
    (-1, 1.0, "batch size must be >= 1"),
    (4, nan, "entropy must be finite and >= 0, got nan"),  # the bound would be NaN
    (4, inf, "entropy must be finite and >= 0, got inf"),
    (4, -0.1, "entropy must be finite and >= 0, got -0.1"),
])
def test_detection_bound_rejects_bad_batch_or_entropy(B, h, message):
    with pytest.raises(ValueError, match=message):
        detection_probability_bound(8, B, 0.3, h, 0.1)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -0.1, 1.0])
def test_detection_bound_rejects_bad_delta(bad):
    with pytest.raises(ValueError, match=r"delta must be in \[0, 1\)"):
        detection_probability_bound(8, 4, bad, 1.0, 0.1)


def test_detection_bound_can_be_negative():
    # a trivial bound is reported as-is, not clipped to [0, 1], and as -inf
    # once 2^(B(eps-H)) overflows a float
    assert detection_probability_bound(256, 2, 0.25, 1.0, 0.05) < 0.0
    assert detection_probability_bound(64, 8, 0.3, 1.0, 100.0) == pytest.approx(
        -99.0 - 64 * 2.0 ** 792 * 0.7)
    assert detection_probability_bound(64, 16, 0.3, 1.0, 100.0) == -inf
    assert detection_probability_bound(4, 3000, 0.5, binary_entropy(0.05), 0.9) == -inf
