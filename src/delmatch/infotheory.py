"""Entropies, weak typicality, achievable matching rates, and supersequence
counts for the column-deletion setting.

All logarithms are base 2; rates are bits per column.  Everything here is a
pure function, safe for unrestricted concurrent use.
"""

from __future__ import annotations

from math import ceil, comb, inf, log2

import numpy as np

from .model import Distribution, check_range


def binary_entropy(x: float) -> float:
    """H_b(x) in bits, with H_b(0) = H_b(1) = 0 exactly."""
    check_range("argument", x, hi=1.0, closed=True)
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * log2(x) - (1.0 - x) * log2(1.0 - x)


def regime_ok(dist: Distribution, delta: float) -> bool:
    """True when delta < 1 - 1/q, the regime the rate guarantee assumes.

    The formula is still evaluated outside this regime (useful for full
    curve sweeps); this flag marks where the guarantee actually applies.
    """
    return delta < 1.0 - 1.0 / dist.alphabet_size


def achievable_rate(dist: Distribution, delta: float, alpha: float) -> float:
    """Guaranteed-achievable database growth rate, bits per column.

    Positive part of
        (1 - a*d) * (H(X) - H_b((1-d)/(1-a*d))) - (1-a) * d * log2(q-1)
    with d = delta, the deletion probability in [0, 1), and a = alpha, the
    detection probability in [0, 1].  At a=1 this reduces exactly to
    (1-d) H(X); at a=0 to H(X) - H_b(d) - d log2(q-1), each taken at their
    positive part.
    """
    check_range("delta", delta, hi=1.0)
    check_range("alpha", alpha, hi=1.0, closed=True)
    d, a = delta, alpha
    survivor = 1.0 - a * d
    inner = survivor * (dist.entropy - binary_entropy((1.0 - d) / survivor))
    inner -= (1.0 - a) * d * log2(dist.alphabet_size - 1)
    return max(0.0, inner)


def typicality_mask(mat, dist: Distribution, epsilon: float, axis: int) -> np.ndarray:
    """Weak typicality of every line of a symbol matrix along axis (1: each
    row, 0: each column): |-(1/L) log2 p(line) - H(X)| <= epsilon.

    Lines of length 0 are typical.  Every line of a uniform source scores
    exactly its one symbol cost, so one comparison decides all lines; other
    sources average each line's costs.  The cost or mean and H round
    differently, so a few ulps of slack, 1e-12 * max(1, H), keep exactly
    typical lines typical at epsilon = 0.  epsilon must be finite and >= 0:
    a NaN slack would make every line atypical.  Symbols are indices into
    the distribution's alphabet: one < 0 or >= q is a ValueError naming the
    first, and a non-integer dtype is a ValueError too.
    """
    check_range("epsilon", epsilon)
    mat = np.asarray(mat)
    if mat.shape[axis] == 0:
        return np.ones(mat.shape[1 - axis], dtype=bool)
    if mat.dtype.kind not in "iu":
        raise ValueError(f"symbols must be integers, got {mat.dtype}")
    q = dist.alphabet_size
    if (mat.max(initial=0) >= q
            or mat.dtype.kind == "i" and mat.min(initial=0) < 0):
        bad = mat[(mat < 0) | (mat >= q)][0]
        raise ValueError(f"symbol {bad} is outside the distribution's alphabet [0, {q})")
    h = dist.entropy
    slack = epsilon + 1e-12 * max(1.0, h)
    if dist.is_uniform:
        return np.full(mat.shape[1 - axis], abs(dist.costs[0] - h) <= slack)
    return np.abs(dist.costs[mat].mean(axis=axis) - h) <= slack


def supersequence_count_exact(n: int, k: int, q: int) -> int:
    """Exact number of q-ary length-n strings containing a fixed length-k
    string as a (possibly non-contiguous) subsequence.

    The count is independent of which length-k string is fixed and equals
    sum_{i=k}^{n} C(n, i) (q-1)^(n-i).  Returned as an exact unbounded int.
    """
    if q < 2:
        raise ValueError("alphabet size must be >= 2")
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    return sum(comb(n, i) * (q - 1) ** (n - i) for i in range(k, n + 1))


def supersequence_count_bound(n: int, k: int, q: int) -> float:
    """log2 of the analytic upper bound n * 2^(n H_b(k/n)) * (q-1)^(n-k).

    Only valid for k >= n/q; outside that regime a ValueError is raised.
    """
    if q < 2:
        raise ValueError("alphabet size must be >= 2")
    if not 1 <= n or not 0 <= k <= n:
        raise ValueError("need n >= 1 and 0 <= k <= n")
    if k * q < n:
        raise ValueError("bound requires k >= n/q")
    return log2(n) + n * binary_entropy(k / n) + (n - k) * log2(q - 1)


def min_seed_batch_size(n: int, delta: float, alpha_target: float,
                        entropy_bits: float) -> int:
    """Smallest batch size B with B >= log2(n (1-delta) / (1-alpha_target)) / H.

    Guarantees a deletion-detection probability of at least alpha_target for
    the certainty detector.  alpha_target = 1 needs an unbounded batch and is
    rejected.
    """
    if alpha_target == 1.0:
        raise ValueError("alpha_target = 1 is unbounded; need alpha_target < 1")
    check_range("alpha_target", alpha_target, hi=1.0)
    if not entropy_bits > 0.0:  # NaN too
        raise ValueError(f"entropy must be positive, got {entropy_bits}")
    if n < 1:
        raise ValueError("n must be >= 1")
    check_range("delta", delta, hi=1.0)
    need = log2(n * (1.0 - delta) / (1.0 - alpha_target)) / entropy_bits
    # snap float noise so exact-integer thresholds stay exact
    nearest = round(need)
    if abs(need - nearest) < 1e-9:
        need = nearest
    return max(0, ceil(need))


def detection_probability_bound(n: int, B: int, delta: float,
                                entropy_bits: float, epsilon: float) -> float:
    """Analytic lower bound 1 - eps - n 2^(-B(H-eps)) (1-delta) on the
    probability that a truly deleted column is flagged Deleted.

    May be negative (a trivial bound); reported as-is, and as -inf when
    2^(B(eps-H)) overflows a float, the bound then being below -1.8e308.
    """
    if B < 1:
        raise ValueError("batch size must be >= 1")
    check_range("delta", delta, hi=1.0)
    check_range("entropy", entropy_bits)
    check_range("epsilon", epsilon)
    try:
        power = 2.0 ** (-B * (entropy_bits - epsilon))
    except OverflowError:
        return -inf
    return 1.0 - epsilon - n * power * (1.0 - delta)
