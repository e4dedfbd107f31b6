"""Random databases, the columnwise deletion channel, and seed batches.

Symbols are unsigned 8-bit indices into a finite alphabet (q <= 256).
All randomness flows through integer seeds split with numpy SeedSequence,
so every generated object is reproducible independent of scheduling.
Indices are 0-based throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

PROB_TOL = 1e-12
MAX_ALPHABET = 256
_U64 = 0xFFFFFFFFFFFFFFFF

# Sub-stream ids used when one channel seed feeds several independent draws.
STREAM_DELETION = 0
STREAM_DETECTION = 1
STREAM_LABELING = 2


def derive_seed(master_seed: int, *path: int) -> int:
    """Derive a 64-bit child seed from a master seed and an integer path.

    The split is SeedSequence([master, *path]); children are independent of
    each other and of how many siblings exist, so parallel trials seeded this
    way are reproducible regardless of worker scheduling.
    """
    ss = np.random.SeedSequence([master_seed & _U64, *path])
    return int(ss.generate_state(1, np.uint64)[0])


def _rng(seed: int, *path: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed & _U64, *path]))


def check_range(name: str, value, lo: float = 0.0, hi: float = math.inf,
                closed: bool = False, error=ValueError):
    """Raise error unless lo <= value < hi (value <= hi when closed).  NaN
    fails every comparison, so it is rejected too; hi = inf means "finite
    and >= lo"."""
    if not (lo <= value <= hi if closed else lo <= value < hi):
        lo, hi = (format(b, "d" if isinstance(b, int) else "g") for b in (lo, hi))
        bounds = (f"finite and >= {lo}" if hi == "inf"
                  else f"in [{lo}, {hi}{']' if closed else ')'}")
        raise error(f"{name} must be {bounds}, got {value}")


def _exact_cast(values, dtype, what: str) -> np.ndarray:
    """values as an array of dtype; a cast that would change any value (a
    non-integral float, NaN, an integer out of dtype's range) is refused."""
    values = np.asarray(values)
    if values.dtype == dtype:
        return values
    with np.errstate(invalid="ignore"):  # NaN and out-of-range values fail ==
        cast = values.astype(dtype)
    if not (cast == values).all():
        raise ValueError(f"{what} must be integers in the {np.dtype(dtype).name} range, "
                         f"got {values.dtype}")
    return cast


def _frozen(arr, dtype, what: str) -> np.ndarray:
    """A private, read-only, C-ordered copy of arr as dtype, cast exactly
    (see _exact_cast), so the caller's array stays writable and later writes
    to it do not reach the record."""
    out = np.array(_exact_cast(arr, dtype, what), order="C")
    out.setflags(write=False)
    return out


def _flag_vector(flags) -> np.ndarray:
    """A read-only uint8 copy of a 1-d 0/1 flag vector; raises otherwise."""
    flags = np.asarray(flags)
    if flags.ndim != 1:
        raise ValueError("flags must be a 1-d bit vector")
    if not ((flags == 0) | (flags == 1)).all():
        raise ValueError("flags must be 0/1")
    return _frozen(flags, np.uint8, "flags")


def _column_ids(d1, d2):
    """Label the columns of two integer matrices so that two columns get the
    same id iff they are equal entrywise over all rows (seed-batch columns,
    or transposed rows).  Ids are lexicographic ranks, from a sort of each
    column packed into 64-bit words at bit_length(max - min) bits per row,
    first row highest, each value stored as value - min.  Each word is one
    integer dot product of its rows with the powers of two of their places,
    less min times the sum of those powers.  There is no hashing, so
    equality is exact."""
    (rows, n), k = d1.shape, d2.shape[1]
    if rows == 0 or n + k == 0:  # no columns, or no rows to tell columns apart
        return np.zeros(n, dtype=np.int64), np.zeros(k, dtype=np.int64)
    # Each matrix apart: uint64 beside int64 would concatenate to float64.
    mats = [d for d in (d1, d2) if d.size]
    lo = min(int(d.min()) for d in mats)
    bits = max(1, (max(int(d.max()) for d in mats) - lo).bit_length())
    if bits > 64:
        raise ValueError("symbols must span less than 2^64")
    words = -(-rows // (64 // bits))
    per = -(-rows // words)  # rows per word; the last word may hold fewer
    powers = np.left_shift(np.uint64(1), np.arange(bits * (per - 1), -1, -bits,
                                                   dtype=np.uint64))
    keys = np.empty((words, n + k), dtype=np.uint64)
    for start, d in ((0, d1), (n, d2)):
        for c in range(0, d.shape[1], 1024):  # column blocks keep temporaries small
            part = d[:, c:c + 1024]
            for w in range(words):
                # uint64 arithmetic wraps, so the key is exact for int64 and
                # uint64 alike: sum p * value - lo * sum p = sum p * (value - lo)
                rows_w = part[w * per:(w + 1) * per].astype(np.uint64)
                p = powers[:rows_w.shape[0]]
                keys[w, start + c:start + c + part.shape[1]] = (
                    np.dot(p, rows_w) - np.uint64(lo * int(p.sum()) % 2 ** 64))
    # Sort, then number each run of equal neighbours.
    order = np.argsort(keys[0]) if words == 1 else np.lexsort(keys[::-1])
    ranked = keys[:, order]
    ids = np.empty(n + k, dtype=np.int64)
    change = np.any(ranked[:, 1:] != ranked[:, :-1], axis=0)
    ids[order] = np.cumsum(np.concatenate(([False], change)))
    return ids[:n], ids[n:]


@dataclass(frozen=True)
class Distribution:
    """A pmf over the symbol alphabet {0, ..., q-1}.

    Its constants are computed once, here, and kept out of eq, hash, repr and
    pickles: entropy (Shannon, in bits), costs (per-symbol -log2 p, +inf at
    zero-probability symbols, read-only), edges (the normalised cdf's first
    q - 1 entries, which _symbols compares draws with, read-only) and
    is_uniform()."""

    probabilities: tuple
    entropy: float = field(init=False, repr=False, compare=False)
    costs: np.ndarray = field(init=False, repr=False, compare=False)
    edges: np.ndarray = field(init=False, repr=False, compare=False)
    _uniform: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        probs = tuple(float(p) for p in self.probabilities)
        object.__setattr__(self, "probabilities", probs)
        if len(probs) < 2:
            raise ValueError("alphabet needs at least 2 symbols")
        if len(probs) > MAX_ALPHABET:
            raise ValueError(f"alphabet limited to {MAX_ALPHABET} symbols")
        if not all(math.isfinite(p) for p in probs):
            raise ValueError("probabilities must be finite")
        if any(p < 0.0 for p in probs):
            raise ValueError("probabilities must be nonnegative")
        total = sum(probs)
        if abs(total - 1.0) > PROB_TOL:
            raise ValueError(f"probabilities sum to {total!r}, expected 1")
        p = np.asarray(probs)
        costs = np.full(p.shape, np.inf)
        costs[p > 0.0] = -np.log2(p[p > 0.0])
        cdf = np.cumsum(probs)
        cdf /= cdf[-1]
        for name, value in (
                ("entropy", float(sum(-x * math.log2(x) for x in probs if x > 0.0))),
                ("costs", _frozen(costs, np.float64, "costs")),
                ("edges", _frozen(cdf[:-1], np.float64, "edges")),
                ("_uniform", all(x == probs[0] for x in probs))):
            object.__setattr__(self, name, value)

    def __getstate__(self):
        return {"probabilities": self.probabilities}

    def __setstate__(self, state):
        object.__setattr__(self, "probabilities", state["probabilities"])
        self.__post_init__()

    @property
    def alphabet_size(self) -> int:
        return len(self.probabilities)

    @classmethod
    def bernoulli(cls, p: float) -> "Distribution":
        """Binary alphabet with P(symbol 1) = p."""
        return cls((1.0 - p, p))

    @classmethod
    def uniform(cls, q: int) -> "Distribution":
        check_range("alphabet size", q, lo=2, hi=MAX_ALPHABET, closed=True)
        return cls((1.0 / q,) * q)

    def is_uniform(self) -> bool:
        return self._uniform


@dataclass(frozen=True, eq=False)
class Database:
    """An m x n matrix of symbol indices: rows are users, columns attributes."""

    symbols: np.ndarray
    q: int

    def __post_init__(self):
        arr = _frozen(self.symbols, np.uint8, "database symbols")
        if arr.ndim != 2:
            raise ValueError("database must be a 2-d matrix")
        if not 2 <= self.q <= MAX_ALPHABET:
            raise ValueError("alphabet size out of range")
        if arr.size and int(arr.max()) >= self.q:
            raise ValueError("symbol index exceeds alphabet size")
        object.__setattr__(self, "symbols", arr)

    @property
    def m(self) -> int:
        return self.symbols.shape[0]

    @property
    def n(self) -> int:
        return self.symbols.shape[1]


@dataclass(frozen=True, eq=False)
class DeletionPattern:
    """Length-n bit vector of deleted columns (1 = deleted), shared by all rows."""

    flags: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "flags", _flag_vector(self.flags))

    @property
    def n(self) -> int:
        return self.flags.shape[0]

    @property
    def retained_count(self) -> int:
        """K, the number of columns surviving deletion."""
        return int(self.n - self.flags.sum())


@dataclass(frozen=True, eq=False)
class DetectionPattern:
    """One-sided side information: bit 1 marks a column known to be deleted."""

    flags: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "flags", _flag_vector(self.flags))

    @property
    def detected_indices(self) -> np.ndarray:
        return np.flatnonzero(self.flags)

    @property
    def detected_count(self) -> int:
        return int(self.flags.sum())


@dataclass(frozen=True, eq=False)
class Labeling:
    """Bijection sending row i of the source database to row perm[i] of the shuffled one."""

    perm: np.ndarray

    def __post_init__(self):
        perm = _frozen(self.perm, np.int64, "perm")
        if perm.ndim != 1 or not np.array_equal(np.sort(perm), np.arange(perm.size)):
            raise ValueError("perm must be a permutation of 0..m-1")
        object.__setattr__(self, "perm", perm)

    @property
    def m(self) -> int:
        return self.perm.shape[0]


@dataclass(frozen=True, eq=False)
class DeletionExperiment:
    """Ground truth bundle: source db, shuffled column-deleted db, and the patterns.

    Deleted columns are physically absent from c2; row i of c1 with the deleted
    columns removed equals row labeling.perm[i] of c2, entry for entry.
    """

    c1: Database
    c2: Database
    labeling: Labeling
    deletion: DeletionPattern
    detection: DetectionPattern

    def __post_init__(self):
        if self.c2.q != self.c1.q or self.c2.m != self.c1.m:
            raise ValueError("c1/c2 shape or alphabet mismatch")
        if self.deletion.n != self.c1.n or self.detection.flags.shape[0] != self.c1.n:
            raise ValueError("pattern length does not match column count")
        if np.any(self.detection.flags > self.deletion.flags):
            raise ValueError("detection at a column that was not deleted")
        if self.labeling.m != self.c1.m:
            raise ValueError("labeling size mismatch")
        if self.c2.n != self.deletion.retained_count:
            raise ValueError("c2 column count inconsistent with deletion pattern")
        keep = self.deletion.flags == 0
        if not np.array_equal(self.c2.symbols[self.labeling.perm], self.c1.symbols[:, keep]):
            raise ValueError("c2 is not the column-deleted shuffle of c1")

    @property
    def retained_count(self) -> int:
        return self.deletion.retained_count


@dataclass(frozen=True, eq=False)
class SeedBatch:
    """B correctly-matched row pairs, aligned by index.

    Row t of d2 equals row t of d1 with the experiment's deleted columns
    removed.  source_rows optionally records which c1 rows the batch used.
    """

    d1: np.ndarray
    d2: np.ndarray
    source_rows: np.ndarray = None

    def __post_init__(self):
        d1 = _frozen(np.atleast_2d(self.d1), np.uint8, "seed batch symbols")
        d2 = _frozen(np.atleast_2d(self.d2), np.uint8, "seed batch symbols")
        if d1.shape[0] != d2.shape[0]:
            raise ValueError("d1/d2 row counts differ")
        if d2.shape[1] > d1.shape[1]:
            raise ValueError("d2 cannot be wider than d1")
        object.__setattr__(self, "d1", d1)
        object.__setattr__(self, "d2", d2)
        if self.source_rows is not None:
            rows = _frozen(self.source_rows, np.int64, "source_rows")
            object.__setattr__(self, "source_rows", rows)

    @property
    def batch_size(self) -> int:
        return self.d1.shape[0]

    @property
    def n(self) -> int:
        return self.d1.shape[1]

    @property
    def retained_count(self) -> int:
        return self.d2.shape[1]


def _symbols(dist: Distribution, shape, seed: int, *path: int) -> np.ndarray:
    """A uint8 array of i.i.d. symbols from dist, drawn from stream (seed, *path).

    This is numpy's Generator.choice(q, size=shape, p=...) recomputed byte
    for byte, as a test checks: each symbol is the number of normalised cdf
    entries at or below its uniform draw, counted by q - 1 comparisons."""
    draws = _rng(seed, *path).random(shape)
    out = (draws >= dist.edges[0]).view(np.uint8)
    for edge in dist.edges[1:]:
        out += (draws >= edge).view(np.uint8)
    return out


def _channel_pattern(n: int, delta: float, alpha: float, seed: int):
    """The channel's (deleted, detected) bool masks: each column is deleted
    with probability delta, and each deleted one revealed with probability
    alpha, from the channel seed's deletion and detection streams."""
    deleted = _rng(seed, STREAM_DELETION).random(n) < delta
    return deleted, deleted & (_rng(seed, STREAM_DETECTION).random(n) < alpha)


def sample_database(dist: Distribution, m: int, n: int, rng_seed: int) -> Database:
    """Sample an m x n database with i.i.d. entries from dist."""
    if m < 1 or n < 1:
        raise ValueError("m and n must be positive")
    return Database(_symbols(dist, (m, n), rng_seed), dist.alphabet_size)


def apply_deletion_channel(c1: Database, delta: float, alpha: float,
                           rng_seed: int) -> DeletionExperiment:
    """Delete each column i.i.d. with probability delta, reveal each deleted
    column with probability alpha, and shuffle rows by a uniform permutation.

    The same columns are deleted in every row; retained entries are noise-free.
    """
    check_range("delta", delta, hi=1.0)
    check_range("alpha", alpha, hi=1.0, closed=True)
    deleted, detected = _channel_pattern(c1.n, delta, alpha, rng_seed)
    perm = _rng(rng_seed, STREAM_LABELING).permutation(c1.m)

    keep = ~deleted
    shuffled = np.empty((c1.m, int(keep.sum())), dtype=np.uint8)
    shuffled[perm] = c1.symbols[:, keep]
    return DeletionExperiment(
        c1=c1,
        c2=Database(shuffled, c1.q),
        labeling=Labeling(perm),
        deletion=DeletionPattern(deleted),
        detection=DetectionPattern(detected),
    )


def extract_seed_batch(exp: DeletionExperiment, batch_size: int,
                       rng_seed: int) -> SeedBatch:
    """Draw batch_size correctly-matched row pairs, without replacement."""
    m = exp.c1.m
    if batch_size > m:
        raise ValueError(f"batch_size {batch_size} exceeds row count {m}")
    idx = _rng(rng_seed).choice(m, size=batch_size, replace=False)
    d1 = exp.c1.symbols[idx]
    d2 = exp.c2.symbols[exp.labeling.perm[idx]]
    return SeedBatch(d1, d2, source_rows=idx)

