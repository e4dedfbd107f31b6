"""Row matching against a column-deleted observation.

The scheme: drop the columns known to be deleted, then accept a source row
iff its restriction is weakly typical and contains the observed row as a
(possibly non-contiguous) subsequence.  A unique accepted row is a match;
several accepted rows are a collision; rows are matched independently, so
two observations may map to the same source row.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import Database, Distribution, _column_ids, _exact_cast, check_range
from .infotheory import typicality_mask


class MatchStatus(Enum):
    MATCHED = "matched"
    NO_CANDIDATE = "no_candidate"        # no row both typical and containing y
    COLLISION = "collision"              # two or more candidate rows


@dataclass(frozen=True)
class MatchOutcome:
    status: MatchStatus
    row: int = None  # c1 row index, only for MATCHED

    @property
    def is_match(self) -> bool:
        return self.status is MatchStatus.MATCHED


@dataclass(frozen=True)
class MatcherConfig:
    """The matcher's typicality slack, as match_all takes it."""

    epsilon: float

    def __post_init__(self):
        check_range("epsilon", self.epsilon)


def default_epsilon(dist: Distribution) -> float:
    """Default typicality slack for experiments: a tenth of the entropy."""
    return 0.1 * dist.entropy


def is_subsequence(y, x) -> bool:
    """True iff y embeds into x preserving order (greedy scan, O(|x|))."""
    it = iter(x)
    return all(sym in it for sym in y)


def _keep_mask(n: int, detected) -> np.ndarray:
    detected = np.asarray(list(detected))
    if detected.dtype == bool:
        raise ValueError("detected must list column indices, not a boolean mask")
    detected = _exact_cast(detected, np.int64, "detected column indices")
    if detected.size and (detected.min() < 0 or detected.max() >= n):
        raise ValueError("detected index out of range")
    keep = np.ones(n, dtype=bool)
    keep[detected] = False
    return keep


# Tile sizes of the containment kernel: 64-bit words of source rows per tile
# (4096 rows), which bound the symbol table at width * (q + 1) * 512 bytes and
# its packing temporaries at 8 columns of one tile; and the bytes of the one
# buffer that holds the lag-major state and step arrays, which set how many
# observed rows a block holds (see _containing_sets).
_STATE_BYTES = 1 << 20
_SOURCE_WORDS = 64


def _symbol_sets(rows: np.ndarray, symbols: int) -> np.ndarray:
    """eq[c, s]: packed bitset of the rows with rows[i, c] == s.

    Row i is bit i % 64 of word i // 64 (byte i // 8 of the little-endian
    words).  The table is packed one symbol at a time from at most 8
    transposed columns; the bits past row m stay zero.
    """
    m, width = rows.shape
    eq = np.zeros((width, symbols, -(-m // 64)), dtype=np.uint64)
    packed = eq.view(np.uint8)[:, :, :-(-m // 8)]
    for c in range(0, width, 8):
        part = np.ascontiguousarray(rows[:, c:c + 8].T)
        for s in range(symbols):
            packed[c:c + 8, s] = np.packbits(part == s, axis=1, bitorder="little")
    return eq


def _containing_sets(rows: np.ndarray, ys: np.ndarray):
    """Bit-parallel subsequence containment of every ys row in every rows row.

    Yields (lo, start, sets) per tile: bit i of sets[b] (word i // 64, bit
    i % 64) is set iff ys[lo + b] embeds in order into rows[start + i].
    sets is a view into a buffer that the next yield overwrites.

    Greedy embedding is exact for subsequences.  After c columns a row's
    greedy progress is c - lag, and a row whose lag exceeds u = width - K
    can no longer finish.  The state is u + 1 cumulative lag sets, 64 source
    rows per word: T[l] holds the rows whose lag is at most l, so a column
    keeps a row's lag where its symbol is the one wanted (E[l]) and raises
    it by one elsewhere, and T'[l] = T[l - 1] | (T[l] & E[l]), with T[-1]
    empty.  After the last column T[u] is the answer, as no lag is below u.
    The state and step arrays are lag-major, (u + 1, block, words), so each
    lag slice is contiguous, and the lag axis is stored reversed (index
    r = u - l): the symbol wanted at column c and index r is ys[c + r - u],
    row c + r of `wanted`, and positions outside y hold a symbol no row has.
    Before column c every lag is at most c and at least c - K, so T[l] is
    every row for l >= c and empty for l < c - K.  Column c therefore
    computes only the lags l in [max(0, c + 1 - K), min(c, u)] in three
    array passes (take E, AND, OR with the next index), and while c < u it
    writes T'[c + 1] as every row.  Those are exactly the rows that column
    c + 1 reads, and column 0 reads only T[0], every row, so no row is read
    before it is written and the buffer needs no clearing.  The band makes
    the cost O(m * count * (K + 1) * (u + 1) / 64) word operations.

    Each (block, column) costs three numpy calls whatever the block's size,
    and at the pipeline's shapes their fixed cost is a large share of the
    kernel's time (over 40% with 64-row blocks).  So a block holds as many
    observed rows as its state and step arrays fit in _STATE_BYTES: 170
    rows at u = 11 and 32 words, 13 blocks of 2048 observed rows where
    64-row blocks made 32.
    """
    m, width = rows.shape
    count, k = ys.shape
    u = width - k
    absent = int(max(rows.max(initial=0), ys.max(initial=0))) + 1
    # uint16 holds the absent symbol 256 and keeps this copy of ys small
    wanted = np.full((width + u + 1, count), absent, dtype=np.uint16)
    wanted[u:u + k] = ys.T
    # column c computes the indices [a, b): lags max(0, c + 1 - K) to min(c, u)
    bands = [(c, u - min(c, u), u + 1 - max(0, c + 1 - k)) for c in range(width)]
    tile = 64 * _SOURCE_WORDS
    words = max(1, min(_SOURCE_WORDS, -(-m // 64)))
    block_rows = max(1, min(count, _STATE_BYTES // (16 * (u + 1) * words)))
    # one buffer holds the state and step arrays of every block of every tile
    buffer = np.empty(2 * (u + 1) * block_rows * words, dtype=np.uint64)
    for start in range(0, m, tile):
        eq = _symbol_sets(rows[start:start + tile], absent + 1)
        size = min(tile, m - start)
        full = np.full(-(-size // 64), ~np.uint64(0))
        if size % 64:
            full[-1] = np.uint64((1 << (size % 64)) - 1)
        for lo in range(0, count, block_rows):
            hi = min(lo + block_rows, count)
            block = wanted[:, lo:hi]
            state, step = buffer[:2 * (u + 1) * (hi - lo) * full.size].reshape(
                2, u + 1, hi - lo, full.size)
            state[u] = full  # T[0]: every row starts at lag 0
            for c, a, b in bands:
                # mode="clip" lets take write into out without a buffer
                np.take(eq[c], block[c + a:c + b], axis=0, out=step[a:b], mode="clip")
                np.bitwise_and(step[a:b], state[a:b], out=step[a:b])  # lag l kept
                top = min(b, u)  # T[-1], past index u, is empty
                np.bitwise_or(step[a:top], state[a + 1:top + 1], out=step[a:top])  # T[l - 1]
                if a:  # c < u: every row's lag is at most c + 1
                    step[a - 1] = full
                state, step = step, state
            yield lo, start, state[0]
        del eq  # release this tile's table before the next one is built


def _containment_counts(rows: np.ndarray, ys: np.ndarray):
    """For each row of ys, how many rows of `rows` contain it as a
    subsequence, and the index of the containing row where exactly one does."""
    counts = np.zeros(ys.shape[0], dtype=np.int64)
    first = np.zeros(ys.shape[0], dtype=np.int64)
    for lo, start, sets in _containing_sets(rows, ys):
        tile_counts = np.bitwise_count(sets).sum(axis=1, dtype=np.int64)
        counts[lo:lo + sets.shape[0]] += tile_counts
        word = np.argmax(sets != 0, axis=1)
        low = sets[np.arange(sets.shape[0]), word]
        # A word holding exactly one set bit 2^b has b set bits below it.
        bit = np.bitwise_count(low - np.uint64(1)).astype(np.int64)
        one = tile_counts == 1
        first[lo:lo + sets.shape[0]][one] = start + 64 * word[one] + bit[one]
    return counts, first


def match_counts(c1: Database, c2_rows, detected, epsilon: float,
                 dist: Distribution):
    """The matcher's decisions for every observed row, as arrays.

    Returns (counts, rows): counts[j] is the number of typical c1 rows
    containing observed row j, rows[j] the c1 row where counts[j] is 1 and
    -1 elsewhere.  Row j's status is min(counts[j], 2): 0 is no candidate,
    1 is matched, 2 is a collision.  count_mismatches scores rows.

    With no undetected deletion left, containment is equality: one sort
    labels the typical restricted rows and the observed rows together, equal
    rows alike, in O(m * width * log m).  Otherwise the bit-parallel kernel
    tests all typical rows at once: for u undetected deletions and K observed
    symbols it advances u + 1 cumulative lag bitsets, three array passes
    over the band of lags each column can change, in
    O(m^2 * (K + 1) * (u + 1) / 64) word operations.  It runs on blocks of
    observed rows sized by a 1 MiB state budget, not a fixed row count,
    because at pipeline sizes the fixed cost of its numpy calls, one per
    block, column and pass, is a large share of its time.

    Observed symbols must fit uint8 and detected indices must be integers;
    any other value (a float, a boolean mask, 300) is a ValueError, never a
    cast.  epsilon is the typicality slack, finite and >= 0.
    """
    c2_rows = _exact_cast(c2_rows, np.uint8, "observed symbols")
    if c2_rows.ndim == 1:  # one observed row; an empty list is no rows
        c2_rows = c2_rows.reshape(min(1, c2_rows.size), c2_rows.size)
    keep = _keep_mask(c1.n, detected)
    width = int(keep.sum())
    count, observed_cols = c2_rows.shape
    if observed_cols > width:
        raise ValueError(f"observed rows have {observed_cols} symbols but only "
                         f"{width} undetected columns remain")
    restricted = c1.symbols[:, keep]
    candidates = np.flatnonzero(typicality_mask(restricted, dist, epsilon, axis=1))
    if observed_cols == width:
        source_ids, ids = _column_ids(restricted[candidates].T, c2_rows.T)
        labels = source_ids.size + ids.size
        counts = np.bincount(source_ids, minlength=labels)[ids]
        first = np.zeros(labels, dtype=np.int64)
        first[source_ids] = np.arange(source_ids.size)  # valid where counts is 1
        first = first[ids]
    else:
        counts, first = _containment_counts(restricted[candidates], c2_rows)
    rows = np.full(count, -1, dtype=np.int64)
    one = counts == 1
    rows[one] = candidates[first[one]]
    return counts, rows


def match_all(c1: Database, c2_rows, detected, cfg: MatcherConfig,
              dist: Distribution):
    """match_counts' decisions as one MatchOutcome per observed row, at the
    slack cfg.epsilon; it remains only as the benchmark's per-row adapter.

    Returns (outcomes, matched) where outcomes[j] is the MatchOutcome for
    observed row j and matched maps observed row index -> c1 row index for
    the MATCHED outcomes (not necessarily injective).
    """
    counts, rows = match_counts(c1, c2_rows, detected, cfg.epsilon, dist)
    unmatched = (MatchOutcome(MatchStatus.NO_CANDIDATE), None,
                 MatchOutcome(MatchStatus.COLLISION))
    outcomes = [MatchOutcome(MatchStatus.MATCHED, row) if row >= 0
                else unmatched[min(count, 2)]
                for count, row in zip(counts.tolist(), rows.tolist())]
    hits = np.flatnonzero(rows >= 0)
    return outcomes, dict(zip(hits.tolist(), rows[hits].tolist()))


def count_mismatches(rows, perm, observed) -> int:
    """Observed rows not matched to their true source row.  rows[j] is the
    c1 row matched to the j-th observed row, or -1 (match_counts' rows);
    observed[j] is that row's c2 index, and perm maps c1 rows to c2 rows.
    Both must be integers; any other value (0.9, NaN) is a ValueError."""
    rows = _exact_cast(rows, np.int64, "matched rows")
    observed = _exact_cast(observed, np.int64, "observed rows")
    if rows.shape != observed.shape:
        raise ValueError(f"{rows.size} matched rows for {observed.size} observed rows")
    if rows.size and (rows.min() < -1 or rows.max() >= len(perm)):
        raise ValueError(f"matched rows must lie in [-1, {len(perm)})")
    hits = rows >= 0
    return observed.shape[0] - int(np.count_nonzero(perm[rows[hits]] == observed[hits]))
