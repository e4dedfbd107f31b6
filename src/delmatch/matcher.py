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

from .model import Database, DeletionExperiment, Distribution, Labeling
from .infotheory import entropy


class MatchStatus(Enum):
    MATCHED = "matched"
    NO_CANDIDATE = "no_candidate"        # no row both typical and containing y
    COLLISION = "collision"              # two or more candidate rows
    ATYPICAL = "atypical"                # typicality failure of the true row
    THRESHOLD = "threshold"              # K or |I_A| below the configured gate


@dataclass(frozen=True)
class MatchOutcome:
    status: MatchStatus
    row: int = None  # c1 row index, only for MATCHED

    @property
    def is_match(self) -> bool:
        return self.status is MatchStatus.MATCHED


@dataclass(frozen=True)
class MatcherConfig:
    """Typicality slack plus the optional proof-style error gates.

    min_retained gates on the observed column count K, min_detected on the
    size of the detected-deletion set; both default to disabled.
    """

    epsilon: float
    min_retained: int = None
    min_detected: int = None

    def __post_init__(self):
        if self.epsilon < 0.0:
            raise ValueError("epsilon must be >= 0")


def default_epsilon(dist: Distribution) -> float:
    """Default typicality slack for experiments: a tenth of the entropy."""
    return 0.1 * entropy(dist)


def is_subsequence(y, x) -> bool:
    """True iff y embeds into x preserving order (greedy scan, O(|x|))."""
    it = iter(x)
    return all(sym in it for sym in y)


def _keep_mask(n: int, detected) -> np.ndarray:
    detected = np.asarray(list(detected), dtype=np.int64)
    if detected.size and (detected.min() < 0 or detected.max() >= n):
        raise ValueError("detected index out of range")
    keep = np.ones(n, dtype=bool)
    keep[detected] = False
    return keep


def _containment_mask(rows: np.ndarray, y: np.ndarray) -> np.ndarray:
    """For each row of a (m, L) matrix, whether y embeds into it in order."""
    m, width = rows.shape
    k = y.shape[0]
    if k == 0:
        return np.ones(m, dtype=bool)
    if k > width:
        return np.zeros(m, dtype=bool)
    progress = np.zeros(m, dtype=np.int64)
    for col in range(width):
        wanted = y[np.minimum(progress, k - 1)]
        progress += (progress < k) & (rows[:, col] == wanted)
    return progress >= k


def _typicality_mask(rows: np.ndarray, dist: Distribution, epsilon: float) -> np.ndarray:
    m, width = rows.shape
    if width == 0:
        return np.ones(m, dtype=bool)
    scores = dist.neg_log2()[rows].mean(axis=1)
    return np.abs(scores - entropy(dist)) <= epsilon


def _classify(candidates) -> MatchOutcome:
    """Outcome from the indices of the c1 rows that passed both tests."""
    if len(candidates) == 1:
        return MatchOutcome(MatchStatus.MATCHED, int(candidates[0]))
    if len(candidates) >= 2:
        return MatchOutcome(MatchStatus.COLLISION)
    return MatchOutcome(MatchStatus.NO_CANDIDATE)


def _row_keys(rows: np.ndarray) -> list:
    """The bytes of each row of a uint8 matrix, as hashable keys."""
    m, width = rows.shape
    if width == 0:
        return [b""] * m
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, width))).ravel().tolist()


def _equality_index(restricted: np.ndarray, typical: np.ndarray) -> dict:
    """Map the bytes of each typical restricted row to its c1 row indices."""
    keys = _row_keys(restricted)
    index = {}
    for i in np.flatnonzero(typical).tolist():
        index.setdefault(keys[i], []).append(i)
    return index


def match_row(y, c1: Database, detected, cfg: MatcherConfig,
              dist: Distribution) -> MatchOutcome:
    """Match one observed row y against every row of c1.

    detected is the set of column indices known to be deleted; candidate rows
    are judged on the remaining columns, at typicality length n - |detected|.
    """
    y = np.asarray(y, dtype=np.uint8).reshape(1, -1)
    outcomes, _ = match_all(c1, y, detected, cfg, dist)
    return outcomes[0]


def _threshold_gate(cfg: MatcherConfig, observed_cols: int, detected_count: int):
    if cfg.min_retained is not None and observed_cols < cfg.min_retained:
        return MatchOutcome(MatchStatus.THRESHOLD)
    if cfg.min_detected is not None and detected_count < cfg.min_detected:
        return MatchOutcome(MatchStatus.THRESHOLD)
    return None


def match_all(c1: Database, c2_rows, detected, cfg: MatcherConfig,
              dist: Distribution):
    """Match every observed row independently.

    Returns (outcomes, matched) where outcomes[j] is the MatchOutcome for
    observed row j and matched maps observed row index -> c1 row index for
    the MATCHED outcomes (not necessarily injective).

    When the observed rows are as wide as the undetected columns (no
    undetected deletion remains), containment is equality, and a hash join
    over the typical rows decides every row in O(m * width).
    """
    c2_rows = np.atleast_2d(np.asarray(c2_rows, dtype=np.uint8))
    keep = _keep_mask(c1.n, detected)
    width = int(keep.sum())
    observed_cols = c2_rows.shape[1]
    if observed_cols > width:
        raise ValueError(f"observed rows have {observed_cols} symbols but only "
                         f"{width} undetected columns remain")
    gate = _threshold_gate(cfg, observed_cols, c1.n - width)
    if gate is not None:
        outcomes = [gate] * c2_rows.shape[0]
        return outcomes, {}
    restricted = c1.symbols[:, keep]
    typical = _typicality_mask(restricted, dist, cfg.epsilon)
    if observed_cols == width:
        index = _equality_index(restricted, typical)
        outcomes = [_classify(index.get(key, ())) for key in _row_keys(c2_rows)]
    else:
        outcomes = []
        for y in c2_rows:
            candidates = typical & _containment_mask(restricted, y)
            outcomes.append(_classify(np.flatnonzero(candidates)))
    matched = {j: o.row for j, o in enumerate(outcomes) if o.is_match}
    return outcomes, matched


def match_experiment(exp: DeletionExperiment, cfg: MatcherConfig,
                     dist: Distribution):
    """match_all over a whole experiment, using its detected-deletion set."""
    return match_all(exp.c1, exp.c2.symbols, exp.detection.detected_indices,
                     cfg, dist)


def mismatch_rate(outcomes, true_labeling: Labeling) -> float:
    """Fraction of observed rows not matched to their true source row.

    Errors of any kind and wrong matches both count as mismatches.
    """
    if len(outcomes) == 0:
        raise ValueError("no outcomes to score")
    if len(outcomes) != true_labeling.m:
        raise ValueError("outcome count does not match labeling size")
    perm = true_labeling.perm
    wrong = sum(1 for j, o in enumerate(outcomes)
                if not (o.is_match and int(perm[o.row]) == j))
    return wrong / len(outcomes)
