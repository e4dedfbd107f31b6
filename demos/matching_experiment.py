"""
Row matching through the deletion channel
=========================================

Generate a database, delete a random set of columns from a shuffled copy,
and try to recover the row correspondence: a source row is accepted for an
observed row iff, after dropping the detected-deleted columns, it is weakly
typical and contains the observation as a subsequence, with no competing
candidate.

Equivalent CLI:  delmatch simulate-match --dist bern:0.5 --n 32 --rate 0.15 \
                     --delta 0.3 --alpha 0.5 --out match.csv
"""

import numpy as np

from delmatch import (Distribution, sample_database, apply_deletion_channel, match_counts,
                      count_mismatches, default_epsilon, run_simulate_match)

dist = Distribution.bernoulli(0.5)

# --- one experiment, inspected --------------------------------------------
n, m, delta, alpha = 32, 24, 0.3, 0.5
c1 = sample_database(dist, m, n, rng_seed=7)
exp = apply_deletion_channel(c1, delta, alpha, rng_seed=8)
print(f"m = {m} rows, n = {n} columns; {n - exp.retained_count} deleted, "
      f"{exp.detection.detected_count} of those detected")

counts, rows = match_counts(exp.c1, exp.c2.symbols, exp.detection.detected_indices,
                            default_epsilon(dist), dist)
# counts[j] typical rows contain observed row j; rows[j] is the unique one, or -1
no_candidate, matched, collision = np.bincount(np.minimum(counts, 2), minlength=3)
print(f"outcome counts: {matched} matched, {collision} collision, "
      f"{no_candidate} no candidate")
wrong = count_mismatches(rows, exp.labeling.perm, np.arange(m))
print(f"mismatch rate: {wrong / m:.4f}")
print()

# --- mismatch rate vs. column count -----------------------------------------
# Below the achievable-rate boundary the mismatch rate falls as n grows;
# each point pools 200 independent experiments.
for n_cols in (16, 24, 32):
    (point,) = run_simulate_match(dist=dist, n=(n_cols,), delta=0.3, trials=200,
                                  seed=2024, rate=0.15, alpha=0.5, threads=2)
    print(f"n = {n_cols:3d}  m = {round(2 ** (0.15 * n_cols)):3d}  "
          f"mismatch = {point.mismatch_rate:.4f} "
          f"(+/- {point.ci_half_width:.4f})")

print()

# --- and above the boundary matching collapses ------------------------------
# At R = 1.2 bits/column, m = round(2^(1.2 n)) dwarfs the m*n work guard;
# the runner switches to the exact closed-form collision mode.
(point,) = run_simulate_match(dist=dist, n=(32,), delta=0.3, trials=200, seed=2024,
                              rate=1.2, alpha=0.5, threads=2)
print(f"overloaded: R = 1.2, n = 32, m = {round(2 ** (1.2 * 32))} "
      f"-> mismatch = {point.mismatch_rate:.4f} ({point.mode} mode)")
