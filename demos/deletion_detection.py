"""
Detecting deleted columns from matched seed rows
================================================

A batch of B correctly-matched row pairs does not reveal deletion locations
directly: many deletion patterns can explain the same shortened rows.  But
counting those patterns exactly gives per-column posteriors, and columns
whose posterior is exactly 0 or 1 are settled with certainty.

Equivalent CLI for the last table:
    delmatch simulate-detect --dist bern:0.5 --n 48 --B 6,10,14 --delta 0.4 \
        --trials 150 --seed 99
"""

import numpy as np

from delmatch import (Distribution, SeedBatch, sample_database,
                      apply_deletion_channel, extract_seed_batch,
                      count_embeddings, posterior_deletions, detect_f, detect_g,
                      verdicts_to_csv, min_seed_batch_size, run_simulate_detect)

# --- a tiny worked example -------------------------------------------------
# One seed row pair: the source row is (a, b, a) and the observed row is (a).
# Two columns were deleted, but which two?
d1 = np.array([[0, 1, 0]], dtype=np.uint8)
d2 = np.array([[0]], dtype=np.uint8)
batch = SeedBatch(d1, d2)

print("d1 row: (a, b, a)   observed: (a)")
print("consistent deletion patterns:", count_embeddings(d1, d2))
print("posterior deletion probability per column:",
      [str(p) for p in posterior_deletions(batch)])

# Column 2 (the 'b') is deleted in every consistent pattern: certainty.
# Columns 1 and 3 each survive in one pattern: inconclusive.
dist = Distribution.bernoulli(0.5)
print("certainty verdicts:  ",
      [v.value for v in detect_f(batch, dist, epsilon=0.1)])
print("presence-only verdicts:",
      [v.value for v in detect_g(batch, dist, epsilon=0.1)])
print()

# --- a realistic batch -----------------------------------------------------
n, m, B, delta = 48, 200, 12, 0.4
c1 = sample_database(dist, m, n, rng_seed=101)
exp = apply_deletion_channel(c1, delta, alpha=0.0, rng_seed=102)
seeds = extract_seed_batch(exp, B, rng_seed=103)

verdicts = detect_f(seeds, dist, epsilon=0.1)
flagged = [j for j, v in enumerate(verdicts) if v.value == "deleted"]
truly = set(np.flatnonzero(exp.deletion.flags).tolist())
print(f"n = {n}, B = {B}, delta = {delta}: "
      f"{len(truly)} columns deleted, {len(flagged)} flagged with certainty")
print("flagged subset of truth:", set(flagged) <= truly)
print()
print("verdict CSV, first lines:")
print("\n".join(verdicts_to_csv(verdicts,
                                posterior_deletions(seeds)).splitlines()[:5]))
print()

# --- how large must the batch be? -------------------------------------------
h = dist.entropy
for target in (0.5, 0.9, 0.99):
    b_needed = min_seed_batch_size(n, delta, target, h)
    print(f"detection probability >= {target}: batch size B >= {b_needed}")
print()

# --- empirical detection probability vs. the analytic lower bound -----------
# One simulate-detect sweep: 150 trials per batch size, detector slack 0.05.
for p in run_simulate_detect(dist=dist, n=(n,), delta=delta, trials=150, seed=99,
                             B=(6, 10, 14)):
    print(f"B = {p.B:2d}: empirical {p.empirical_alpha:.4f} "
          f"[{p.ci_low:.4f}, {p.ci_high:.4f}]  bound {p.bound:+.4f}")
