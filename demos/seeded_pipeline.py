"""
End to end: seed rows to deletion side information to matching
==============================================================

In practice nobody hands out the deletion detection probability alpha; what
one may have is a handful of already-matched rows ("seeds").  The pipeline
turns seeds into certainty verdicts, feeds the certainly-deleted set to the
matcher as side information, and matches everything else.

Equivalent CLI:  delmatch pipeline --dist bern:0.5 --n 32 --m 48 \
                     --delta 0.3 --B 0,4,8,16 --out pipeline.csv
"""

from delmatch import Distribution, run_pipeline

dist = Distribution.bernoulli(0.5)

points = run_pipeline(dist=dist, n=(32,), delta=0.3, trials=150, seed=515, m=48,
                      B=(0, 4, 8, 16), threads=2)

print("seeds  detected-deletions  mismatch-rate")
for p in points:
    print(f"B={p.B:3d}   {p.detected_fraction:8.4f}          "
          f"{p.mismatch_rate:.4f} (+/- {p.ci_half_width:.4f})")

# With no seeds the matcher works blind (B = 0 reduces exactly to the
# alpha = 0 experiment).  A modest batch already pins down most deleted
# columns exactly, and the mismatch rate drops accordingly.
