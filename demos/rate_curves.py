"""
Achievable growth rates under column deletion
=============================================

How large can a database grow (rows vs. columns, R = log2(m)/n) while row
matching across a column-deleted copy stays reliable?  The answer depends on
the entry distribution, the deletion probability delta, and how much deletion
location information (alpha) is available.

Equivalent CLI:  delmatch rates --dist bern:0.5 --out rates.csv
"""

import numpy as np

from delmatch import Distribution, achievable_rate, regime_ok

dist = Distribution.bernoulli(0.5)
deltas = np.linspace(0.0, 0.95, 96)
alphas = [0.0, 0.25, 0.5, 0.75, 1.0]

# One curve per side-information level.  alpha = 1 is the erasure-like case
# (every deleted column is known); alpha = 0 is the blind deletion case.
curves = {a: [achievable_rate(dist, float(d), a) for d in deltas]
          for a in alphas}

print(f"entropy H(X) = {dist.entropy:.6f} bits/column\n")
print("delta   " + "  ".join(f"a={a:4.2f}" for a in alphas))
for i in range(0, len(deltas), 8):
    row = "  ".join(f"{curves[a][i]:6.4f}" for a in alphas)
    flag = "" if regime_ok(dist, float(deltas[i])) else "  *"
    print(f"{deltas[i]:5.3f}  {row}{flag}")
print("(* delta >= 1 - 1/q: the guarantee regime ends; the formula is still")
print("   evaluated, and the rates command marks such rows regime_ok=false)")

# The striking part: at delta = 0.4 the fully-informed rate is ~20x the
# uninformed one, so even partial deletion detection is extremely valuable.
full = achievable_rate(dist, 0.4, 1.0)
none = achievable_rate(dist, 0.4, 0.0)
print(f"\nat delta = 0.4:  R(alpha=1) = {full:.6f}, R(alpha=0) = {none:.6f}, "
      f"ratio = {full / none:.1f}")

# Optional plot (the library itself only emits CSV; plotting is demo-only).
try:
    import matplotlib

    matplotlib.use("Agg")
    import matplotlib.pyplot as plt

    for a in alphas:
        plt.plot(deltas, curves[a], label=f"alpha = {a}")
    plt.xlabel("deletion probability delta")
    plt.ylabel("achievable growth rate R (bits/column)")
    plt.title("Binary uniform entries")
    plt.legend()
    plt.savefig("rate_curves.png", dpi=120)
    print("\nsaved rate_curves.png")
except ImportError:
    print("\nmatplotlib not installed; skipped the plot")
