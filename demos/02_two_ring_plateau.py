"""Solving the two-ring problem: which surfaces span a pair of circles?

Given circles of radius r at height a and radius R at height b, a spacelike
rotational CMC surface spanning both exists exactly when |a-b|/(R-r) < 1.
For each admissible mean curvature H there is then a unique profile, found
by shooting on the conserved constant c: the outer height f(R; H, c) is
strictly decreasing in c, so a search kept inside a sign-change bracket
cannot miss.

The threshold H0 (the curvature of the hyperbolic cap through both rings)
organizes the solutions: below it c < 0 and the profile rises monotonically,
at it the cap itself appears, above it c > 0 and the profile dips below the
boundary planes.
"""

import numpy as np

from lorentz_cmc import (
    NotSpacelikeSolvable,
    RingPair,
    solve_two_ring,
    threshold_H0,
    validate_rings,
)

r, R, a, b = 1.0, 2.0, 0.0, 0.5
rings = validate_rings(RingPair(r=r, R=R, a=a, b=b))
h0 = threshold_H0(rings)
print(f"rings: radius {r} at height {a}, radius {R} at height {b}")
print(f"slope bound |a-b|/(R-r) = {rings.slope_bound}  (< 1, admissible)")
print(f"cap threshold H0 = {h0:.9f}")
print()

print(f"  {'H':>8}  {'c':>12}  {'regime':<16}  {'residual':>9}  profile on [r, R]")
for H in (0.0, 0.5 * h0, h0, 2.0 * h0, 2.0):
    sol = solve_two_ring(r, R, a, b, H)
    ts = np.linspace(r, R, 101)
    hs = sol.curve.heights(ts)
    if np.all(np.diff(hs) > 0):
        shape = "strictly rising"
    elif hs.min() < min(a, b):
        shape = f"dips to {hs.min():+.4f} below both planes"
    else:
        shape = "non-monotone inside the slab"
    print(f"  {H:8.4f}  {sol.c:+12.8f}  {sol.regime.value:<16}  "
          f"{sol.residual:9.2e}  {shape}")

print()
print("steeper data than the light cone allows is rejected:")
try:
    solve_two_ring(1.0, 2.0, 0.0, 1.25, 1.0)
except NotSpacelikeSolvable as exc:
    print(f"  NotSpacelikeSolvable: {exc}")

print()
print("descending data is solved through the mirror symmetry:")
sol = solve_two_ring(1.0, 2.0, 0.5, 0.0, 1.0)
print(f"  b < a:  c = {sol.c:+.8f}  parity {sol.curve.parity:+d}  "
      f"f(r) = {sol.curve.height(1.0):+.4f}  f(R) = {sol.curve.height(2.0):+.4f}")
