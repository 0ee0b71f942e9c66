"""The solved profile maximises the area functional: an oracle for the
two-ring Plateau problem that never uses the first integral.

A spacelike graph u over the annulus r <= |x| <= R has the functional

    J(u) = integral of (sqrt(1 - |Du|^2) - 2 H u) dx,

whose Euler-Lagrange equation div(Du / sqrt(1 - |Du|^2)) = 2 H says that
u has mean curvature H.  J is strictly concave on |Du| < 1, so the solution
of ``solve_two_ring`` is the unique maximiser of J among spacelike graphs
with its boundary values.  Here u is the solved curve's ``heights`` (Du by
fourth-order central differences of them), H is the curve's oriented ``mean_curvature``,
and the trial graphs are u + eps phi(rho) cos(m theta) with
phi = ((rho - r)(R - rho))^2 / ((R - r)/2)^4, which vanishes on both rings.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lorentz_cmc import RingPair, solve_two_ring, threshold_H0, validate_rings

QUAD_TOL = 1e-13  # the heights' tolerance, so that differencing them stays sharp
NODES, WEIGHTS = np.polynomial.legendre.leggauss(400)
ANGLES = 2.0 * np.pi * np.arange(64) / 64


def _gaps(curve, r, R, H):
    """(J(u + eps v) - J(u)) / eps^2 for v = phi cos(m theta), m = 0..3 and
    eps = +-e, +-e/100, +-e/10^4, where e <= 1e-2 keeps |Du + eps Dv| below half the
    spacelike margin 1 - max |Du|.

    The difference is taken term by term (the -2 H u parts cancel but for
    -2 H eps v), so that no J of size |annulus| is subtracted from another.
    """
    rho = 0.5 * (R - r) * NODES + 0.5 * (R + r)
    w = 0.5 * (R - r) * WEIGHTS * rho * (2.0 * np.pi / len(ANGLES))  # dx = rho drho dtheta
    # fourth-order central differences: the slope turns within about 1/H
    # where a profile dips, and a second-order stencil blurs it there
    step = 1e-4 * (R - r)
    up, down, up2, down2 = (curve.heights(rho + s) for s in (step, -step, 2 * step, -2 * step))
    du = (8.0 * (up - down) - (up2 - down2)) / (12.0 * step)
    scale = ((R - r) / 2.0) ** 4
    phi = ((rho - r) * (R - rho)) ** 2 / scale
    dphi = 2.0 * (rho - r) * (R - rho) * (R + r - 2.0 * rho) / scale
    s0 = np.sqrt((1.0 - du) * (1.0 + du))[:, None]
    gaps = []
    for m in range(4):
        cos, sin = np.cos(m * ANGLES), np.sin(m * ANGLES)
        e = min(1e-2, 0.5 * (1.0 - np.max(np.abs(du))) / np.max(np.abs(dphi) + m * phi / rho))
        for eps in (e, -e, 1e-2 * e, -1e-2 * e, 1e-4 * e, -1e-4 * e):
            # |Du + eps Dv|^2 - |Du|^2, Dv = (phi' cos, -m phi sin / rho)
            lift = (2.0 * eps * (du * dphi)[:, None] * cos
                    + eps * eps * ((dphi[:, None] * cos) ** 2
                                   + (m * (phi / rho)[:, None] * sin) ** 2))
            s1 = np.sqrt(s0 * s0 - lift)
            gap = np.sum(w[:, None] * (-lift / (s0 + s1) - 2.0 * H * eps * phi[:, None] * cos))
            gaps.append(gap / (eps * eps))
    return gaps


def _solve(r, R, a, b, H):
    # QUAD_TOL in the ring unit min(1, 2^e), R in [2^(e-1), 2^e), as the solver scales its own
    curve = dataclasses.replace(solve_two_ring(r, R, a, b, H).curve,
                                quad_tol=math.ldexp(QUAD_TOL, min(0, math.frexp(R)[1])))
    # the trial graphs share u's boundary values, so u must take the rings'
    np.testing.assert_allclose(curve.heights([r, R]), [a, b], rtol=0.0,
                               atol=1e-9 * max(1.0, R))
    return curve


@settings(max_examples=60, deadline=None)
@given(log_r=st.floats(-1.0, 1.0), log_ratio=st.floats(0.02, 2.0), k=st.floats(0.0, 0.9),
       regime=st.sampled_from(["H=0", "H<H0", "H=H0", "H>H0"]), h=st.floats(0.05, 0.95),
       descending=st.booleans())
@example(log_r=0.0, log_ratio=math.log10(2.0), k=0.5, regime="H=H0", h=0.5, descending=False)
# flat rings and H > 0: the profile dips below both rings inside (r, R)
@example(log_r=0.0, log_ratio=math.log10(3.0), k=0.0, regime="H>H0", h=0.5, descending=True)
def test_solution_maximises_the_area_functional(log_r, log_ratio, k, regime, h, descending):
    r = 10.0 ** log_r
    R = r * 10.0 ** log_ratio
    d = k * (R - r)
    a, b = (d, 0.0) if descending else (0.0, d)
    H0 = threshold_H0(validate_rings(RingPair(r, R, a, b)))
    H = {"H=0": 0.0, "H<H0": h * H0, "H=H0": H0,
         "H>H0": max(H0, 1.0 / R) * (1.05 + 20.0 * h)}[regime]
    curve = _solve(r, R, a, b, H)
    assert max(_gaps(curve, r, R, curve.mean_curvature)) < 0.0


def test_flat_rings_dip_inside_the_annulus():
    # the @example above with a dip: the profile's lowest point is inside (r, R)
    curve = _solve(1.0, 3.0, 0.0, 0.0, 11.05 / 3.0)
    kink = math.sqrt(curve.params.c / curve.params.H)
    assert 1.0 < kink < 3.0


@pytest.mark.parametrize("case", [(1.0, 2.0, 0.0, 0.5, 1.0), (1.0, 2.0, 0.0, 0.5, 0.2),
                                  (1.0, 3.0, 0.0, 0.2, 2.0), (1.0, 2.0, 0.5, 0.0, 1.0)])
@pytest.mark.parametrize("fault", [lambda H: 1.001 * H, lambda H: -H], ids=["1.001H", "-H"])
def test_a_wrong_mean_curvature_is_caught(case, fault):
    r, R = case[:2]
    curve = _solve(*case)
    assert max(_gaps(curve, r, R, curve.mean_curvature)) < 0.0
    assert max(_gaps(curve, r, R, fault(curve.mean_curvature))) > 0.0
