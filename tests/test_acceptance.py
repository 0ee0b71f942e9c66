"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test prints a single ``ACCEPTANCE <id> PASS`` line on success so a
verbose run doubles as a checklist.  Run with::

    pytest tests/test_acceptance.py -v -s
"""

import math
from unittest import mock

import numpy as np
import pytest

from lorentz_cmc import (
    GraphPatch,
    NotSpacelikeSolvable,
    RingPair,
    SurfaceParams,
    core,
    flux_closed_form,
    flux_numeric,
    height,
    heights,
    mean_curvature_graph,
    mean_curvature_rotational,
    profile_curve,
    slope,
    solve_two_ring,
    threshold_H0,
    validate_rings,
    variational_residual,
)
from lorentz_cmc.cli import main as cli_main


def curve_of(H, c, r=1.0, a=0.0, **kw):
    return profile_curve(SurfaceParams(H, c), (r, a), **kw)


def test_criterion_1_closed_form_agreement():
    """Quadrature heights match the arcsinh and hyperbolic closed forms to
    1e-8 over 200 log-spaced radii in [1e-3, 1e3]."""
    ts = np.geomspace(1e-3, 1e3, 200)
    worst = 0.0
    for H, c in [(0.0, 3.0), (0.0, -3.0), (1.0, 0.0), (0.5, 0.0)]:
        curve = curve_of(H, c)
        closed = heights(curve, ts)
        with mock.patch.object(core, "_closed_form", lambda *args: None):
            quad = heights(curve, ts)
        worst = max(worst, float(np.max(np.abs(quad - closed))))
    assert worst <= 1e-8
    print(f"ACCEPTANCE 1 PASS: quadrature vs closed forms, max |gap| = {worst:.3e}")


def test_criterion_2_first_integral_conservation():
    """Finite-difference residual of the conservation law stays below 1e-5
    at 20 radii for 50 random parameter pairs in [0,10] x [-10,10]."""
    rng = np.random.default_rng(2025)
    worst = 0.0
    for _ in range(50):
        H = rng.uniform(0.0, 10.0)
        c = rng.uniform(-10.0, 10.0)
        curve = curve_of(H, c, quad_tol=1e-12)
        for t in np.geomspace(0.5, 2.0, 20):
            from lorentz_cmc import first_integral_residual
            res = abs(first_integral_residual(float(t), curve,
                                              fd_step=1e-4 * max(1.0, float(t))))
            worst = max(worst, res)
            assert res <= 1e-5
    print(f"ACCEPTANCE 2 PASS: conservation-law residual, worst = {worst:.3e}")


def test_criterion_3_solvability_gate():
    """Solving succeeds for 100 random admissible ring pairs and raises
    NotSpacelikeSolvable for 100 random inadmissible ones; zero
    misclassifications either way."""
    rng = np.random.default_rng(4242)
    solved = 0
    for i in range(100):
        r = rng.uniform(0.2, 3.0)
        width = rng.uniform(0.1, 4.0)
        a = rng.uniform(-2.0, 2.0)
        s = rng.uniform(-0.98, 0.98)
        H = rng.uniform(0.0, 3.0)
        sol = solve_two_ring(r, r + width, a, a + s * width, H)
        assert sol.residual <= 1e-9
        solved += 1

    rejected = 0
    for i in range(100):
        r = rng.uniform(0.2, 3.0)
        width = rng.uniform(0.1, 4.0)
        a = rng.uniform(-2.0, 2.0)
        s = 1.0 if i < 2 else rng.uniform(1.0, 3.0)
        s *= rng.choice([-1.0, 1.0])
        H = rng.uniform(0.0, 3.0)
        with pytest.raises(NotSpacelikeSolvable):
            solve_two_ring(r, r + width, a, a + s * width, H)
        rejected += 1

    assert solved == 100 and rejected == 100
    print("ACCEPTANCE 3 PASS: 100/100 admissible solved, 100/100 inadmissible rejected")


def test_criterion_4_threshold_trichotomy():
    """H0 for rings (1,2,0,0.5) matches the closed formula to 1e-9 and the
    solved c changes sign across it as {negative, zero, positive}."""
    rings = validate_rings(RingPair(r=1.0, R=2.0, a=0.0, b=0.5))
    h0 = threshold_H0(rings)
    assert abs(h0 - 1.0 / math.sqrt(6.5625)) <= 1e-9

    c_low = solve_two_ring(1.0, 2.0, 0.0, 0.5, 0.2).c
    c_mid = solve_two_ring(1.0, 2.0, 0.0, 0.5, h0).c
    c_high = solve_two_ring(1.0, 2.0, 0.0, 0.5, 0.8).c
    assert c_low < -1e-6
    assert c_mid == 0.0
    assert c_high > 1e-6
    print(f"ACCEPTANCE 4 PASS: H0 = {h0:.9f}; c(0.2) = {c_low:.6f} < 0, "
          f"c(H0) = {c_mid}, c(0.8) = {c_high:.6f} > 0")


def test_criterion_5_conical_slope_limits():
    """Near the axis the slope reaches the light-cone limits: -sign(c)
    within 1e-6 at t = 1e-8 for c = +/-3 and H in {0, 1}; 0 for c = 0."""
    for H in (0.0, 1.0):
        for c in (3.0, -3.0):
            s = slope(1e-8, SurfaceParams(H, c))
            assert abs(s - (-math.copysign(1.0, c))) <= 1e-6
    assert abs(slope(1e-8, SurfaceParams(1.0, 0.0))) <= 1e-6
    print("ACCEPTANCE 5 PASS: slope(1e-8) within 1e-6 of the conical limits")


def test_criterion_6_light_cone_asymptotics():
    """f(T)/T at T = 1e6 is within 1e-3 of 1 for H = 1 and of 0 for H = 0
    (the maximal branch only grows logarithmically)."""
    T = 1e6
    est_pos = height(T, curve_of(1.0, 3.0)) / T
    assert abs(est_pos - 1.0) <= 1e-3

    est_max = height(T, curve_of(0.0, 3.0)) / T
    assert abs(est_max) <= 1e-3
    log_margin = 3.0 * math.log(2.0 * T / 3.0) / T
    assert abs(est_max) <= 2.0 * log_margin
    print(f"ACCEPTANCE 6 PASS: f(T)/T = {est_pos:.6f} (H=1), {est_max:.2e} (H=0, "
          f"log-growth margin {log_margin:.2e})")


def test_criterion_7_flux():
    """Closed-form and numeric fluxes agree to 1e-8, are radius-independent
    across r in {0.5, 1, 2, 5} to 1e-8, and Flux = 2 pi c is pinned at
    18.849556 for (H, c, r) = (1, 3, 2)."""
    curve = curve_of(1.0, 3.0)
    fluxes = []
    for r in (0.5, 1.0, 2.0, 5.0):
        got = flux_numeric(r, curve)
        ref = flux_closed_form(r, SurfaceParams(1.0, 3.0))
        assert abs(got.flux - ref.flux) <= 1e-8
        assert abs(got.conormal_term - ref.conormal_term) <= 1e-8
        fluxes.append(got.flux)
    for f in fluxes[1:]:
        assert abs(f - fluxes[0]) <= 1e-8
    pinned = flux_numeric(2.0, curve).flux
    assert abs(pinned - 18.849555921538759) <= 1e-6
    print(f"ACCEPTANCE 7 PASS: flux = {pinned:.9f} = 2*pi*3, radius-independent")


def test_criterion_8_oracle_closure():
    """The graph oracle on the rotated hyperbolic cap (h = 1/128) recovers
    H = 1 within 1e-3, and the rotational oracle recovers H within 1e-5 on
    solved profiles."""
    h = 1.0 / 128.0
    n = int(round(2.0 / h)) + 1
    xs = np.linspace(-1.0, 1.0, n)
    X1, X2 = np.meshgrid(xs, xs, indexing="ij")
    cap = GraphPatch(x1=xs, x2=xs, values=np.sqrt(1.0 + X1**2 + X2**2) - math.sqrt(2.0),
                     mask=np.ones(X1.shape, dtype=bool))
    for mode in ("nondivergence", "divergence"):
        report = mean_curvature_graph(cap, mode=mode)
        assert 1.0 - 1e-3 <= report.H_mean <= 1.0 + 1e-3

    rings = validate_rings(RingPair(r=1.0, R=2.0, a=0.0, b=0.5))
    worst = 0.0
    for H in (0.2, threshold_H0(rings), 0.8, 2.0):
        sol = solve_two_ring(1.0, 2.0, 0.0, 0.5, H)
        for t in np.geomspace(1.05, 1.95, 20):
            est = mean_curvature_rotational(float(t), sol.curve,
                                            fd_step=1e-4 * max(1.0, float(t)))
            worst = max(worst, abs(est - H))
            assert abs(est - H) <= 1e-5
    print(f"ACCEPTANCE 8 PASS: graph oracle within 1e-3, rotational oracle "
          f"worst |dH| = {worst:.2e}")


def test_criterion_9_variational_criticality():
    """The Beltrami constant recovered from inverse-profile samples equals
    2c within 1e-5 on monotone windows for 10 random curves, and its
    deviation drops fourfold when the sample count doubles."""
    rng = np.random.default_rng(7)
    worst = 0.0
    worst_ratio = math.inf
    for i in range(10):
        if i < 2:
            H = 0.0
            c = (1.0 if i == 0 else -1.0) * rng.uniform(0.5, 4.0)
        else:
            H = rng.uniform(0.2, 2.0)
            c = float(rng.choice([-1.0, 1.0])) * rng.uniform(0.5, 4.0)
        curve = curve_of(H, c, quad_tol=1e-12)
        if H > 0.0 and c > 0.0:
            star = math.sqrt(c / H)
            window = (1.2 * star, 2.2 * star)
        else:
            window = (0.6, 1.8)
        check = variational_residual(curve, window, n=2001)
        err = abs(check.kappa_mean - 2.0 * c)
        worst = max(worst, err)
        assert err <= 1e-5
        dev_half = variational_residual(curve, window, n=500).max_deviation
        dev_full = variational_residual(curve, window, n=1000).max_deviation
        ratio = dev_half / dev_full
        worst_ratio = min(worst_ratio, ratio)
        assert 3.0 <= ratio <= 5.0  # fourfold per doubling: second order
    print(f"ACCEPTANCE 9 PASS: kappa-recovery worst |err| = {worst:.2e}, "
          f"halving ratio >= {worst_ratio:.2f}")


def test_criterion_10_figure_reproduction(tmp_path, capsys):
    """The figure gallery reproduces the catalogued profiles: figure 1
    reaches |f(7)| = 3.76815 +/- 1e-4 on the maximal branch and matches its
    closed form row-by-row; figures 3/4 share the convex profile with its
    interior minimum at sqrt(3) +/- 1e-6 dipping below the anchor plane."""
    for fid in (1, 2, 3, 4):
        assert cli_main(["figure", str(fid), "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()

    def rows(fid):
        lines = (tmp_path / f"figure{fid}_profile.csv").read_text().strip().splitlines()
        return np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])

    # figure 1: maximal profile f(t; 0, 3), f(1) = 0, on [0, 7]
    body = rows(1)
    f7 = body[-1, 1]
    assert body[-1, 0] == 7.0
    # the conserved-quantity convention makes the c = +3 branch the falling
    # one; the catalogued magnitude is reproduced exactly
    assert abs(abs(f7) - 3.76815) <= 1e-4
    pos = body[:, 0] > 0.0
    closed = -3.0 * (np.arcsinh(body[pos, 0] / 3.0) - np.arcsinh(1.0 / 3.0))
    assert np.max(np.abs(body[pos, 1] - closed)) <= 1e-9

    # figure 2: quadrature profile f(t; 1/10, -1/4), f(1) = 0, on [0, 4]
    body2 = rows(2)
    curve2 = curve_of(0.1, -0.25)
    pos2 = body2[:, 0] > 0.0
    ref2 = heights(curve2, body2[pos2, 0])
    assert np.max(np.abs(body2[pos2, 1] - ref2)) <= 1e-9

    # figures 3 and 4: f(t; 1, 3), f(1) = 0, windows [1, 4] and [0, 4]
    curve34 = curve_of(1.0, 3.0)
    lo, hi = 1.0, 4.0
    for _ in range(80):  # bisect the slope sign change
        mid = 0.5 * (lo + hi)
        if curve34.slope(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    t_min = 0.5 * (lo + hi)
    assert abs(t_min - math.sqrt(3.0)) <= 1e-6
    assert height(1.0, curve34) == 0.0
    assert height(math.sqrt(3.0), curve34) < 0.0

    body3, body4 = rows(3), rows(4)
    shared3 = {t: f for t, f, *_ in body3}
    matches = [(t, f) for t, f, *_ in body4 if t in shared3]
    assert len(matches) >= 2
    for t, f in matches:
        assert abs(f - shared3[t]) <= 1e-10

    print(f"ACCEPTANCE 10 PASS: |f(7; 0, 3)| = {abs(f7):.5f}, interior minimum "
          f"at t = {t_min:.8f} with f(sqrt(3)) = {height(t_min, curve34):.4f} < 0")
