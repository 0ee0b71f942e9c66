import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from lorentz_cmc import (
    LorentzCMCError,
    OrientationError,
    PlateauProblem,
    Regime,
    RingPair,
    RootBracketFailure,
    SurfaceParams,
    ValidatedRingPair,
    canonicalize,
    classify,
    classify_params,
    closed_form_hyperbolic,
    height,
    solve_c,
    solve_two_ring,
    threshold_H0,
    validate_rings,
)
from lorentz_cmc.bvp import DEFAULT_C_TOL, DEFAULT_ROOT_TOL, _outer_height
from lorentz_cmc.profile import DEFAULT_QUAD_TOL


RINGS = validate_rings(RingPair(r=1.0, R=2.0, a=0.0, b=0.5))
H0_RINGS = 1.0 / math.sqrt(6.5625)  # hand-reduced threshold formula for RINGS


class TestThreshold:
    def test_reference_value(self):
        assert threshold_H0(RINGS) == pytest.approx(H0_RINGS, abs=1e-15)

    def test_tiny_rings_do_not_underflow(self):
        # the squared lengths underflowed to 0 below about 1e-108
        unit = threshold_H0(validate_rings(RingPair(r=1.0, R=2.0, a=0.0, b=0.5)))
        tiny = threshold_H0(validate_rings(RingPair(r=1e-110, R=2e-110, a=0.0, b=5e-111)))
        assert tiny == pytest.approx(unit * 1e110, rel=1e-14)

    def test_zero_iff_flat(self):
        flat = validate_rings(RingPair(r=1.0, R=2.0, a=0.3, b=0.3))
        assert threshold_H0(flat) == 0.0
        assert threshold_H0(RINGS) > 0.0

    def test_orientation_required(self):
        down = validate_rings(RingPair(r=1.0, R=2.0, a=0.5, b=0.0))
        with pytest.raises(OrientationError):
            threshold_H0(down)

    def test_cap_through_both_rings_has_curvature_H0(self):
        # the hyperbolic cap anchored at (r, a) with H = H0 hits (R, b)
        h0 = threshold_H0(RINGS)
        assert closed_form_hyperbolic(RINGS.R, h0, (RINGS.r, RINGS.a)) == pytest.approx(
            RINGS.b, abs=1e-12
        )

    def test_cap_roundtrip_random_rings(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            r = rng.uniform(0.2, 2.0)
            R = r + rng.uniform(0.2, 3.0)
            a = rng.uniform(-1.0, 1.0)
            H = rng.uniform(0.05, 3.0)
            b = closed_form_hyperbolic(R, H, (r, a))
            rings = validate_rings(RingPair(r=r, R=R, a=a, b=b))
            assert threshold_H0(rings) == pytest.approx(H, rel=1e-12)


class TestClassifyPredictive:
    def test_threshold_trichotomy(self):
        assert classify(0.5 * H0_RINGS, RINGS) is Regime.NEGATIVE_C
        assert classify(threshold_H0(RINGS), RINGS) is Regime.HYPERBOLIC_CAP
        assert classify(2.0 * H0_RINGS, RINGS) is Regime.POSITIVE_C

    def test_flat_data(self):
        flat = validate_rings(RingPair(r=1.0, R=2.0, a=0.0, b=0.0))
        assert classify(0.0, flat) is Regime.PLANE
        assert classify(1.0, flat) is Regime.POSITIVE_C

    def test_maximal(self):
        assert classify(0.0, RINGS) is Regime.MAXIMAL_CATENOID

    def test_orientation_and_sign_checks(self):
        down = validate_rings(RingPair(r=1.0, R=2.0, a=0.5, b=0.0))
        with pytest.raises(OrientationError):
            classify(1.0, down)
        with pytest.raises(ValueError):
            classify(-1.0, RINGS)


class TestSolve:
    def test_cap_is_its_own_solution(self):
        b = closed_form_hyperbolic(2.0, 1.0, (1.0, 0.0))
        sol = solve_two_ring(1.0, 2.0, 0.0, b, 1.0)
        assert sol.c == 0.0
        assert sol.regime is Regime.HYPERBOLIC_CAP
        assert sol.residual <= 1e-9

    def test_flat_boundary_with_positive_H_dips_below(self):
        sol = solve_two_ring(1.0, 2.0, 0.0, 0.0, 1.0)
        assert sol.c > 0.0
        star = math.sqrt(sol.c)
        assert 1.0 < star < 2.0
        assert height(star, sol.curve) < 0.0

    def test_low_H_gives_negative_c_and_monotone_profile(self):
        sol = solve_two_ring(1.0, 2.0, 0.0, 0.5, 0.1)
        assert 0.1 < H0_RINGS
        assert sol.c < 0.0
        ts = np.linspace(1.0, 2.0, 50)
        hs = sol.curve.heights(ts)
        assert np.all(np.diff(hs) > 0.0)

    def test_trichotomy_against_threshold(self):
        h0 = threshold_H0(RINGS)
        c_low = solve_two_ring(1.0, 2.0, 0.0, 0.5, 0.5 * h0).c
        c_mid = solve_two_ring(1.0, 2.0, 0.0, 0.5, h0).c
        c_high = solve_two_ring(1.0, 2.0, 0.0, 0.5, 2.0 * h0).c
        assert c_low < -1e-6
        assert c_mid == 0.0
        assert c_high > 1e-6

    def test_plane_for_flat_data_at_zero_H(self):
        sol = solve_two_ring(1.0, 2.0, 0.25, 0.25, 0.0)
        assert sol.c == 0.0
        assert sol.regime is Regime.PLANE
        assert height(1.7, sol.curve) == 0.25

    def test_maximal_branch_for_rising_data(self):
        sol = solve_two_ring(1.0, 2.0, 0.0, 0.5, 0.0)
        assert sol.regime is Regime.MAXIMAL_CATENOID
        assert sol.c < 0.0

    def test_round_trip_boundary_values(self):
        for H in (0.0, 0.2, 0.8, 2.5):
            sol = solve_two_ring(1.0, 2.0, -0.3, 0.4, H)
            assert height(1.0, sol.curve) == -0.3
            assert abs(height(2.0, sol.curve) - 0.4) <= 1e-9

    def test_descending_data_solved_by_reflection(self):
        up = solve_two_ring(1.0, 2.0, 0.0, 0.5, 1.0)
        down = solve_two_ring(1.0, 2.0, 0.5, 0.0, 1.0)
        assert down.curve.parity == -1
        assert down.c == pytest.approx(up.c, abs=1e-9)
        assert down.H0 == up.H0  # threshold of the ascending orientation
        assert height(1.0, down.curve) == 0.5
        assert abs(height(2.0, down.curve) - 0.0) <= 1e-9
        # mirror images: heights reflect through the midline constant shift
        for t in (1.2, 1.6, 1.9):
            assert height(t, down.curve) == pytest.approx(
                0.5 - height(t, up.curve), abs=1e-9
            )

    def test_descending_maximal_branch(self):
        sol = solve_two_ring(1.0, 2.0, 0.5, 0.0, 0.0)
        assert sol.regime is Regime.MAXIMAL_CATENOID
        assert sol.curve.parity == 1  # H = 0 mirrors inside the same family
        assert sol.c > 0.0  # falling branch
        assert abs(height(2.0, sol.curve)) <= 1e-9

    def test_near_critical_slope_bound_still_solves(self):
        # boundary data just inside the light-cone gate
        for H in (0.0, 0.3, 2.0):
            sol = solve_two_ring(1.0, 2.0, 0.0, 0.9999, H)
            assert sol.residual <= 1e-9
            assert abs(height(2.0, sol.curve) - 0.9999) <= 1e-9

    def test_solution_matches_predictive_classification(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            r = rng.uniform(0.3, 2.0)
            R = r + rng.uniform(0.3, 3.0)
            a = rng.uniform(-1.0, 1.0)
            b = a + rng.uniform(0.0, 0.95) * (R - r)
            H = rng.uniform(0.0, 2.0)
            rings = validate_rings(RingPair(r=r, R=R, a=a, b=b))
            sol = solve_c(PlateauProblem(rings=rings, H=H))
            assert sol.regime is classify(H, rings)

    def test_round_trip_random_orientations(self):
        # both rising and falling boundary data hit their targets
        rng = np.random.default_rng(23)
        for _ in range(20):
            r = rng.uniform(0.3, 2.0)
            R = r + rng.uniform(0.3, 3.0)
            a = rng.uniform(-1.0, 1.0)
            b = a + rng.uniform(-0.9, 0.9) * (R - r)
            H = rng.uniform(0.0, 2.0)
            sol = solve_two_ring(r, R, a, b, H)
            assert height(r, sol.curve) == a
            assert abs(height(R, sol.curve) - b) <= 1e-9
            assert abs(sol.curve.mean_curvature) == pytest.approx(H, abs=0.0)

    def test_problem_requires_validated_rings_and_canonical_H(self):
        with pytest.raises(TypeError):
            PlateauProblem(rings=RingPair(1.0, 2.0, 0.0, 0.5), H=1.0)
        with pytest.raises(ValueError):
            PlateauProblem(rings=RINGS, H=-1.0)

    @pytest.mark.parametrize("name", ["root_tol", "c_tol", "quad_tol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1e-9])
    def test_problem_rejects_bad_tolerance(self, name, value):
        # a nan root_tol and c_tol used to return c = 0.5 with residual 0.23
        with pytest.raises(ValueError, match=name):
            PlateauProblem(rings=RINGS, H=1.0, **{name: value})
        with pytest.raises(ValueError, match=name):
            solve_two_ring(1.0, 2.0, 0.0, 0.5, 1.0, **{name: value})


class TestShootingMap:
    def test_strictly_decreasing_in_c(self):
        cs = np.linspace(-8.0, 8.0, 33)
        for H in (0.0, 0.7):
            vals = [_outer_height(H, c, RINGS, 1e-10) for c in cs]
            assert np.all(np.diff(vals) < 0.0)

    def test_bracketing_limits(self):
        # f(R; H, c) -> a -/+ (R - r) as c -> +/- inf
        for H in (0.0, 1.0):
            high = _outer_height(H, 1e6, RINGS, 1e-10)
            low = _outer_height(H, -1e6, RINGS, 1e-10)
            assert abs(high - (RINGS.a - (RINGS.R - RINGS.r))) < 1e-3
            assert abs(low - (RINGS.a + (RINGS.R - RINGS.r))) < 1e-3

    def test_slab_property_for_nonpositive_c(self):
        # c <= 0 with b > a: extrema on [r, R] sit at the endpoints
        for H in (0.0, 0.2):
            sol = solve_two_ring(1.0, 2.0, 0.0, 0.5, H)
            assert sol.c <= 0.0
            ts = np.linspace(1.0, 2.0, 200)
            hs = sol.curve.heights(ts)
            assert hs.min() >= 0.0 - 1e-12
            assert hs.max() <= 0.5 + 1e-9

    def test_interior_minimum_below_slab_for_positive_c(self):
        sol = solve_two_ring(1.0, 2.0, 0.0, 0.1, 2.0)
        assert sol.c > 0.0
        star = math.sqrt(sol.c / 2.0)
        assert 1.0 < star < 2.0
        assert height(star, sol.curve) < min(0.0, 0.1)


def _bisection_reference(problem):
    """The bisection shooting loop solve_c used before safeguarded Newton.

    Doubling bracket expansion from [-1, 1], snap threshold
    1e-10 * max(1, H R^2), the problem's tolerances taken as absolute, no
    derivative; returns the canonical (c, regime).
    """
    rings, H = problem.rings, problem.H
    reflected = rings.b < rings.a
    work = rings if not reflected else ValidatedRingPair(
        r=rings.r, R=rings.R, a=-rings.a, b=-rings.b, slope_bound=rings.slope_bound
    )

    def g(c):
        return _outer_height(H, c, work, problem.quad_tol) - work.b

    lo, hi = -1.0, 1.0
    g_lo, g_hi = g(lo), g(hi)
    while g_lo < 0.0:
        lo *= 2.0
        g_lo = g(lo)
    while g_hi > 0.0:
        hi *= 2.0
        g_hi = g(hi)
    if g_lo == 0.0:
        c_hat = lo
    elif g_hi == 0.0:
        c_hat = hi
    else:
        while hi - lo > problem.c_tol:
            mid = 0.5 * (lo + hi)
            if not (lo < mid < hi):
                break
            g_mid = g(mid)
            if g_mid > 0.0:
                lo = mid
            elif g_mid < 0.0:
                hi = mid
            else:
                lo = hi = mid
        c_hat = 0.5 * (lo + hi)
    if c_hat != 0.0 and abs(c_hat) < 1e-10 * max(1.0, H * work.R * work.R):
        if abs(g(0.0)) <= problem.root_tol:
            c_hat = 0.0
    params = SurfaceParams(-H, -c_hat) if reflected else SurfaceParams(H, c_hat)
    canonical, _ = canonicalize(params)
    return canonical.c, classify_params(canonical)


def _reference_ring_pairs(n=60, seed=2005):
    """Ring pairs over R/r in 1.05..1e3, |b-a|/(R-r) up to 0.99, H = 0,
    H < H0, H = H0 and H0 < H <= 50, ascending and descending."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n):
        # ten log-spaced strata of R/r, six cases each
        ratio = 1.05 * (1e3 / 1.05) ** (((i // 6) % 10 + rng.uniform()) / 10)
        q = 0.99 if i % 20 == 19 else rng.uniform(0.0, 0.99)
        r = math.exp(rng.uniform(math.log(0.5), math.log(2.0)))
        R = r * ratio
        a = rng.uniform(-1.0, 1.0)
        b = a + q * (R - r)
        h0 = threshold_H0(validate_rings(RingPair(r=r, R=R, a=a, b=b)))
        h_class = (i // 2) % 4
        if h_class == 0:
            H = 0.0
        elif h_class == 1:
            H = h0 * rng.uniform(0.05, 0.95)
        elif h_class == 2:
            H = h0
        else:
            H = 50.0 if i % 16 == 7 else math.exp(
                rng.uniform(math.log(1.05 * h0 + 1e-3), math.log(50.0)))
        if i % 2:
            a, b = b, a
        cases.append((r, R, a, b, H))
    return cases


class TestNewtonAgainstBisection:
    @pytest.mark.parametrize("case", _reference_ring_pairs())
    def test_same_root_and_regime(self, case):
        r, R, a, b, H = case
        problem = PlateauProblem(rings=validate_rings(RingPair(r=r, R=R, a=a, b=b)), H=H)
        sol = solve_c(problem)
        c_ref, regime_ref = _bisection_reference(problem)
        assert abs(sol.c - c_ref) <= 1e-9 * max(1.0, abs(c_ref))
        assert sol.regime is regime_ref

    def test_large_c_terminates_in_few_integrals(self):
        # an absolute 1e-12 on c is below one ulp here; the relative rule
        # stops after a handful of interpolation steps
        problem = PlateauProblem(
            rings=validate_rings(RingPair(r=1.0, R=50.0, a=0.0, b=0.5)), H=20.0)
        sol = solve_c(problem)
        assert sol.c >= 8192.0
        d = sol.diagnostics
        assert d.g_evals <= 10
        c_ref, regime_ref = _bisection_reference(problem)
        assert abs(sol.c - c_ref) <= 1e-9 * abs(c_ref)
        assert sol.regime is regime_ref

    @pytest.mark.parametrize("scale", [1e-4, 1e2, 1e4])
    def test_scale_covariance(self, scale):
        # radii, heights and c scale together and H inversely; at large
        # scale c_tol * |c| alone would leave f(R) off by more than root_tol
        for H in (0.0, 0.5, 2.0):
            for q in (0.1, 0.5, 0.9):
                unit = solve_two_ring(1.0, 2.0, 0.0, q, H)
                sol = solve_two_ring(scale, 2.0 * scale, 0.0, q * scale, H / scale)
                assert sol.residual <= 1e-9
                assert sol.c == pytest.approx(unit.c * scale, rel=1e-6, abs=1e-9 * scale)
                assert sol.regime is unit.regime

    def test_readme_example_work_counts(self):
        d = solve_two_ring(1.0, 2.0, 0.0, 0.5, 1.0).diagnostics
        assert d.g_evals <= 10
        assert d.interpolation_steps + d.bisection_fallbacks <= d.g_evals
        assert d.final_bracket_width >= 0.0

    @pytest.mark.parametrize("scale", [1e-20, 1e-30, 1e-50])
    @pytest.mark.parametrize("H", [0.0, 1.0])
    def test_tiny_radii_match_bisection_in_ring_units(self, scale, H):
        # absolute tolerances once accepted c = 0 here, missing the outer
        # ring by 100%; the reference gets the same tolerances in ring units
        rings = validate_rings(RingPair(r=scale, R=2.0 * scale, a=0.0, b=0.5 * scale))
        sol = solve_c(PlateauProblem(rings=rings, H=H))
        unit = math.ldexp(1.0, math.frexp(rings.R)[1])
        scaled = PlateauProblem(rings=rings, H=H, root_tol=DEFAULT_ROOT_TOL * unit,
                                c_tol=DEFAULT_C_TOL * unit, quad_tol=DEFAULT_QUAD_TOL * unit)
        c_ref, regime_ref = _bisection_reference(scaled)
        assert abs(sol.c - c_ref) <= 1e-9 * max(unit, abs(c_ref))
        assert sol.regime is regime_ref
        assert sol.regime is (Regime.NEGATIVE_C if H else Regime.MAXIMAL_CATENOID)
        assert sol.residual <= DEFAULT_ROOT_TOL * unit

    def test_exact_root_on_bracket_end_needs_no_search(self):
        # flat rings at H = 0: both barrier ends are c = 0, the plane
        sol = solve_two_ring(1.0, 2.0, 0.25, 0.25, 0.0)
        assert sol.c == 0.0
        d = sol.diagnostics
        assert (d.g_evals, d.interpolation_steps, d.final_bracket_width) == (2, 0, 0.0)


def _barrier_bracket(rings, H):
    """The closed-form ends lo <= hi of solve_c's bracket (ascending rings)."""
    k = rings.slope_bound
    m = k / math.sqrt((1.0 - k) * (1.0 + k))
    return H * rings.r * rings.r - m * rings.R, H * rings.R * rings.R - m * rings.r


def _wide_ring_pairs(n=400, seed=2005):
    """Ring pairs with R over 1e-8..1e11, R/r in 1.05..1e3, heights of the
    size of R, |b-a|/(R-r) up to 0.99, H = 0, H < H0, H = H0 and
    H0 < H <= 1e3 H0, ascending and descending."""
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(n):
        R = 10.0 ** rng.uniform(-8.0, 11.0)
        r = R / 10.0 ** rng.uniform(math.log10(1.05), 3.0)
        a = rng.uniform(-1.0, 1.0) * R
        b = a + rng.uniform(0.0, 0.99) * (R - r)
        h0 = threshold_H0(validate_rings(RingPair(r=r, R=R, a=a, b=b)))
        H = (0.0, h0 * rng.uniform(0.05, 0.95), h0,
             h0 * math.exp(rng.uniform(math.log(1.05), math.log(1e3))))[i % 4]
        if i % 2:
            a, b = b, a
        cases.append((r, R, a, b, H))
    return cases


class TestRingScale:
    # a subnormal k underflows the slope itself: see the noise test below
    @settings(max_examples=200, deadline=None)
    @given(log_R=st.floats(-8.0, 8.0), log_ratio=st.floats(0.01, 3.0),
           k=st.floats(0.0, 0.999, allow_subnormal=False), h=st.floats(0.0, 1e3))
    def test_barrier_ends_bracket_the_root(self, log_R, log_ratio, k, h):
        R = 10.0 ** log_R
        r = R / 10.0 ** log_ratio
        rings = validate_rings(RingPair(r=r, R=R, a=0.0, b=k * (R - r)))
        H = h * threshold_H0(rings)
        lo, hi = _barrier_bracket(rings, H)
        assert lo <= hi
        assert _outer_height(H, lo, rings, 1e-10 * min(1.0, R)) - rings.b >= 0.0
        assert _outer_height(H, hi, rings, 1e-10 * min(1.0, R)) - rings.b <= 0.0

    def test_bracket_end_with_noise_sign_is_the_root(self):
        # b = 5e-324: the slope at lo = -5e-324 underflows, so g(lo) = -b
        # has the wrong sign, within root_tol; lo is then snapped to 0
        sol = solve_two_ring(0.5, 1.0, 0.0, 5e-324, 0.0)
        assert sol.c == 0.0
        assert sol.diagnostics.g_evals == 3  # both ends and the snap check
        assert sol.residual == 5e-324

    def test_wrong_sign_beyond_root_tol_raises(self, monkeypatch):
        # f(R) = 1 > b at both ends: the upper end is wrong by 0.5
        monkeypatch.setattr("lorentz_cmc.bvp._outer_height", lambda H, c, rings, tol: 1.0)
        with pytest.raises(RootBracketFailure, match="barrier bracket"):
            solve_two_ring(1.0, 2.0, 0.0, 0.5, 1.0)

    def test_wide_radii_all_solve_in_the_predicted_regime(self):
        failures = []
        for r, R, a, b, H in _wide_ring_pairs():
            up = validate_rings(RingPair(r=r, R=R, a=min(a, b), b=max(a, b)))
            try:
                sol = solve_two_ring(r, R, a, b, H)
            except LorentzCMCError as exc:
                failures.append(((r, R, a, b, H), str(exc)))
                continue
            if sol.regime is not classify(H, up):
                failures.append(((r, R, a, b, H), sol.regime))
        assert failures == []

    def test_wide_radii_take_under_ten_integrals_on_average(self):
        evals = [solve_two_ring(*case).diagnostics.g_evals for case in _wide_ring_pairs()]
        assert sum(evals) / len(evals) < 10.0

    @settings(max_examples=40, deadline=None)
    @given(log_R=st.floats(-4.0, -1.0), log_ratio=st.floats(0.02, 3.0),
           k=st.floats(0.0, 0.99), h=st.floats(0.0, 20.0), j=st.integers(-1000, 0),
           descending=st.booleans())
    def test_power_of_two_scaling_is_exact_below_half(self, log_R, log_ratio, k, h,
                                                      j, descending):
        # (r, R, a, b, H, c) -> (2^j r, 2^j R, 2^j a, 2^j b, H / 2^j, 2^j c)
        # rounds the same at every step once the ring unit is 2^e itself
        R = 10.0 ** log_R
        r = R / 10.0 ** log_ratio
        d = k * (R - r)
        a, b = (d, 0.0) if descending else (0.0, d)
        H = h * threshold_H0(validate_rings(RingPair(r=r, R=R, a=0.0, b=d)))
        lam = math.ldexp(1.0, j)
        # only exactly scaled data has this symmetry: a length scaled into
        # the subnormals rounds
        assume(all(math.ldexp(lam * x, -j) == x for x in (r, R, d)))
        base = solve_two_ring(r, R, a, b, H)
        scaled = solve_two_ring(lam * r, lam * R, lam * a, lam * b, H / lam)
        assert scaled.c == lam * base.c
        assert scaled.residual == lam * base.residual
        assert scaled.regime is base.regime

