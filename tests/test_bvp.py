import itertools
import math
import signal
import sys
import time
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.integrate import quad as scipy_quad

from lorentz_cmc import (
    DegenerateRadii,
    LorentzCMCError,
    NotSpacelikeSolvable,
    PlateauProblem,
    Regime,
    RingPair,
    RootBracketFailure,
    SurfaceParams,
    ValidatedRingPair,
    canonicalize,
    classify,
    classify_params,
    height,
    heights,
    profile_curve,
    solve_c,
    solve_two_ring,
    threshold_H0,
    validate_rings,
)
from lorentz_cmc.bvp import DEFAULT_ROOT_TOL
from lorentz_cmc.core import _height_at


RINGS = validate_rings(RingPair(r=1.0, R=2.0, a=0.0, b=0.5))
H0_RINGS = 1.0 / math.sqrt(6.5625)  # hand-reduced threshold formula for RINGS


def _f_at_R(H, c, rings):
    """f(R; H, c) through f(r) = a: a plus the rise that solve_c's g(c) + |b - a| is."""
    return _height_at(rings.R, H, c, (rings.r, rings.a))


class TestRingsValidateThemselves:
    # with slope_bound=0.5 passed in, these rings once ran: solve_c gave
    # c = 3.42 for r > R, and with b = 1.5 solve_c raised RootBracketFailure
    # and threshold_H0 a bare "math domain error"
    def test_swapped_radii_raise(self):
        with pytest.raises(DegenerateRadii):
            solve_c(PlateauProblem(ValidatedRingPair(r=2.0, R=1.0, a=0.0, b=0.5), H=1.0))

    @pytest.mark.parametrize("use", [lambda rings: solve_c(PlateauProblem(rings, H=1.0)),
                                     threshold_H0], ids=["solve_c", "threshold_H0"])
    def test_steep_rings_raise(self, use):
        with pytest.raises(NotSpacelikeSolvable):
            use(ValidatedRingPair(r=1.0, R=2.0, a=0.0, b=1.5))

    def test_slope_bound_is_derived(self):
        with pytest.raises(TypeError):
            ValidatedRingPair(r=1.0, R=2.0, a=0.0, b=0.5, slope_bound=0.5)
        assert ValidatedRingPair(r=1.0, R=2.0, a=0.0, b=0.5).slope_bound == 0.5


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

    @settings(max_examples=200, deadline=None)
    @given(log_R=st.floats(-300.0, 300.0), log_ratio=st.floats(0.001, 3.0),
           k=st.floats(0.0, 0.999), a=st.floats(-2.0, 2.0))
    def test_normal_values_keep_their_bits(self, log_R, log_ratio, k, a):
        # the formula before subnormal b - a kept its bits, for every ring
        # whose scaled b - a and H0 are normal floats
        R = 10.0 ** log_R
        r = R / 10.0 ** log_ratio
        rings = validate_rings(RingPair(r=r, R=R, a=a * R, b=a * R + k * (R - r)))
        _, e = math.frexp(R)
        d, dr, sr = (math.ldexp(x, -e) for x in (rings.b - rings.a, R - rings.r, R + rings.r))
        assume(d >= sys.float_info.min)
        want = math.ldexp(2.0 * d / math.sqrt((dr * dr - d * d) * (sr * sr - d * d)), -e)
        assume(want >= sys.float_info.min)
        assert threshold_H0(rings) == want

    @pytest.mark.parametrize("d", [5e-324, 1e-320, 1e-310])
    @pytest.mark.parametrize("R", [0.75, 1.0, 2.0, 1e3])
    def test_subnormal_rise_keeps_its_threshold(self, d, R):
        # ldexp(b - a, -e) underflowed: 5e-324 at R = 1 gave 0.0 for a != b
        rings = validate_rings(RingPair(r=0.1, R=R, a=0.0, b=d))
        got, want = threshold_H0(rings), _threshold_decimal(0.1, R, d)
        assert abs(Decimal(got) - want) <= Decimal(5e-324)
        assert (got > 0.0) == (float(want) > 0.0)
        assert threshold_H0(validate_rings(RingPair(r=0.1, R=R, a=d, b=0.0))) == got

    @settings(max_examples=200, deadline=None)
    @example(log_R=math.log10(0.023812235578142753), log_ratio=math.log10(711.0), n=3)
    @given(log_R=st.floats(-300.0, -0.31), log_ratio=st.floats(0.01, 3.0),
           n=st.integers(1, 2**20))
    def test_subnormal_threshold_is_the_solvers(self, log_R, log_ratio, n):
        # below R = 1/2 solve_c works in the ring unit 2^e: H0 rounds into the
        # subnormals there, so the solver sees the cap and returns this H0
        R = 10.0 ** log_R
        r = R / 10.0 ** log_ratio
        d = n * 5e-324
        assume(d < 0.99 * (R - r))
        H0 = threshold_H0(validate_rings(RingPair(r=r, R=R, a=0.0, b=d)))
        sol = solve_two_ring(r, R, d, 0.0, H0)
        assert sol.H0 == H0
        if H0:
            assert (sol.regime, sol.diagnostics.g_evals) == (Regime.HYPERBOLIC_CAP, 1)

    def test_threshold_beyond_the_floats_is_inf(self):
        # small, steep rings: H0 ~ 1e309 raised OverflowError from threshold_H0,
        # classify and solve_c alike; every finite H > 0 lies below it
        rings = (4.412487191811404e-307, 2.896473841700921e-300, 2.2061343573961882e-303,
                 2.8986795348068602e-300)
        valid = validate_rings(RingPair(*rings))
        assert _threshold_decimal(rings[0], rings[1], rings[3] - rings[2]) > sys.float_info.max
        assert threshold_H0(valid) == math.inf
        assert classify(1e300, valid) is Regime.NEGATIVE_C
        for H in (0.0, 1.0, 1e300):
            sol = solve_two_ring(*rings, H)
            assert sol.H0 == math.inf and sol.regime is classify(H, valid)
        # H0 only 1.001 times the largest float: there g(0) meets root_tol,
        # so the cap, not NegativeC
        rings = (3.4177134466670613e-305, 6.835426893334123e-305, 0.0, 3.4177134240776406e-305)
        assert _threshold_decimal(rings[0], rings[1], rings[3]) > sys.float_info.max
        sol = solve_two_ring(*rings, sys.float_info.max)
        assert sol.H0 == math.inf and sol.c == 0.0
        assert sol.regime is Regime.HYPERBOLIC_CAP is classify(
            sys.float_info.max, validate_rings(RingPair(*rings)))

    def test_cap_through_both_rings_has_curvature_H0(self):
        # the hyperbolic cap anchored at (r, a) with H = H0 hits (R, b)
        h0 = threshold_H0(RINGS)
        assert _f_at_R(h0, 0.0, RINGS) == pytest.approx(RINGS.b, abs=1e-12)

    def test_cap_roundtrip_random_rings(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            r = rng.uniform(0.2, 2.0)
            R = r + rng.uniform(0.2, 3.0)
            a = rng.uniform(-1.0, 1.0)
            H = rng.uniform(0.05, 3.0)
            b = _height_at(R, H, 0.0, (r, a))
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

    def test_sign_check(self):
        with pytest.raises(ValueError):
            classify(-1.0, RINGS)

    @settings(max_examples=400, deadline=None)
    @given(log_R=st.floats(-8.0, 8.0), log_ratio=st.floats(0.01, 3.0),
           k=st.one_of(st.just(0.0), st.floats(1e-4, 0.99),
                       st.floats(-18.0, -7.0).map(lambda e: 10.0 ** e),
                       st.floats(-12.0, -2.0).map(lambda e: 1.0 - 10.0 ** e)),
           a=st.floats(-1.0, 1.0), h=st.sampled_from([0.0, 0.5, 1.0, 2.0, 10.0, 100.0]),
           ulps=st.integers(-4, 4))
    def test_descending_rings_agree_with_their_mirror_and_the_solver(self, log_R, log_ratio,
                                                                     k, a, h, ulps):
        # tiny rises, slopes beside the light cone and H a few ulp off H0
        # put g(0) within root_tol far from H0 and beside it
        R = 10.0 ** log_R
        r = R / 10.0 ** log_ratio
        lo = a * R
        hi = lo + k * (R - r)
        assume(hi > lo)
        down = validate_rings(RingPair(r=r, R=R, a=hi, b=lo))
        mirror = validate_rings(RingPair(r=r, R=R, a=-hi, b=-lo))
        H0 = threshold_H0(down)
        assert H0.hex() == threshold_H0(mirror).hex()
        H = h * H0
        for _ in range(abs(ulps)):
            H = math.nextafter(H, math.inf if ulps > 0 else 0.0)
        sol = solve_two_ring(r, R, hi, lo, H)
        assert sol.regime is classify(H, down) is classify(H, mirror)
        assert sol.H0.hex() == H0.hex()


class TestSolve:
    def test_cap_is_its_own_solution(self):
        b = _f_at_R(1.0, 0.0, RINGS)
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

    def test_an_iterate_with_g_exactly_zero_ends_the_search(self):
        # the sixth iterate gives g = 0.0 and the search stops there, bracket
        # width 0; carrying on took 13 g to another c whose g is 0.0 too
        sol = solve_two_ring(56.63905716370957, 1006.9640981941631, -218.69896522379955,
                             731.6102406430838, 0.7252714392781253)
        d = sol.diagnostics
        assert (sol.residual, d.g_evals, d.final_bracket_width) == (0.0, 8, 0.0)

    def test_problem_requires_validated_rings_and_canonical_H(self):
        with pytest.raises(TypeError):
            PlateauProblem(rings=RingPair(1.0, 2.0, 0.0, 0.5), H=1.0)
        with pytest.raises(ValueError):
            PlateauProblem(rings=RINGS, H=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1e-9])
    def test_problem_rejects_bad_tolerance(self, value):
        # a nan root_tol used to return c = 0.5 with residual 0.23
        with pytest.raises(ValueError, match="root_tol"):
            PlateauProblem(rings=RINGS, H=1.0, root_tol=value)
        with pytest.raises(ValueError, match="root_tol"):
            solve_two_ring(1.0, 2.0, 0.0, 0.5, 1.0, root_tol=value)


class TestShootingMap:
    def test_strictly_decreasing_in_c(self):
        cs = np.linspace(-8.0, 8.0, 33)
        for H in (0.0, 0.7):
            vals = [_f_at_R(H, c, RINGS) for c in cs]
            assert np.all(np.diff(vals) < 0.0)

    def test_bracketing_limits(self):
        # f(R; H, c) -> a -/+ (R - r) as c -> +/- inf
        for H in (0.0, 1.0):
            high = _f_at_R(H, 1e6, RINGS)
            low = _f_at_R(H, -1e6, RINGS)
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

    @settings(max_examples=300, deadline=None)
    @given(log_R=st.floats(math.log10(0.5), 6.0), log_ratio=st.floats(0.01, 3.0),
           k=st.floats(0.0, 0.99), h=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 50.0),
           a=st.floats(-10.0, 10.0), descending=st.booleans())
    # a cap whose residual dwarfs a and b - a: the miss of b exceeds
    # residual + ulp(b - a) + ulp(b) by an ulp of the residual
    @example(log_R=1.5, log_ratio=1.0, k=2.619087445799949e-185, h=11.0,
             a=2.619087445799949e-185, descending=True)
    def test_height_at_R_misses_b_by_the_residual_to_the_bit(self, log_R, log_ratio, k, h, a,
                                                             descending):
        # for R >= 1/2 the ring unit is 1, and the solved surface's rise from
        # (r, 0) to R is the solver's last f(R) in either orientation; the
        # curve's height(R) is a plus that rise, rounded once
        R = 10.0 ** log_R
        r = R / 10.0 ** log_ratio
        d = k * (R - r)
        H = h * threshold_H0(validate_rings(RingPair(r=r, R=R, a=0.0, b=d)))
        b = a - d if descending else a + d
        sol = solve_two_ring(r, R, a, b, H)
        rise = profile_curve(sol.curve.surface, (r, 0.0)).height(R)
        assert abs(rise - (b - a)) == sol.residual
        assert sol.curve.height(R) == a + rise


def _large_anchor_draws(n=600, seed=34):
    """Rings with R in 0.5..10, R/r in 10^(0.01..2), slopes up to 0.99 and
    |a| in 1..1e12, at H/H0 in {0, 0.5, 1, 2, 10}, both orientations."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        R = rng.uniform(0.5, 10.0)
        r = R / 10.0 ** rng.uniform(0.01, 2.0)
        d = rng.uniform(0.0, 0.99) * (R - r)
        a = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(0.0, 12.0)
        b = a - d if i % 2 else a + d
        H = threshold_H0(validate_rings(RingPair(r, R, a, b))) * (0.0, 0.5, 1.0, 2.0, 10.0)[i % 5]
        yield r, R, a, b, H


class TestRiseAlone:
    """g shoots on the rise |b - a| from height 0, so the size of the ring
    heights costs the search no accuracy."""

    def test_large_anchors_keep_the_exact_rise_within_root_tol(self):
        # scipy's quad of the solved slope against b - a in exact rationals
        # (3.8e-12 at worst here).  While g formed a + rise - b it rounded at
        # ulp(a): 188 of these draws returned a c whose rise missed b - a by
        # up to 5.4e-5 while reporting a residual within root_tol
        for r, R, a, b, H in _large_anchor_draws():
            sol = solve_two_ring(r, R, a, b, H)
            p = sol.curve.surface
            w = lambda t: p.H * t * t - p.c
            rise, _ = scipy_quad(lambda t: w(t) / math.hypot(t, w(t)), r, R,
                                 epsabs=1e-13, epsrel=1e-13, limit=200)
            assert abs(Fraction(rise) - (Fraction(b) - Fraction(a))) <= DEFAULT_ROOT_TOL

    def test_ring_heights_near_the_largest_float_solve(self):
        # scaling a = b = 1e308 into the ring unit 1/2 raised OverflowError
        sol = solve_two_ring(0.25, 0.4, 1e308, 1e308, 1.0)
        rings = validate_rings(RingPair(0.25, 0.4, 1e308, 1e308))
        assert sol.regime is Regime.POSITIVE_C is classify(1.0, rings)
        assert sol.residual <= 0.5 * DEFAULT_ROOT_TOL
        assert sol.curve.height(0.4) == 1e308

    def test_height_at_R_misses_b_by_the_rounding_of_b_minus_a(self):
        # b - a = 1e10 + 3e-6 rounds by 8.1e-7: the rise meets the rounded
        # difference to the bit, and the curve's height(R), a plus the rise,
        # misses b by that rounding, not by the shooting
        r, R, a, b = 1.0, 3e10, -1e10, 3e-6
        sol = solve_two_ring(r, R, a, b, 0.0)
        rise = profile_curve(sol.curve.surface, (r, 0.0)).height(R)
        assert sol.residual == 0.0 and rise == b - a
        assert sol.curve.height(R) == a + rise
        assert math.ulp(b) < abs(sol.curve.height(R) - b) <= math.ulp(b - a)


def _bisection_reference(problem, width=1e-12):
    """The bisection shooting loop solve_c used before safeguarded Newton.

    Doubling bracket expansion from [-1, 1], bisection down to an absolute
    bracket ``width``, snap threshold 1e-10 * max(1, H R^2), the problem's
    root_tol taken as absolute, no derivative; returns the canonical
    (c, regime).
    """
    rings, H = problem.rings, problem.H
    reflected = rings.b < rings.a
    work = rings if not reflected else ValidatedRingPair(
        r=rings.r, R=rings.R, a=-rings.a, b=-rings.b
    )

    def g(c):
        return _f_at_R(H, c, work) - work.b

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
        while hi - lo > width:
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
        scaled = PlateauProblem(rings=rings, H=H, root_tol=DEFAULT_ROOT_TOL * unit)
        c_ref, regime_ref = _bisection_reference(scaled, width=1e-12 * unit)
        assert abs(sol.c - c_ref) <= 1e-9 * max(unit, abs(c_ref))
        assert sol.regime is regime_ref
        assert sol.regime is (Regime.NEGATIVE_C if H else Regime.MAXIMAL_CATENOID)
        assert sol.residual <= DEFAULT_ROOT_TOL * unit

    def test_exact_root_on_bracket_end_needs_no_search(self):
        # flat rings at H = 0: the plane, confirmed by g(0) alone
        sol = solve_two_ring(1.0, 2.0, 0.25, 0.25, 0.0)
        assert sol.c == 0.0
        d = sol.diagnostics
        assert (d.g_evals, d.interpolation_steps, d.final_bracket_width) == (1, 0, 0.0)


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
        assert _f_at_R(H, lo, rings) - rings.b >= 0.0
        assert _f_at_R(H, hi, rings) - rings.b <= 0.0

    def test_bracket_end_with_noise_sign_is_the_root(self):
        # b = 5e-324: the barrier bracket [-1e-323, -5e-324] excludes 0, and
        # the catenoid's rise rounds to b at both ends, so the lower end is
        # the root to the bit, in classify's regime.  A snap to c = 0 once
        # took a third g and returned the plane, with residual 5e-324
        sol = solve_two_ring(0.5, 1.0, 0.0, 5e-324, 0.0)
        assert sol.c == -1e-323
        assert sol.regime is Regime.MAXIMAL_CATENOID is classify(
            0.0, validate_rings(RingPair(0.5, 1.0, 0.0, 5e-324)))
        assert sol.diagnostics.g_evals == 2  # both ends
        assert sol.residual == 0.0

    def test_wrong_sign_beyond_root_tol_raises(self, monkeypatch):
        # f(R) = 1 > b at both ends: the upper end is wrong by 0.5
        monkeypatch.setattr("lorentz_cmc.bvp._height_at", lambda t, H, c, anchor: 1.0)
        with pytest.raises(RootBracketFailure, match="barrier bracket"):
            solve_two_ring(1.0, 2.0, 0.0, 0.5, 1.0)

    def test_every_iterate_is_counted_once(self, monkeypatch):
        # both bracket ends (g(0) and the end it leaves, where the barrier
        # bracket holds 0), then one g per iterate; the false-position start
        # counts as an interpolation step
        cs = []

        def height_at(t, H, c, anchor):
            cs.append(c)
            return _height_at(t, H, c, anchor)

        monkeypatch.setattr("lorentz_cmc.bvp._height_at", height_at)
        # all but the first clip the bracket at 0: below H0 g(0) < 0 sets
        # hi = 0 and lo comes next, above H0 g(0) > 0 sets lo = 0
        for case in ((1.0, 50.0, 0.0, 0.5, 20.0), (0.5, 4.0, 0.0, 1.0, 0.5),
                     (1.0, 2.0, 0.0, 0.5, 1.0), (1.0, 2.0, 0.0, 0.5, 0.5 * H0_RINGS)):
            cs.clear()
            sol = solve_two_ring(*case)
            d = sol.diagnostics
            assert d.g_evals == len(cs) == 2 + d.interpolation_steps + d.bisection_fallbacks
            rings = validate_rings(RingPair(*case[:4]))
            lo, hi = _barrier_bracket(rings, case[4])
            assert cs.count(0.0) == (lo <= 0.0 <= hi) == (cs[0] == 0.0)
            if cs[0] == 0.0:
                below = case[4] < threshold_H0(rings)
                assert cs[1] == (lo if below else hi) and (sol.c < 0.0) == below

    def test_jump_in_g_raises_naming_root_tol(self, monkeypatch):
        # f(R) jumps from b + 0.5 to b - 0.5 at c = 0.1: the bracket closes
        # on the jump until c cannot move, and the residual check raises
        monkeypatch.setattr("lorentz_cmc.bvp._height_at",
                            lambda t, H, c, anchor: 0.5 + (0.5 if c < 0.1 else -0.5))
        with pytest.raises(LorentzCMCError, match="root_tol") as info:
            solve_two_ring(1.0, 2.0, 0.0, 0.5, 1.0)
        assert not isinstance(info.value, RootBracketFailure)

    @pytest.mark.parametrize("H", [1e20, 1e100])
    def test_jump_far_from_zero_still_halves_the_bracket(self, monkeypatch, H):
        # f(R) jumps from b + 0.5 to b - 0.5 at c = 2 H, so g is flat at both
        # ends and every step bisects in asinh(c / r).  Near 2 H asinh
        # resolves c only to tens of ulps: on a bracket that narrow the asinh
        # midpoint maps back outside it (t_mid -1.0, 3.0 and 19.25 at
        # H = 1e100) and the step is the plain midpoint, 53 g in all.
        # Stepping to the clamped end instead moved c by 4 ulps at a time
        # and took 59 and 68 g
        lo, hi = _barrier_bracket(RINGS, H)
        jump, cs = 2.0 * H, []

        def height_at(t, H, c, anchor):
            cs.append(c)
            return 0.5 + (0.5 if c < jump else -0.5)

        monkeypatch.setattr("lorentz_cmc.bvp._height_at", height_at)
        with pytest.raises(LorentzCMCError, match="root_tol"):
            solve_two_ring(1.0, 2.0, 0.0, 0.5, H)
        assert cs[:2] == [lo, hi] and lo < jump < hi
        # both ends, then one g per halving down to 8 ulps, and two to spare
        assert len(cs) <= 2 + math.ceil(math.log2((hi - lo) / (8.0 * math.ulp(jump)))) + 2
        assert abs(cs[-1] - jump) <= 8.0 * math.ulp(jump)

    def test_bracket_closing_beyond_root_tol_returns_its_other_end(self):
        # H R ~ 8e48: f(R) jumps by about 5e-9 between adjacent c near the
        # root, and the search closes on an iterate that misses root_tol
        # (3.7e-9 here) by 5.3e-9, while its other end meets it
        case = (2.1473495435683656, 203668.375360576, 91418.67683650606, 27045.364046883846,
                4.08356741113264e+43)
        sol = solve_two_ring(*case)
        assert sol.regime is Regime.POSITIVE_C is classify(
            case[4], validate_rings(RingPair(case[0], case[1], case[3], case[2])))
        assert sol.residual <= 64.0 * math.ulp(2.0 ** 18)

    def test_root_within_root_tol_at_upper_end_needs_no_search(self, monkeypatch):
        # g > 0 on the bracket and g(hi) = 1e-12: the upper end is the root
        # within root_tol; g falls steeply enough that c = 0 is out of reach
        hi = _barrier_bracket(RINGS, 1.0)[1]
        monkeypatch.setattr("lorentz_cmc.bvp._height_at",
                            lambda t, H, c, anchor: 0.5 + 1e-12 + 1e-3 * (hi - c))
        sol = solve_two_ring(1.0, 2.0, 0.0, 0.5, 1.0)
        assert sol.c == hi
        assert sol.diagnostics.g_evals == 2
        assert sol.residual == pytest.approx(1e-12, rel=1e-3)

    def test_c_tol_below_an_ulp_stops_when_c_cannot_move(self, monkeypatch):
        # g = (2.3 - c)^3 + 1e-300 vanishes at no float, and _C_TOL * |c| is
        # far below one ulp of c, so only the ulp rule can end the search
        monkeypatch.setattr("lorentz_cmc.bvp._height_at",
                            lambda t, H, c, anchor: (2.3 - c) ** 3 + 1e-300)
        monkeypatch.setattr("lorentz_cmc.bvp._C_TOL", 1e-300)
        sol = solve_two_ring(1.0, 2.0, 0.0, 0.0, 1.0)
        ulp = math.ulp(2.3)
        assert abs(sol.c - 2.3) <= 8.0 * ulp
        assert 0.0 < sol.diagnostics.final_bracket_width <= 8.0 * ulp
        assert sol.diagnostics.g_evals <= 64

    def test_cap_of_rings_up_to_1e200_is_found(self):
        # the cap's closed form squared R and overflowed above about 1.3e154,
        # so g(0) was inf and the solver returned NegativeC; the suite turns
        # the overflow warning into an error
        rings = validate_rings(RingPair(r=1e-200, R=1e200, a=0.0, b=1e199))
        H0 = threshold_H0(rings)
        assert classify(H0, rings) is Regime.HYPERBOLIC_CAP
        sol = solve_two_ring(1e-200, 1e200, 0.0, 1e199, H0)
        assert sol.regime is Regime.HYPERBOLIC_CAP
        assert sol.c == 0.0

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
        # 6.005 measured (2402 g over 400 solves), deterministic
        evals = [solve_two_ring(*case).diagnostics.g_evals for case in _wide_ring_pairs()]
        assert sum(evals) / len(evals) < 6.85

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

    def test_solved_tiny_ring_heights_keep_the_ring_unit_tolerance(self):
        # heights floored its segment tolerance at 1e-15, far above
        # quad_tol u = 1.46e-21 here, and missed b by 1.29e-20
        r, R, a, b = 1e-12, 1.2e-11, 0.0, 5.5e-12
        H = 1.5 * threshold_H0(validate_rings(RingPair(r=r, R=R, a=a, b=b)))
        curve = solve_two_ring(r, R, a, b, H).curve
        p = curve.params

        def ref(t):
            # scipy on lengths in units of R, so its absolute floor is R-relative
            w = lambda x: p.H * (x * R) ** 2 - p.c
            val, _ = scipy_quad(lambda x: w(x) / math.hypot(x * R, w(x)), r / R, t / R,
                                epsabs=1e-15, epsrel=1e-13)
            return a + curve.parity * R * val

        for t in (R, 0.5 * R, 2.0 * r):
            assert abs(heights(curve, [t])[0] - ref(t)) <= curve.quad_tol
        assert abs(heights(curve, [R])[0] - b) <= curve.quad_tol

    @pytest.mark.parametrize("r,R", [(1e-309, 2.3e-308), (1e-309, 3e-308), (1e-320, 1e-300)])
    @pytest.mark.parametrize("h", [0.0, 1.5])
    def test_normal_outer_radius_solves_with_subnormal_inner(self, r, R, h):
        # validate_rings rejects a subnormal R only; these still solve
        rings = validate_rings(RingPair(r=r, R=R, a=0.0, b=0.4 * R))
        sol = solve_c(PlateauProblem(rings=rings, H=h * threshold_H0(rings)))
        unit = math.ldexp(1.0, math.frexp(R)[1])
        assert sol.residual <= DEFAULT_ROOT_TOL * unit


def _g_zero_in_ring_units(r, R, a, b, H):
    """solve_c's g(0), the cap's rise from (r, 0) to R less |b - a|, and
    root_tol, in the ring unit."""
    e_u = min(0, math.frexp(R)[1])
    r, R, d = (math.ldexp(x, -e_u) for x in (r, R, abs(b - a)))
    root_tol = max(DEFAULT_ROOT_TOL, 64.0 * math.ulp(math.ldexp(1.0, math.frexp(R)[1])))
    return _height_at(R, math.ldexp(H, e_u), 0.0, (r, 0.0)) - d, root_tol


class TestKnownRoot:
    """At H = H0 (the cap, or the plane for a = b) c = 0 is the root: one g(0)
    confirms it, and only a g(0) beyond root_tol sends the solve to the search."""

    @staticmethod
    def _solve_on_threshold(r, R, a, b, H):
        sol = solve_two_ring(r, R, a, b, H)
        d = sol.diagnostics
        g_zero, root_tol = _g_zero_in_ring_units(r, R, a, b, H)
        if abs(g_zero) > root_tol:
            assert d.g_evals >= 3  # g(0), the barrier end it leaves, an iterate
            return False
        # +0.0 in both orientations: SurfaceParams drops the sign of -0.0
        assert sol.c.hex() == "0x0.0p+0"
        assert sol.regime is classify(H, validate_rings(RingPair(r, R, min(a, b), max(a, b))))
        assert (d.g_evals, d.interpolation_steps, d.bisection_fallbacks,
                d.final_bracket_width) == (1, 0, 0, 0.0)
        return True

    def test_wide_ring_caps_take_one_g(self):
        caps = [case for i, case in enumerate(_wide_ring_pairs()) if i % 4 == 2]
        assert all(self._solve_on_threshold(*case) for case in caps)

    @settings(max_examples=200, deadline=None)
    @given(log_R=st.floats(-8.0, 8.0), log_ratio=st.floats(0.01, 3.0),
           k=st.floats(0.0, 0.99), descending=st.booleans())
    def test_threshold_solves(self, log_R, log_ratio, k, descending):
        R = 10.0 ** log_R
        r = R / 10.0 ** log_ratio
        d = k * (R - r)
        rings = validate_rings(RingPair(r=r, R=R, a=0.0, b=d))
        H = threshold_H0(rings)
        # H0 rounds to 0 for a != b only below the least subnormal: no cap then
        assume(d == 0.0 or _threshold_decimal(r, R, d) >= 5e-324)
        assert classify(H, rings) in (Regime.PLANE, Regime.HYPERBOLIC_CAP)
        a, b = (d, 0.0) if descending else (0.0, d)
        self._solve_on_threshold(r, R, a, b, H)

    def test_g_zero_within_root_tol_beside_H0_is_the_cap(self):
        # g(0) meets root_tol one ulp either side of H0 (1.7e-13 here), and
        # 0 lies in the barrier bracket, so g(0) comes first and c = 0 takes
        # 1 g.  The search once took 47 g on each side: below, the barrier
        # bracket's secant snapped it to 0; above, it ended on c = 9.0e-4
        rings = (137.32376348033716, 1626.0679298311793, 1309.0332594811566, -179.71087145137182)
        h0 = threshold_H0(validate_rings(RingPair(*rings)))
        for H in (np.nextafter(h0, 0.0), h0, np.nextafter(h0, np.inf)):
            sol = solve_two_ring(*rings, float(H))
            assert sol.c == 0.0 and sol.regime is Regime.HYPERBOLIC_CAP
            assert (sol.diagnostics.g_evals, sol.diagnostics.final_bracket_width) == (1, 0.0)

    def test_pinned_near_H0_solve_takes_the_cap(self):
        # H = H0 (1 - 2.9e-9) at slope 1 - 4.7e-9: g is flat within roundoff
        # about c = 0, and the search once ended on c = +1.75e-4, PositiveC,
        # after 55 g
        sol = solve_two_ring(89.51339664633244, 5411.281829489296, 3921.194576210495,
                             -1400.5737388044347, 6.828014417560852)
        assert sol.c == 0.0 and sol.regime is Regime.HYPERBOLIC_CAP
        assert sol.diagnostics.g_evals == 1

    def test_near_H0_probe(self):
        # slopes 1 - 10^(-9..-2) and H within 1e-12..1e-4 relative of H0,
        # both orientations: every regime is classify's, and few g.  Before
        # g(0) came first, these 300 draws took 6978 g (median 21, max 60),
        # and 3 came back with c of the wrong sign; while g formed a + rise - b
        # in ring units, rounding at ulp(a), they took 1085 g
        rng = np.random.default_rng(33)
        evals = []
        for i in range(300):
            R = 10.0 ** rng.uniform(-3.0, 6.0)
            r = R / 10.0 ** rng.uniform(0.01, 3.0)
            d = (1.0 - 10.0 ** rng.uniform(-9.0, -2.0)) * (R - r)
            a = rng.uniform(-1.0, 1.0) * R
            rings = validate_rings(RingPair(r, R, a, a + d))
            H = threshold_H0(rings) * (1.0 + rng.choice([-1.0, 1.0])
                                       * 10.0 ** rng.uniform(-12.0, -4.0))
            sol = solve_two_ring(r, R, *((a + d, a) if i % 2 else (a, a + d)), H)
            assert sol.regime is classify(H, rings)
            evals.append(sol.diagnostics.g_evals)
        assert sum(evals) == 1004  # deterministic
        assert np.median(evals) <= 2 and max(evals) <= 40

    def test_exact_root_far_above_H0_is_not_snapped(self):
        # H = 1.1e151 H0 at slope 1 - 1.1e-10: the search ends on g = 0 at
        # c = 4.2e148, and g(0) = 2.1e-10 also meets root_tol.  A secant
        # across the barrier bracket [4.2e148, 3.7e158] once put 0 within
        # root_tol of that root and snapped it to the cap; g(0) is now taken
        # only inside the barrier bracket
        case = (1.794913332320913e-05, 1.6698176137721965, 1.6697996644305895, 0.0,
                1.3099481989522283e+158)
        sol = solve_two_ring(*case)
        assert sol.regime is Regime.POSITIVE_C is classify(
            case[4], validate_rings(RingPair(case[0], case[1], case[3], case[2])))
        assert sol.c > 4e148 and sol.residual == 0.0
        assert sol.diagnostics.g_evals == 4

    def test_g_zero_beyond_root_tol_takes_the_search(self, monkeypatch):
        # g(0) = 2e-9 at the cap: c = 0 is refused, 0 becomes the bracket's
        # lower end, and the search runs as at any other H; g(0) is not
        # taken again
        cs = []

        def height_at(t, H, c, anchor):
            cs.append(c)
            return _height_at(t, H, c, anchor) + (2e-9 if c == 0.0 else 0.0)

        monkeypatch.setattr("lorentz_cmc.bvp._height_at", height_at)
        sol = solve_two_ring(1.0, 2.0, 0.0, 0.5, threshold_H0(RINGS))
        assert sol.c > 0.0
        assert cs[0] == 0.0 and cs.count(0.0) == 1
        assert sol.diagnostics.g_evals == len(cs) > 3
        assert sol.residual <= DEFAULT_ROOT_TOL


def _threshold_decimal(r, R, d):
    """H0 of rings (r, R) with |b - a| = d, in 60-digit decimal arithmetic."""
    with localcontext() as ctx:
        ctx.prec = 60
        r, R, d = Decimal(r), Decimal(R), Decimal(d)
        return 2 * d / (((R - r) ** 2 - d * d) * ((R + r) ** 2 - d * d)).sqrt()


def _light_cone_grid():
    """R in 1e-8..1e8, R/r in 1.05..1e6, k up to 0.999999 and H/H0 in
    0..1000, with a = 0 and b = k (R - r)."""
    return list(itertools.product((1e-8, 1e-4, 1.0, 1e4, 1e8), (1.05, 10.0, 1e3, 1e6),
                                  (0.5, 0.999, 0.999999),
                                  (0.0, 0.5, 1.0, 10.0, 100.0, 1000.0)))


class TestLightConeGrid:
    @pytest.mark.parametrize("R,ratio,k,h", _light_cone_grid())
    def test_solves_in_the_predicted_regime(self, R, ratio, k, h):
        r = R / ratio
        rings = validate_rings(RingPair(r=r, R=R, a=0.0, b=k * (R - r)))
        H = h * threshold_H0(rings)
        sol = solve_c(PlateauProblem(rings=rings, H=H))
        assert sol.regime is classify(H, rings)


class TestRiseOverflow:
    """Beyond H R = 1e100, and where |c| dwarfs H R^2 and R (which held every
    random draw on which ``rise`` overflowed), g is the light-cone limit;
    elsewhere ``rise``."""

    # g was nan on the first four: the first solve never stopped, the rest
    # returned a nan residual; on the last rise was finite and wrong, and the
    # solve returned a c whose f(R) missed b by 278 (against 60-digit mpmath)
    @pytest.mark.parametrize("case", [(1e-200, 1.0, 0.0, 0.5, 1e150),
                                      (1.0, 2.0, 0.0, 0.5, 1e160),
                                      (1.0, 2.0, 0.5, 0.0, 1e160),
                                      (1e-3, 2e-3, 0.0, 5e-4, 1e163),
                                      (214.5627032642785, 1012.522937824643, -122.07462289873308,
                                       323.37596552492437, 2.460555614152022e+100)])
    def test_solves_near_the_light_cone_limit(self, case):
        r, R, a, b, H = case
        start = time.perf_counter()
        sol = solve_two_ring(*case)
        assert time.perf_counter() - start < 1.0
        assert math.isfinite(sol.residual) and sol.residual <= DEFAULT_ROOT_TOL
        assert abs(sol.curve.height(R) - b) == sol.residual
        # as H grows the profile tends to the light cones through both rings,
        # which cross at t = (R + r - |b - a|) / 2, the kink sqrt(c / H)
        limit = H * ((R + r - abs(b - a)) / 2.0) ** 2
        assert abs(sol.c - limit) <= 1e-6 * limit

    # H R log-uniform in 1e101..1e291 with H R^2 finite.  With the panels or
    # rise there, 25 of 256 seeded draws with H R in 1e100..1e104 raised and
    # one returned a c whose f(R) missed b by 278 (against 60-digit mpmath)
    @settings(max_examples=150, deadline=None)
    @given(log_r=st.floats(-8.0, 4.0), log_ratio=st.floats(math.log10(1.02), 4.0),
           k=st.floats(0.0, 0.9999999), descending=st.booleans(),
           decade=st.integers(101, 290), frac=st.floats(0.0, 1.0))
    def test_beyond_the_trust_bound_the_kink_is_where_the_light_cones_cross(
            self, log_r, log_ratio, k, descending, decade, frac):
        r = 10.0 ** log_r
        R = r * 10.0 ** log_ratio
        d = k * (R - r)
        a, b = (d, 0.0) if descending else (0.0, d)
        H = 10.0 ** (decade + frac) / R
        sol = solve_two_ring(r, R, a, b, H)
        e_u = min(0, math.frexp(R)[1])
        root_tol = max(DEFAULT_ROOT_TOL, 64.0 * math.ulp(math.ldexp(1.0, math.frexp(R)[1] - e_u)))
        assert math.isfinite(sol.residual) and sol.residual <= math.ldexp(root_tol, e_u)
        # the profile is within 2 sqrt(2) / H of the cones, so f(R) - b moves the kink
        # sqrt(c / H) by half of it from where they cross, (R + r - |b - a|) / 2
        kink = math.sqrt(sol.c) / math.sqrt(H)
        assert abs(kink - (R + r - d) / 2.0) <= sol.residual / 2.0 + 16 * math.ulp(R)

    # the barrier end H R^2 - m r overflowed to inf, the next iterate was nan,
    # and g ran at c = nan for ever; the ends now stop at half the largest float
    @pytest.mark.parametrize("case", [(1.0, 2e154, 0.0, 1e154, 1.0),
                                      (1.0, 1e8, 0.0, 5e7, 1e293),
                                      (1e8, 1e12, 0.0, 499950000000.0, 1e288)])
    def test_bracket_ends_beyond_the_floats_stop(self, case):
        def expire(signum, frame):
            raise TimeoutError(f"solve_two_ring{case} ran past 5 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(5)
        try:
            sol = solve_two_ring(*case)
        except RootBracketFailure:
            # the last root lies beyond the largest float
            assert case[1] == 1e12
            return
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        r, R, a, b, H = case
        root_tol = max(DEFAULT_ROOT_TOL, 64.0 * math.ulp(math.ldexp(1.0, math.frexp(R)[1])))
        assert math.isfinite(sol.c) and sol.residual <= root_tol
        assert abs(sol.curve.height(R) - b) == sol.residual

    # H R log-uniform in 1e-8..1e300: a decade drawn as an integer, as float
    # draws crowd near simple values and leave most of the decades above 1e100
    @settings(max_examples=150, deadline=None)
    @given(log_r=st.floats(-8.0, 8.0), log_ratio=st.floats(math.log10(1.02), 4.0),
           k=st.floats(0.0, 0.9999999), descending=st.booleans(),
           decade=st.integers(-8, 299), frac=st.floats(0.0, 1.0))
    # an upper bracket end beyond the floats, which once never stopped
    @example(log_r=8.0, log_ratio=4.0, k=0.5, descending=False, decade=299, frac=1.0)
    def test_every_solve_stops_with_a_finite_residual_or_raises(self, log_r, log_ratio, k,
                                                                descending, decade, frac):
        r = 10.0 ** log_r
        R = r * 10.0 ** log_ratio
        d = k * (R - r)
        a, b = (d, 0.0) if descending else (0.0, d)
        try:
            sol = solve_two_ring(r, R, a, b, 10.0 ** (decade + frac) / R)
        except (LorentzCMCError, ValueError):
            return
        e_u = min(0, math.frexp(R)[1])
        root_tol = max(DEFAULT_ROOT_TOL, 64.0 * math.ulp(math.ldexp(1.0, math.frexp(R)[1] - e_u)))
        assert sol.diagnostics.g_evals <= 200
        assert math.isfinite(sol.residual) and sol.residual <= math.ldexp(root_tol, e_u)

    def test_seeded_extreme_draws_stop_within_100_g(self):
        # radii 1e-8..1e12 with R/r up to 1e6, slopes up to 1 - 1e-12 and H R
        # up to 1e300: every solve returns within root_tol or raises, in at
        # most 100 g (84 here; halving c itself at every bisection took 106)
        rng = np.random.default_rng(2032)
        evals = []
        for i in range(20000):
            R = 10.0 ** rng.uniform(-8.0, 12.0)
            r = R / 10.0 ** rng.uniform(0.005, 6.0)
            k = 1.0 - 10.0 ** rng.uniform(-12.0, 0.0) if i % 2 else rng.uniform(0.0, 1.0)
            d = k * (R - r)
            a, b = (d, 0.0) if i % 3 == 0 else (0.0, d)
            H = 10.0 ** rng.uniform(-10.0, 300.0) / R if i % 5 else 0.0
            try:
                sol = solve_two_ring(r, R, a, b, H)
            except LorentzCMCError:
                continue
            e_u = min(0, math.frexp(R)[1])
            root_tol = max(DEFAULT_ROOT_TOL,
                           64.0 * math.ulp(math.ldexp(1.0, math.frexp(R)[1] - e_u)))
            assert sol.residual <= math.ldexp(root_tol, e_u)
            evals.append(sol.diagnostics.g_evals)
        assert len(evals) >= 19800
        assert max(evals) <= 100
