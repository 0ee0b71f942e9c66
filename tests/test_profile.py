import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorentz_cmc import (
    NonPositiveRadius,
    Regime,
    SingularityKind,
    SpacelikeViolation,
    SurfaceParams,
    asymptotic_slope,
    asymptotic_slope_estimate,
    closed_form_hyperbolic,
    closed_form_maximal,
    export_profile_csv,
    first_integral_residual,
    height,
    heights,
    hyperbolic_center_height,
    profile_curve,
    sample_surface,
    singularity_report,
    slope,
    slope_extremum_radius,
)

params_st = st.builds(
    SurfaceParams,
    st.floats(0.0, 10.0),
    st.floats(-10.0, 10.0),
)


def curve_of(H, c, r=1.0, a=0.0, **kw):
    return profile_curve(SurfaceParams(H, c), (r, a), **kw)


class TestSlope:
    def test_formula_value(self):
        # (1 - 3) / sqrt(1 + 4)
        assert slope(1.0, SurfaceParams(1.0, 3.0)) == pytest.approx(
            -2.0 / math.sqrt(5.0), abs=1e-15
        )

    def test_plane_slope_vanishes(self):
        for t in (1e-6, 1.0, 1e6):
            assert slope(t, SurfaceParams(0.0, 0.0)) == 0.0

    def test_zero_crossing_for_positive_c(self):
        # h vanishes exactly where H t^2 = c
        assert slope(math.sqrt(3.0), SurfaceParams(1.0, 3.0)) == pytest.approx(0.0, abs=1e-15)
        assert slope_extremum_radius(SurfaceParams(1.0, 3.0)) == pytest.approx(math.sqrt(3.0))

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(NonPositiveRadius):
            slope(0.0, SurfaceParams(1.0, 3.0))
        with pytest.raises(NonPositiveRadius):
            slope(-1.0, SurfaceParams(1.0, 3.0))

    @settings(max_examples=150)
    @given(params=params_st, logt=st.floats(-6.0, 6.0))
    def test_spacelike_bound_strict(self, params, logt):
        assert abs(slope(10.0**logt, params)) < 1.0

    @settings(max_examples=100)
    @given(
        H=st.floats(0.0, 10.0),
        c1=st.floats(-10.0, 10.0),
        dc=st.floats(1e-3, 10.0),
        logt=st.floats(-2.0, 2.0),
    )
    def test_strictly_decreasing_in_c(self, H, c1, dc, logt):
        t = 10.0**logt
        assert slope(t, SurfaceParams(H, c1)) > slope(t, SurfaceParams(H, c1 + dc))

    def test_extremum_radius_for_negative_c(self):
        # positive slope with a unique interior minimum at sqrt(-c/H)
        params = SurfaceParams(2.0, -3.0)
        star = slope_extremum_radius(params)
        assert star == pytest.approx(math.sqrt(1.5))
        ts = np.linspace(0.1, 4.0, 400)
        ss = np.array([slope(t, params) for t in ts])
        assert np.all(ss > 0.0)
        i_star = int(np.argmin(ss))
        assert ts[i_star] == pytest.approx(star, abs=0.02)
        assert np.all(np.diff(ss[: i_star - 1]) < 0)
        assert np.all(np.diff(ss[i_star + 1:]) > 0)

    def test_increasing_slope_for_positive_c(self):
        params = SurfaceParams(1.0, 3.0)
        ts = np.linspace(0.2, 5.0, 300)
        ss = np.array([slope(t, params) for t in ts])
        assert np.all(np.diff(ss) > 0)


class TestClosedForms:
    def test_maximal_anchor(self):
        assert closed_form_maximal(1.0, 3.0, (1.0, 0.0)) == 0.0

    def test_maximal_value_and_oddness_in_c(self):
        # oracle: integral of -c / sqrt(s^2 + c^2) from 1 to 3
        expected = -3.0 * (math.asinh(1.0) - math.asinh(1.0 / 3.0))
        assert expected == pytest.approx(-1.6617703103468537, abs=1e-12)
        assert closed_form_maximal(3.0, 3.0, (1.0, 0.0)) == pytest.approx(expected, abs=1e-14)
        assert closed_form_maximal(3.0, -3.0, (1.0, 0.0)) == pytest.approx(-expected, abs=1e-14)

    @pytest.mark.parametrize("c", [2.225073858507203e-309, -2.225073858507203e-309, 5e-324])
    @pytest.mark.parametrize("t", [2.0, [1e-300, 0.5, 2.0, 7.0]])
    def test_maximal_subnormal_c_is_finite(self, c, t):
        # t/|c| overflows; asinh(x) - asinh(y) there is log(x/y) = log(t/r)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = closed_form_maximal(t, c, (1.5, 0.0))
            height_got = heights(profile_curve(SurfaceParams(0.0, c), (1.5, 0.0)), t)
        expected = -c * np.log(np.asarray(t) / 1.5)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)
        np.testing.assert_array_equal(height_got, got)

    def test_maximal_requires_nonzero_c(self):
        with pytest.raises(ValueError):
            closed_form_maximal(2.0, 0.0, (1.0, 0.0))

    def test_hyperbolic_anchor_and_value(self):
        assert closed_form_hyperbolic(1.0, 1.0, (1.0, 0.0)) == 0.0
        expected = math.sqrt(5.0) - math.sqrt(2.0)
        assert closed_form_hyperbolic(2.0, 1.0, (1.0, 0.0)) == pytest.approx(expected, abs=1e-14)

    def test_hyperboloid_residual_identity(self):
        # the cap lies on <x - p, x - p> = -1/H^2
        H, anchor = 0.7, (1.3, -0.4)
        p3 = hyperbolic_center_height(H, anchor)
        for t in np.geomspace(0.05, 50.0, 40):
            f = closed_form_hyperbolic(t, H, anchor)
            assert t * t - (f - p3) ** 2 + 1.0 / H**2 == pytest.approx(0.0, abs=1e-9 * max(1.0, t * t))


class TestHeight:
    def test_anchor_is_exact(self):
        for H, c in [(0.0, 0.0), (0.0, 3.0), (1.0, 0.0), (1.0, 3.0), (1.0, -3.0)]:
            assert height(1.5, curve_of(H, c, r=1.5, a=0.25)) == 0.25

    def test_maximal_value_by_quadrature_and_closed_form(self):
        # oracle: arcsinh closed form of the falling c > 0 branch
        expected = -3.0 * (math.asinh(7.0 / 3.0) - math.asinh(1.0 / 3.0))
        cm = curve_of(0.0, 3.0)
        assert height(7.0, cm) == pytest.approx(expected, abs=1e-12)
        assert height(7.0, cm, method="quadrature") == pytest.approx(expected, abs=1e-9)

    def test_hyperbolic_value_both_sides_of_anchor(self):
        cap = curve_of(1.0, 0.0)
        assert height(2.0, cap) == pytest.approx(math.sqrt(5.0) - math.sqrt(2.0), abs=1e-14)
        assert height(0.5, cap) == pytest.approx(math.sqrt(1.25) - math.sqrt(2.0), abs=1e-14)
        assert height(0.5, cap, method="quadrature") == pytest.approx(
            math.sqrt(1.25) - math.sqrt(2.0), abs=1e-9
        )

    def test_quadrature_agrees_with_closed_forms_on_log_grid(self):
        for H, c in [(0.0, 3.0), (0.0, -0.4), (2.0, 0.0)]:
            curve = curve_of(H, c)
            for t in np.geomspace(1e-2, 1e2, 25):
                gap = abs(height(t, curve, method="quadrature")
                          - height(t, curve, method="closed_form"))
                assert gap <= 10.0 * curve.quad_tol

    def test_method_validation(self):
        generic = curve_of(1.0, 3.0)
        with pytest.raises(ValueError):
            height(2.0, generic, method="closed_form")
        with pytest.raises(ValueError):
            height(2.0, generic, method="nonsense")

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(NonPositiveRadius):
            height(0.0, curve_of(1.0, 3.0))

    def test_exhausted_budget_raises(self):
        from lorentz_cmc import QuadratureFailure

        starved = curve_of(1.0, 3.0, quad_tol=1e-14, max_intervals=2)
        with pytest.raises(QuadratureFailure):
            height(100.0, starved, method="quadrature")

    def test_heights_matches_pointwise_height(self):
        curve = curve_of(1.0, 3.0)
        ts = np.concatenate([np.geomspace(0.05, 6.0, 37), [1.0, 1.0, 2.5]])
        batch = heights(curve, ts)
        single = np.array([height(t, curve) for t in ts])
        assert np.max(np.abs(batch - single)) < 5e-10

    def test_oddness_under_parameter_mirror(self):
        # f(t; -H, -c) anchored at -a equals -f(t; H, c) anchored at a
        plus = curve_of(1.0, 3.0, a=0.7)
        minus = curve_of(-1.0, -3.0, a=-0.7)
        assert minus.parity == -1
        for t in (0.3, 1.0, 2.2, 8.0):
            assert height(t, minus) == pytest.approx(-height(t, plus), abs=1e-10)

    @settings(max_examples=30, deadline=None)
    @given(
        H=st.floats(0.1, 5.0),
        c=st.floats(-5.0, 5.0),
        t=st.floats(0.2, 5.0),
    )
    def test_mirror_symmetry_random(self, H, c, t):
        plus = curve_of(H, c, a=0.2)
        minus = curve_of(-H, -c, a=-0.2)
        assert height(t, minus) == pytest.approx(-height(t, plus), abs=1e-9)


class TestSingularity:
    def test_conical_lower_for_positive_c(self):
        rep = singularity_report(curve_of(1.0, 3.0))
        assert rep.limit_slope == -1.0
        assert rep.kind is SingularityKind.CONICAL_LOWER

    def test_conical_upper_for_negative_c(self):
        rep = singularity_report(curve_of(1.0, -3.0))
        assert rep.limit_slope == 1.0
        assert rep.kind is SingularityKind.CONICAL_UPPER

    def test_regular_kinds(self):
        assert singularity_report(curve_of(1.0, 0.0)).kind is SingularityKind.REGULAR_HYPERBOLIC
        assert singularity_report(curve_of(0.0, 0.0)).kind is SingularityKind.REGULAR_PLANE
        assert singularity_report(curve_of(1.0, 0.0)).limit_slope == 0.0

    def test_vertex_heights_closed_forms(self):
        # maximal: a + c * asinh(r/|c|); cap: a + (1 - sqrt(1 + H^2 r^2))/H
        rep = singularity_report(curve_of(0.0, 3.0))
        assert rep.cone_vertex_height == pytest.approx(3.0 * math.asinh(1.0 / 3.0), abs=1e-14)
        rep = singularity_report(curve_of(1.0, 0.0))
        assert rep.cone_vertex_height == pytest.approx(1.0 - math.sqrt(2.0), abs=1e-14)

    def test_vertex_height_by_quadrature_is_finite_and_consistent(self):
        curve = curve_of(1.0, 3.0)
        rep = singularity_report(curve)
        assert math.isfinite(rep.cone_vertex_height)
        # the integrand is bounded by 1, so the vertex is within r of the anchor
        assert abs(rep.cone_vertex_height - curve.anchor_height) <= curve.anchor_radius
        # cross-check against a height very close to the axis
        assert rep.cone_vertex_height == pytest.approx(height(1e-9, curve), abs=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(params=params_st)
    def test_vertex_finite_for_all_params(self, params):
        rep = singularity_report(profile_curve(params, (1.0, 0.0)))
        assert math.isfinite(rep.cone_vertex_height)

    def test_vertex_finite_for_subnormal_c(self):
        # r/|c| overflowed to inf and made the axis height inf
        rep = singularity_report(profile_curve(SurfaceParams(0.0, 2.225073858507203e-309),
                                               (1.0, 0.0)))
        assert rep.cone_vertex_height == pytest.approx(0.0, abs=1e-300)

    def test_mirrored_curve_swaps_cone_kind(self):
        rep = singularity_report(curve_of(-1.0, -3.0))
        assert rep.kind is SingularityKind.CONICAL_UPPER
        assert rep.limit_slope == 1.0


class TestAsymptotics:
    def test_analytic_values(self):
        assert asymptotic_slope(SurfaceParams(1.0, 3.0)) == 1.0
        assert asymptotic_slope(SurfaceParams(0.0, 3.0)) == 0.0
        assert asymptotic_slope(SurfaceParams(2.0, -5.0)) == 1.0

    def test_large_radius_estimate_positive_H(self):
        est = asymptotic_slope_estimate(curve_of(1.0, 3.0), T=1e6)
        assert abs(est - 1.0) < 1e-3

    def test_large_radius_estimate_maximal(self):
        # logarithmic growth: |f(T)|/T ~ |c| ln(2T/|c|) / T
        est = asymptotic_slope_estimate(curve_of(0.0, 3.0), T=1e6)
        assert abs(est) < 1e-3
        margin = 3.0 * math.log(2e6 / 3.0) / 1e6
        assert abs(est) < 2.0 * margin


class TestFirstIntegralResidual:
    def test_small_on_closed_form_profile(self):
        res = first_integral_residual(1.5, curve_of(0.0, 3.0), fd_step=1e-4)
        assert abs(res) < 1e-6

    def test_exact_slope_solves_conservation_law(self):
        # the slope formula is the algebraic solution of the conservation law
        for H, c, t in [(1.0, 3.0, 1.0), (0.5, -2.0, 2.0), (0.0, 3.0, 0.7)]:
            s = slope(t, SurfaceParams(H, c))
            residual = H * t * t - t * s / math.sqrt(1.0 - s * s) - c
            assert abs(residual) < 1e-12 * max(1.0, abs(c), H * t * t)

    def test_crossing_the_axis_raises(self):
        with pytest.raises(SpacelikeViolation):
            first_integral_residual(0.01, curve_of(1.0, 3.0), fd_step=0.02)

    def test_noise_dominated_step_near_the_cone_raises(self):
        # this deep in the cone the true slope sits within quadrature noise
        # of -1, so the differenced estimate crosses the light cone
        with pytest.raises(SpacelikeViolation):
            first_integral_residual(1e-6, curve_of(1.0, 3.0), fd_step=5e-7)

    @pytest.mark.parametrize("fd_step", [math.nan, math.inf, 0.0, -1e-5])
    def test_step_must_be_finite_and_positive(self, fd_step):
        # a nan step once raised a misleading QuadratureFailure
        with pytest.raises(ValueError, match="fd_step"):
            first_integral_residual(2.0, curve_of(1.0, 3.0), fd_step=fd_step)

    def test_nonpositive_radius(self):
        with pytest.raises(NonPositiveRadius):
            first_integral_residual(-1.0, curve_of(1.0, 3.0))

    def test_scaling_with_step(self):
        curve = curve_of(1.0, -2.0, quad_tol=1e-13)
        coarse = abs(first_integral_residual(2.0, curve, fd_step=1e-2))
        fine = abs(first_integral_residual(2.0, curve, fd_step=1e-3))
        assert fine < coarse


class TestCurveApi:
    def test_oriented_parameters(self):
        curve = curve_of(-1.0, 3.0)
        assert curve.params == SurfaceParams(1.0, -3.0)
        assert curve.mean_curvature == -1.0
        assert curve.first_integral == 3.0

    def test_regimes_assigned(self):
        assert curve_of(0.0, 0.0).regime is Regime.PLANE
        assert curve_of(0.0, 1.0).regime is Regime.MAXIMAL_CATENOID
        assert curve_of(2.0, 0.0).regime is Regime.HYPERBOLIC_CAP
        assert curve_of(2.0, -1.0).regime is Regime.NEGATIVE_C
        assert curve_of(2.0, 1.0).regime is Regime.POSITIVE_C

    def test_anchor_radius_must_be_positive(self):
        with pytest.raises(NonPositiveRadius):
            curve_of(1.0, 0.0, r=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_quad_tol_rejected(self, value):
        # a nan quad_tol never triggered refinement: heights at t = 50 came
        # out 0.1146 off without an error
        with pytest.raises(ValueError, match="quad_tol"):
            curve_of(1.0, 3.0, quad_tol=value)

    @pytest.mark.parametrize("value", [0, -1, 2.5, True])
    def test_bad_max_intervals_rejected(self, value):
        with pytest.raises(ValueError, match="max_intervals"):
            curve_of(1.0, 3.0, max_intervals=value)

    def test_slopes_match_slope(self):
        curve = curve_of(1.0, 3.0)
        ts = np.geomspace(0.1, 10.0, 17)
        assert np.allclose(curve.slopes(ts), [curve.slope(t) for t in ts], atol=1e-15)


_CURVE = curve_of(1.0, 3.0)


class TestNonFiniteRadii:
    # each of these once ran with another meaning: a nan sample written as
    # the axis row, a nan curve, a bare OverflowError, nan heights or mesh
    @pytest.mark.parametrize("call", [
        lambda: export_profile_csv(_CURVE, [math.nan]),
        lambda: export_profile_csv(_CURVE, [1.0, math.inf]),
        lambda: profile_curve(SurfaceParams(1.0, 3.0), (math.nan, 0.0)),
        lambda: profile_curve(SurfaceParams(1.0, 3.0), (math.inf, 0.0)),
        lambda: profile_curve(SurfaceParams(1.0, 3.0), (1.0, math.nan)),
        lambda: height(math.inf, _CURVE),
        lambda: height(math.nan, _CURVE),
        lambda: heights(_CURVE, [2.0, math.inf]),
        lambda: heights(_CURVE, [2.0, math.nan]),
        lambda: sample_surface(_CURVE, (1.0, math.inf), 3, 4),
        lambda: slope(math.inf, SurfaceParams(1.0, 3.0)),
        lambda: _CURVE.slopes([1.0, math.nan]),
        lambda: first_integral_residual(math.inf, _CURVE),
    ], ids=["csv-nan", "csv-inf", "anchor-r-nan", "anchor-r-inf", "anchor-a-nan",
            "height-inf", "height-nan", "heights-inf", "heights-nan", "mesh-inf",
            "slope-inf", "slopes-nan", "residual-inf"])
    def test_rejected_with_value_error(self, call):
        with pytest.raises(ValueError):
            call()
