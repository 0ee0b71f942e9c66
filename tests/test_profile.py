import contextlib
import dataclasses
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad as scipy_quad

from lorentz_cmc import (
    LorentzCMCError,
    NonPositiveRadius,
    ProfileCurve,
    Regime,
    SingularityKind,
    SpacelikeViolation,
    SurfaceParams,
    asymptotic_slope,
    core,
    export_obj,
    export_profile_csv,
    first_integral_residual,
    height,
    heights,
    integrate,
    load_obj,
    profile,
    profile_curve,
    quadrature,
    sample_surface,
    singularity_report,
    slope,
    slope_extremum_radius,
    solve_two_ring,
)

from test_quadrature import heights_taken

EPS = np.finfo(float).eps

params_st = st.builds(
    SurfaceParams,
    st.floats(0.0, 10.0),
    st.floats(-10.0, 10.0),
)


def curve_of(H, c, r=1.0, a=0.0, **kw):
    return profile_curve(SurfaceParams(H, c), (r, a), **kw)


@contextlib.contextmanager
def quadrature_only():
    """Context in which every regime, closed-form ones too, takes ``rise`` at
    one radius and the quadrature branch at an array of radii."""
    with mock.patch.object(core, "_closed_form", lambda *args: None):
        yield


@contextlib.contextmanager
def without_the_array_engine():
    """Context in which ``heights``, ``panel_sums`` and ``integrate`` raise."""
    def entered(*args, **kwargs):
        raise AssertionError("the scalar path entered the array engine")

    with contextlib.ExitStack() as stack:
        for module, name in ((profile, "heights"), (profile, "panel_sums"),
                             (quadrature, "integrate")):
            stack.enter_context(mock.patch.object(module, name, entered))
        yield


@st.composite
def regime_curves(draw):
    """A curve in any regime and either parity, lengths of size 2^[-30, 10]."""
    scale = math.ldexp(1.0, draw(st.integers(-30, 10)))
    regime = draw(st.sampled_from(list(Regime)))
    H = draw(st.floats(0.05, 5.0)) / scale if regime in (
        Regime.HYPERBOLIC_CAP, Regime.NEGATIVE_C, Regime.POSITIVE_C) else 0.0
    sign = {Regime.NEGATIVE_C: -1.0, Regime.POSITIVE_C: 1.0,
            Regime.MAXIMAL_CATENOID: draw(st.sampled_from([-1.0, 1.0]))}.get(regime, 0.0)
    c = sign * draw(st.floats(0.05, 3.0)) * scale
    parity = draw(st.sampled_from([-1.0, 1.0]))
    r = scale * 10.0 ** draw(st.floats(-1.0, 1.0))
    a = scale * draw(st.floats(-1.0, 1.0))
    quad_tol = 10.0 ** draw(st.floats(-14.0, -8.0)) * min(1.0, scale)
    curve = curve_of(parity * H, parity * c, r=r, a=a, quad_tol=quad_tol)
    assert curve.regime is regime
    return curve


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
        # the mirror (-H, -c) has its extremum at the same radius, to the bit
        assert (slope_extremum_radius(SurfaceParams(-0.7, -3.1))
                == slope_extremum_radius(SurfaceParams(0.7, 3.1)))

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


def _assert_heights_are_height(H, c, r, a, ts):
    """``heights`` at ``ts`` is ``height`` at each radius to the bit, with no
    numpy warning, on (H, c) through (r, a) and on the mirror (-H, -c) through (r, -a)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for curve in (curve_of(H, c, r, a), curve_of(-H, -c, r, -a)):
            want = np.array([height(t, curve) for t in ts.tolist()])
            assert heights(curve, ts).tobytes() == want.tobytes(), (curve, ts)


class TestClosedForms:
    def test_maximal_anchor(self):
        assert core._closed_form(1.0, 0.0, 3.0, (1.0, 0.0)) == 0.0

    def test_maximal_value_and_oddness_in_c(self):
        # oracle: integral of -c / sqrt(s^2 + c^2) from 1 to 3
        expected = -3.0 * (math.asinh(1.0) - math.asinh(1.0 / 3.0))
        assert expected == pytest.approx(-1.6617703103468537, abs=1e-12)
        for c, want in ((3.0, expected), (-3.0, -expected)):
            assert core._closed_form(3.0, 0.0, c, (1.0, 0.0)) == pytest.approx(want, abs=1e-14)

    @pytest.mark.parametrize("c", [2.225073858507203e-309, -2.225073858507203e-309, 5e-324])
    @pytest.mark.parametrize("t", [2.0, np.array([1e-300, 0.5, 2.0, 7.0])])
    def test_maximal_subnormal_c_is_finite(self, c, t):
        # t/|c| overflows; asinh(x) - asinh(y) there is log(x/y) = log(t/r)
        curve = profile_curve(SurfaceParams(0.0, c), (1.5, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = heights(curve, t)
        expected = -c * np.log(np.asarray(t) / 1.5)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)
        assert got.tobytes() == np.array([height(x, curve) for x in np.ravel(t)]).tobytes()

    def test_maximal_takes_math_for_a_height_and_for_heights(self):
        t, c, (r, a) = 3.0, 1.7, (1.0, 0.25)
        by_math = a - c * (math.asinh(t / c) - math.asinh(r / c))
        curve = profile_curve(SurfaceParams(0.0, c), (r, a))
        for scalar in (t, np.float64(t)):
            got = height(scalar, curve)
            assert type(got) is float and got == by_math
        assert heights(curve, [t]).tobytes() == np.array([by_math]).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(family=st.sampled_from(["plane", "catenoid", "cap"]),
           log_k=st.floats(-320.0, 12.0), sign=st.sampled_from([-1.0, 1.0]),
           log_r=st.floats(-8.0, 8.0), a=st.floats(-1e3, 1e3),
           log_ts=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=20))
    def test_closed_forms_give_heights_the_bits_of_height(self, family, log_k, sign, log_r, a,
                                                         log_ts):
        # plane, maximal catenoid (subnormal c included) and cap: the array
        # path and the scalar path agree to the bit, and so do the mirrors
        k = sign * max(10.0 ** log_k, 5e-324)
        H, c = {"plane": (0.0, 0.0), "catenoid": (0.0, k), "cap": (k, 0.0)}[family]
        _assert_heights_are_height(H, c, 10.0 ** log_r, a, 10.0 ** np.array(log_ts))

    @pytest.mark.parametrize("anchor", [(1.0, 0.0), (1.5, 0.25), (1e-3, -3.0), (1e5, 1e3)])
    def test_closed_forms_give_heights_the_bits_of_height_on_a_log_grid(self, anchor):
        # 81 radii over 16 decades; c and H over 24 decades, subnormal c,
        # 5e-324 and 1e300 included
        ts = np.geomspace(1e-8, 1e8, 81)
        cs = np.concatenate((np.geomspace(1e-12, 1e12, 49),
                             [2.225073858507203e-309, 1e-310, 5e-324]))
        Hs = np.concatenate((np.geomspace(1e-12, 1e12, 49), [5e-324, 1e300]))
        _assert_heights_are_height(0.0, 0.0, *anchor, ts)
        for k in cs.tolist():
            _assert_heights_are_height(0.0, k, *anchor, ts)
        for k in Hs.tolist():
            _assert_heights_are_height(k, 0.0, *anchor, ts)

    def test_plane_keeps_a_negative_zero_anchor_height(self):
        # the cap formula at H = 0 would give -0.0 + (t - r) * 0.0 = +0.0
        # beyond the anchor, and a "0.0" in place of "-0.0" in an OBJ file
        plane = profile_curve(SurfaceParams(0.0, 0.0), (1.0, -0.0))
        for t in (0.5, 2.0):
            assert math.copysign(1.0, height(t, plane)) == -1.0
        assert np.signbit(heights(plane, [0.5, 2.0])).all()

    def test_hyperbolic_anchor_and_value(self):
        assert height(1.0, curve_of(1.0, 0.0)) == 0.0
        expected = math.sqrt(5.0) - math.sqrt(2.0)
        assert height(2.0, curve_of(1.0, 0.0)) == pytest.approx(expected, abs=1e-14)

    def test_hyperbolic_mirror_is_exact(self):
        ts = np.geomspace(0.01, 100.0, 41)
        up = heights(curve_of(0.7, 0.0, r=1.3, a=-0.4), ts)
        down = heights(curve_of(-0.7, 0.0, r=1.3, a=0.4), ts)
        assert np.negative(up).tobytes() == down.tobytes()

    def test_hyperboloid_residual_identity(self):
        # the cap lies on <x - p, x - p> = -1/H^2, centered at height p3
        H, anchor = 0.7, (1.3, -0.4)
        p3 = anchor[1] - math.sqrt(1.0 + (H * anchor[0]) ** 2) / H
        cap = curve_of(H, 0.0, r=anchor[0], a=anchor[1])
        for t in np.geomspace(0.05, 50.0, 40):
            f = height(t, cap)
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
        with quadrature_only():
            assert height(7.0, cm) == pytest.approx(expected, abs=1e-9)

    def test_hyperbolic_value_both_sides_of_anchor(self):
        cap = curve_of(1.0, 0.0)
        assert height(2.0, cap) == pytest.approx(math.sqrt(5.0) - math.sqrt(2.0), abs=1e-14)
        assert height(0.5, cap) == pytest.approx(math.sqrt(1.25) - math.sqrt(2.0), abs=1e-14)
        with quadrature_only():
            assert height(0.5, cap) == pytest.approx(math.sqrt(1.25) - math.sqrt(2.0), abs=1e-9)

    def test_quadrature_agrees_with_closed_forms_on_log_grid(self):
        for H, c in [(0.0, 3.0), (0.0, -0.4), (2.0, 0.0)]:
            curve = curve_of(H, c)
            for t in np.geomspace(1e-2, 1e2, 25):
                closed = height(t, curve)
                with quadrature_only():
                    gap = abs(height(t, curve) - closed)
                assert gap <= 10.0 * curve.quad_tol

    def test_nonpositive_radius_rejected(self):
        with pytest.raises(NonPositiveRadius):
            height(0.0, curve_of(1.0, 3.0))
        with pytest.raises(NonPositiveRadius):
            heights(curve_of(1.0, 3.0), [1.0, -1.0])

    @pytest.mark.parametrize("H,c", [(0.0, 0.0), (0.0, 1.0), (2.0, 0.0), (2.0, -1.0), (2.0, 1.0)])
    def test_heights_rejects_the_axis_in_every_regime(self, H, c):
        # heights has no axis-limit case: t = 0 and -0.0 are rejected before
        # any closed form or panel sees them, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for ts in ([0.0], [2.0, -0.0]):
                with pytest.raises(NonPositiveRadius):
                    heights(curve_of(H, c), ts)

    @pytest.mark.parametrize("H,c", [(0.0, 0.0), (0.0, 1.0), (2.0, 0.0), (2.0, -1.0),
                                     (2.0, 1.0)])
    @pytest.mark.parametrize("ts", [2.0, [], np.geomspace(0.5, 4.0, 6).reshape(2, 3)],
                             ids=["0-d", "empty", "2x3"])
    def test_heights_take_the_shape_of_the_radii_in_every_regime(self, H, c, ts):
        got = heights(curve_of(H, c), ts)
        assert type(got) is np.ndarray and got.dtype == np.float64
        assert got.shape == np.shape(ts)

    def test_integrate_budget_plays_no_part(self, monkeypatch):
        # this segment's panel misses quad_tol = 1e-14 and once went to
        # integrate, which raised QuadratureFailure on a 2-panel budget;
        # now it takes height's engine, within the oracle bound
        curve = curve_of(1.0, 3.0, quad_tol=1e-14)
        want = heights(curve, [100.0])
        monkeypatch.setattr(quadrature, "_PANEL_BUDGET", 2)
        got = heights(curve, [100.0])
        assert got.tobytes() == want.tobytes()
        want = _oracle_height(1.0, 3.0, 1.0, 100.0)
        assert abs(got[0] - want) <= _oracle_bound(curve.quad_tol, 1.0, 100.0, want)

    def test_heights_matches_pointwise_height(self):
        curve = curve_of(1.0, 3.0)
        ts = np.concatenate([np.geomspace(0.05, 6.0, 37), [1.0, 1.0, 2.5]])
        batch = heights(curve, ts)
        single = np.array([height(t, curve) for t in ts])
        assert np.max(np.abs(batch - single)) < 5e-10

    @settings(max_examples=100, deadline=None)
    @given(curve=regime_curves(), log_ratio=st.floats(-6.0, 6.0),
           quadrature=st.booleans())
    def test_height_and_heights_agree_within_quad_tol(self, curve, log_ratio, quadrature):
        # the scalar path (closed form or rise) and the array path (closed
        # form or panels) meet within the heights' tolerance and roundoff
        t = curve.anchor_radius * 10.0 ** log_ratio
        with quadrature_only() if quadrature else contextlib.nullcontext():
            one, batch = height(t, curve), heights(curve, [t])[0]
        scale = max(t, curve.anchor_radius) + abs(curve.anchor_height)
        assert abs(one - batch) <= 2.0 * curve.quad_tol + 64.0 * EPS * scale

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

    @settings(max_examples=100, deadline=None)
    @given(curve=regime_curves())
    def test_vertex_matches_per_regime_formulas(self, curve):
        old = _vertex_by_regime(curve)
        new = singularity_report(curve).cone_vertex_height
        if curve.regime in (Regime.PLANE, Regime.MAXIMAL_CATENOID):
            assert new == old
        elif curve.regime is not Regime.HYPERBOLIC_CAP:
            # rise against integrate at quad_tol
            scale = curve.anchor_radius + abs(curve.anchor_height)
            assert abs(new - old) <= 2.0 * curve.quad_tol + 64.0 * EPS * scale
        elif curve.params.H * curve.anchor_radius >= 0.1:
            # the cap now takes the difference-of-roots form; the old
            # 1 - sqrt(1 + (H r)^2) cancels for small H r
            assert abs(new - old) <= 1e-14 * max(abs(old), abs(curve.anchor_height),
                                                 curve.anchor_radius)

    def test_mirrored_curve_swaps_cone_kind(self):
        rep = singularity_report(curve_of(-1.0, -3.0))
        assert rep.kind is SingularityKind.CONICAL_UPPER
        assert rep.limit_slope == 1.0


def _vertex_by_regime(curve):
    """Axis height f(0+) as singularity_report took it with one branch per
    regime, before it shared the height engine (test-only reference)."""
    p, r, parity = curve.params, curve.anchor_radius, curve.parity
    a_can = parity * curve.anchor_height
    if curve.regime is Regime.PLANE:
        return curve.anchor_height
    if curve.regime is Regime.HYPERBOLIC_CAP:
        return parity * (a_can + (1.0 - math.sqrt(1.0 + (p.H * r) ** 2)) / p.H)
    if curve.regime is Regime.MAXIMAL_CATENOID:
        return parity * (a_can + p.c * math.asinh(r / abs(p.c)))

    def fn(s):
        w = p.H * s * s - p.c
        return w / np.hypot(s, w)

    down = integrate(fn, 0.0, r, tol=curve.quad_tol)
    return curve.anchor_height - parity * down


def _axis_heights(curve):
    """The axis height as the OBJ apex z, the CSV t = 0 row's f and the report give it."""
    obj = export_obj(sample_surface(curve, (0.0, curve.anchor_radius), 2, 3))
    apex = load_obj(obj)[0][0, 2]
    row = export_profile_csv(curve, [0.0, curve.anchor_radius]).decode("ascii").split("\r\n")[1]
    return apex, float(row.split(",")[1]), singularity_report(curve).cone_vertex_height


class TestScalarHeight:
    """``height`` and the axis height take the closed form, ``rise`` or its
    light-cone limit (the solver's f(R)), never panels; the mesh apex and the
    CSV axis row are the report's axis height, and ``heights`` takes panels
    where it can trust them."""

    @staticmethod
    def _quad_height(H, c, r, t):
        """f(t) - f(r) by scipy, with breakpoints at |c| and sqrt(|c| / H)."""
        lo, hi = sorted((r, t))
        points = [p for p in (abs(c), math.sqrt(abs(c) / abs(H))) if lo < p < hi]
        val, _ = scipy_quad(lambda s: float(profile._slope_raw(s, H, c)), lo, hi,
                            points=points or None, epsabs=1e-15, epsrel=1e-13, limit=500)
        return val if t > r else -val

    def test_axis_height_where_panels_are_fooled(self):
        # the panel engine's axis height is 6.7e-8 (665 quad_tol) too low here
        H, c, r = 111.7436280818775, 7.769016774406215e-09, 0.7385547820848464
        vertex = singularity_report(curve_of(H, c, r=r)).cone_vertex_height
        assert abs(vertex - self._quad_height(H, c, r, 0.0)) <= 1e-14

    # seeded sparse draws, anchored at (r, 0), on which the panel engine's
    # axis height missed 2 quad_tol + 64 eps r; on the first it read -r
    @pytest.mark.parametrize("H,c,r", [
        (46525984.696395814, 16107843.422533864, 581.9240384830728),
        (-2452187.9547343086, -241165.51054285045, 609.2586446331734),
        (-7459105.194337687, -13551.193351473457, 381.1897907143623),
        (99264171.53880024, 157432.48919863228, 11.989417447508623)])
    def test_apex_and_axis_row_are_the_report_where_panels_are_fooled(self, H, c, r):
        apex, row, vertex = _axis_heights(curve_of(H, c, r=r))
        assert apex == row == vertex
        want = self._quad_height(H, c, r, 0.0)
        assert abs(vertex - want) <= 1e-12 * abs(want)

    @settings(max_examples=100, deadline=None)
    @given(curve=regime_curves())
    def test_apex_and_axis_row_are_the_report_to_the_bit(self, curve):
        mirror = curve_of(-curve.mean_curvature, -curve.first_integral, r=curve.anchor_radius,
                          a=-curve.anchor_height, quad_tol=curve.quad_tol)
        apex, row, vertex = _axis_heights(curve)
        assert apex == row == vertex
        assert _axis_heights(mirror) == (-apex, -row, -vertex)

    def test_height_where_panels_are_fooled(self):
        # one panel over [r, t] reads 2693.284 here; heights takes the kink's
        # segment from height's engine too
        H, c, r, t = 480766.63753108203, 79791704.04781835, 7.401424170715437, 2700.685496770858
        want = self._quad_height(H, c, r, t)
        assert abs(height(t, curve_of(H, c, r=r)) - want) <= 1e-12 * abs(want)
        assert abs(heights(curve_of(H, c, r=r), [t])[0] - want) <= 1e-12 * abs(want)

    @pytest.mark.parametrize("H,c,want", [(1.0, 1e130, -1.0), (1.0, 1e160, -1.0),
                                          (1.0, -1e160, 1.0), (1e160, 1.0, 1.0),
                                          (1e160, -1.0, 1.0)])
    def test_rise_overflow_takes_the_cone_limit(self, H, c, want):
        # rise is nan where H t or |c| / t is huge; there |c| dwarfs H t^2
        # and t, or H t exceeds 1e100, and the light-cone limit answers
        curve = curve_of(H, c)
        assert height(2.0, curve) == want == heights(curve, [2.0])[0]

    # H down to 1e-320, H max(t, r) up to 1e300, |c| up to 1e308, t and r
    # each over 1e+-300.  rise overflows on about 30% of such draws, where
    # the height and the axis height took one-point panels
    @settings(max_examples=300, deadline=None)
    @given(log_r=st.floats(-300.0, 300.0), log_t=st.floats(-300.0, 300.0),
           frac=st.floats(0.0, 1.0), log_c=st.floats(-320.0, 308.0),
           signs=st.tuples(st.booleans(), st.booleans()), a=st.floats(-1e6, 1e6))
    def test_never_enters_the_array_engine(self, log_r, log_t, frac, log_c, signs, a):
        r, t = 10.0 ** log_r, 10.0 ** log_t
        top = min(300.0 - max(log_r, log_t), 308.0)  # H below 1e308 too
        H = 10.0 ** (-320.0 + frac * (top + 320.0))
        c = 10.0 ** log_c
        curve = curve_of(-H if signs[0] else H, -c if signs[1] else c, r=r, a=a)
        with without_the_array_engine():
            assert math.isfinite(height(t, curve))
            assert math.isfinite(singularity_report(curve).cone_vertex_height)

    # H from 1e-320 to H R = 1e300, R up to 1e8 so that H R^2 stays finite.
    # The search may still refuse its last c (LorentzCMCError, 1 of 5000
    # seeded draws), but g never takes the array engine
    @settings(max_examples=150, deadline=None)
    @given(log_r=st.floats(-8.0, 4.0), log_ratio=st.floats(math.log10(1.02), 4.0),
           k=st.floats(0.0, 0.9999999), descending=st.booleans(), frac=st.floats(0.0, 1.0))
    def test_solve_never_enters_the_array_engine(self, log_r, log_ratio, k, descending, frac):
        r = 10.0 ** log_r
        R = r * 10.0 ** log_ratio
        d = k * (R - r)
        a, b = (d, 0.0) if descending else (0.0, d)
        H = 10.0 ** (-320.0 + frac * (620.0 - math.log10(R)))
        with without_the_array_engine():
            try:
                sol = solve_two_ring(r, R, a, b, H)
            except LorentzCMCError:
                return
            vertex = singularity_report(sol.curve).cone_vertex_height
        assert all(map(math.isfinite, (sol.c, sol.residual, vertex)))

    # the panels gave -9.999999999999998e-121 and rise -1.0000000000000002:
    # both profiles are the cone a - sign(c) (t - r) to float64
    @pytest.mark.parametrize("case,c,want", [
        ((1e-120, 1.0, 0.0, 0.5, 1.0), -0.021726954624766332, -1e-120),
        ((1.0, 1e9, 0.0, 5e8, 1e-12), -229314238.72744644, -1.0)])
    def test_axis_height_is_the_cone_to_the_bit(self, case, c, want):
        sol = solve_two_ring(*case)
        assert sol.c == c
        assert singularity_report(sol.curve).cone_vertex_height == want

    # rise gave 1.5e-12 at H R = 4.2e104, finite and wrong, and an axis height
    # 1.2e-7 beyond the light cone |f(0+) - a| <= r; at H R = 2.5e103 it
    # was 278 off.  The values are mpmath quadrature split at the kink
    # sqrt(c / H), at 40 and 60 digits
    @pytest.mark.parametrize("H,c,r,a,t,want", [
        (1.906359864168945e+101, 1.611583224328658e+105, 0.7568639576687938, 0.0,
         2218.582234870558, 2035.450873434548653706),
        (2.460555614152022e+100, 3.7582117724898645e+105, 214.5627032642785,
         -122.07462289873308, 1012.522937824643, 323.37596552492437)])
    def test_beyond_the_trust_bound_height_is_the_light_cone_limit(self, H, c, r, a, t, want):
        curve = curve_of(H, c, r=r, a=a)
        assert abs(height(t, curve) - want) <= 8 * EPS * max(t, abs(a))
        assert abs(singularity_report(curve).cone_vertex_height - a) <= r + 8 * EPS * max(r, abs(a))

    @settings(max_examples=100, deadline=None)
    @given(curve=regime_curves(), log_ratio=st.floats(-6.0, 6.0))
    def test_mirror_negates_to_the_bit(self, curve, log_ratio):
        t = curve.anchor_radius * 10.0 ** log_ratio
        mirror = curve_of(-curve.mean_curvature, -curve.first_integral, r=curve.anchor_radius,
                          a=-curve.anchor_height, quad_tol=curve.quad_tol)
        assert height(t, mirror) == -height(t, curve)
        assert (singularity_report(mirror).cone_vertex_height
                == -singularity_report(curve).cone_vertex_height)

    @pytest.mark.parametrize("t", [1e-320, 5e-324])
    def test_subnormal_radius(self, t):
        # t / r overflowed: heights warned, then integrate raised OverflowError
        curve = curve_of(1.0, 3.0)
        vertex = singularity_report(curve).cone_vertex_height
        assert abs(heights(curve, [t])[0] - vertex) <= 2.0 * curve.quad_tol
        assert abs(height(t, curve) - vertex) <= 1e-15


def _turn_cuts(H, c):
    """Each slope turn (k, w) of the canonical (H, c), the conical (|c|, |c|)
    and where 4 H c > 1 the kink (sqrt(c / H), 1 / (2 H)), as the cuts k and
    k +- w 4^j for j = 0..11."""
    H, c = (-H, -c) if H < 0.0 else (H, c)
    turns = [(abs(c), abs(c))] + ([(math.sqrt(c / H), 0.5 / H)] if 4.0 * H * c > 1.0 else [])
    return {k + sign * w * 4.0 ** j for k, w in turns for sign in (-1.0, 1.0)
            for j in range(12)} | {k for k, _ in turns}


def _oracle_height(H, c, r, t):
    """f(t) through (r, 0) by scipy's quad, independent of ``heights`` and
    ``_height_at``: split at every decade and at ``_turn_cuts``."""
    lo, hi = sorted((r, t))
    decades = {10.0 ** n for n in range(math.ceil(math.log10(lo)), math.floor(math.log10(hi)) + 1)}
    cuts = [lo] + sorted(x for x in _turn_cuts(H, c) | decades if lo < x < hi) + [hi]

    def fn(s):
        w = H * s * s - c
        return w / math.hypot(s, w)

    # full_output: quad's notice that roundoff caps a nearly constant piece
    # short of epsrel is no warning; an oracle that is off fails the test
    total = math.fsum(scipy_quad(fn, u, v, epsabs=1e-15, epsrel=1.2e-14, limit=200,
                                 full_output=1)[0] for u, v in zip(cuts, cuts[1:]))
    return total if t > r else -total


def _oracle_bound(quad_tol, r, t, f):
    """The heights' bound against the oracle: 2 quad_tol + 64 eps max(t, r, |f|)."""
    return 2.0 * quad_tol + 64.0 * EPS * max(t, r, abs(f))


@st.composite
def turn_cases(draw):
    """(H, c, r, ts): H k log-uniform in 1..1e8, r in 1e-3..1e3, the kink
    k = sqrt(c / H) in r 10^+-2 and 1 to 5 radii in r 10^+-2."""
    r = 10.0 ** draw(st.floats(-3.0, 3.0))
    k = r * 10.0 ** draw(st.floats(-2.0, 2.0))
    H = 10.0 ** draw(st.floats(0.0, 8.0)) / k
    ts = draw(st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=5))
    return H, H * k * k, r, [r * 10.0 ** x for x in ts]


@st.composite
def wide_cases(draw):
    """(H, c, r, ts): H in 1e-3..1e3, c of either sign in 1e-3..1e3, r in
    1e-3..1e3, all log-uniform, and two radii in r 10^+-5."""
    H, c, r = (10.0 ** draw(st.floats(-3.0, 3.0)) for _ in range(3))
    ts = draw(st.lists(st.floats(-5.0, 5.0), min_size=2, max_size=2))
    return H, draw(st.sampled_from([-1.0, 1.0])) * c, r, [r * 10.0 ** x for x in ts]


class TestHeightsOracle:
    """``heights`` against scipy's quad split at the slope turns, in both
    orientations, within 2 quad_tol + 64 eps max(t, r, |f|)."""

    @staticmethod
    def _misses(H, c, r, ts, slack=0.0):
        """(t, got, want) of each radius where either orientation misses the bound."""
        wants = [_oracle_height(H, c, r, t) for t in ts]
        out = []
        for sign in (1.0, -1.0):
            curve = curve_of(sign * H, sign * c, r=r)
            for t, got, want in zip(ts, heights(curve, ts).tolist(), wants):
                bound = _oracle_bound(curve.quad_tol, r, t, want) + slack * abs(t - r)
                if not abs(got - sign * want) <= bound:
                    out.append((t, got, sign * want))
        return out

    # one panel over [r, t] read 213.09599722048125 here, 1.70 (0.8%) high;
    # one over [0.1, 1], 146 w short of the kink, read 0.8999999999905058,
    # 5.3e-10 high: it missed the kink's tail
    @settings(max_examples=300, deadline=None)
    @example(case=(7239003.048083176, 360958616.5675055, 6.2108058679110565,
                   [219.30680308839396]))
    @example(case=(3162204.846872675, 3162350.4751406913, 1.0, [0.1]))
    @given(case=turn_cases())
    def test_turns(self, case):
        assert self._misses(*case) == []

    # without the three-decade rule a panel over five decades reads
    # 662873.9115558475 here, 24 times the bound high
    @settings(max_examples=300, deadline=None)
    @example(case=(343.9038524507239, 0.002695773807268733, 10.76672828781602,
                   [662884.6782841397]))
    @given(case=wide_cases())
    def test_wide_segments(self, case):
        assert self._misses(*case, slack=1e-14) == []

    def test_underflowing_segment_tolerance(self):
        # quad_tol / segments underflows to 0 (integrate raised ValueError on
        # that tolerance): every segment keeps its panel only within the
        # roundoff floor, and the heights stay finite and within the bound
        ts = np.geomspace(0.5, 4.0, 100)
        curve = curve_of(1.0, 3.0, quad_tol=5e-324)
        for t, got in zip(ts.tolist(), heights(curve, ts).tolist()):
            want = _oracle_height(1.0, 3.0, 1.0, t)
            assert abs(got - want) <= _oracle_bound(curve.quad_tol, 1.0, t, want)

    # (H, c, radii, the segments taken by _height_at) through (1, 0), one
    # per arm of the turn rule
    @pytest.mark.parametrize("H,c,ts,taken", [
        # the plane with its closed form patched away: no turn, only the
        # segment over more than three decades
        (0.0, 0.0, [0.5, 2.0, 3000.0], [(2.0, 3000.0)]),
        # H c < 0: the conical turn (0.01, 0.01) alone; [1, 2] lies beyond 0.65
        (1.0, -0.01, [0.3, 0.5, 2.0], [(0.3, 0.5), (0.5, 1.0)]),
        # 4 H c = 1: no kink; the conical turn (0.25, 0.25) takes what is wider than 4
        (1.0, 0.25, [2.0, 8.0, 20.0], [(2.0, 8.0), (8.0, 20.0)]),
        # 4 H c = 16: the kink (0.5, 0.125) takes [1, 3.5], the conical turn (1, 1) [3.5, 40]
        (4.0, 1.0, [0.75, 3.5, 40.0], [(1.0, 3.5), (3.5, 40.0)]),
        # the mirror picks the same segments
        (-4.0, -1.0, [0.75, 3.5, 40.0], [(1.0, 3.5), (3.5, 40.0)]),
    ])
    def test_each_arm_of_the_turn_rule(self, H, c, ts, taken):
        with quadrature_only(), heights_taken() as calls:
            got = heights(curve_of(H, c), ts)
            mirrored = heights(curve_of(-H, -c), ts)
        assert calls == taken + taken
        assert (0.0 - mirrored).tobytes() == (got + 0.0).tobytes()  # a zero is +0.0 in both
        for t, f in zip(ts, got.tolist()):
            want = _oracle_height(H, c, 1.0, t)
            assert abs(f - want) <= _oracle_bound(core.DEFAULT_QUAD_TOL, 1.0, t, want)


class TestOverflowingSlope:
    """Beyond t ~ 1.34e154 / sqrt|H|, H t^2 - c overflows and the slope is its sign."""

    CURVES = [(1.0, 3.0), (1.0, -3.0), (-1.0, -3.0), (-1.0, 3.0)]
    RADII = [1e155, 1e200, 1e300]

    @pytest.mark.parametrize("H,c", CURVES)
    def test_slope_is_the_sign(self, H, c):
        # inf / inf gave nan, with overflow and invalid warnings
        want = math.copysign(1.0, H)
        assert [slope(t, SurfaceParams(H, c)) for t in self.RADII] == [want] * 3
        assert list(curve_of(H, c).slopes(self.RADII)) == [want] * 3

    @settings(max_examples=500, deadline=None)
    @given(logt=st.floats(-300.0, 300.0), H=st.floats(allow_nan=False, allow_infinity=False),
           c=st.floats(allow_nan=False, allow_infinity=False))
    def test_scalar_slope_is_the_array_formula_to_the_bit(self, logt, H, c):
        # the scalar slope is the array formula at one radius
        t, params = 10.0 ** logt, SurfaceParams(H, c)
        got, want = slope(t, params), float(profile._slope_raw(t, params.H, params.c))
        assert repr(got) == repr(want)

    def test_finite_bits_stay(self):
        ts = np.geomspace(1e-300, 1e150, 500)
        w = 2.5 * ts * ts - 0.75
        assert np.array_equal(profile._slope_raw(ts, 2.5, 0.75), w / np.hypot(ts, w))
        mixed = profile._slope_raw(np.append(ts, 1e300), 2.5, 0.75)
        assert np.array_equal(mixed[:-1], w / np.hypot(ts, w)) and mixed[-1] == 1.0

    @pytest.mark.parametrize("H,c", CURVES)
    @pytest.mark.parametrize("t", RADII)
    def test_height_grows_as_the_light_cone(self, H, c, t):
        # height(1e300) on (1, 3) raised QuadratureFailure
        r, a = 1.0, 0.5
        curve = curve_of(H, c, r=r, a=a)
        want = a + math.copysign(t - r, H)
        for got in (height(t, curve), heights(curve, [t])[0], heights(curve, [2.0, t])[1]):
            assert abs(got - want) <= 1e-14 * abs(want)

    def test_vertex_from_a_huge_anchor(self):
        # the axis height warned, and raised under -W error
        r = 1.1081346239522108e207
        curve = curve_of(393.9452001822913, -1.276006988426895e-06, r=r)
        vertex = singularity_report(curve).cone_vertex_height
        assert math.isfinite(vertex) and abs(vertex + r) <= 1e-14 * r


# (a, b) on which math.hypot, correctly rounded, is an ulp away from the
# platform libm's hypot (glibc here), which np.hypot and abs of a complex
# both call; the slope w / hypot(t, w) at t = a, w = b moves with it
HYPOT_PINS = [(0.01207653626838816, 0.022336254617906868),
              (36.29296996624467, 106.2828387083431),
              (0.019233700780719586, 0.020169033268874814)]
# H on which math.hypot(1, H) moves the cap's height at t = 1 from r = 2
CAP_PINS = [0.2189826115517852, 0.2219964282935994, 0.8008193398082896]
# 0, or 10^[-300, 300] of either sign: H t^2 - c overflows on many draws
magnitudes = st.one_of(st.just(0.0), st.builds(lambda sign, e: sign * 10.0 ** e,
                                               st.sampled_from([-1.0, 1.0]),
                                               st.floats(-300.0, 300.0)))


class TestLibmHypot:
    """The scalar slope takes abs of a complex, which is libm's hypot, as
    np.hypot is: the bits of the array formula.  The cap takes it too, not
    the correctly rounded math.hypot."""

    @settings(max_examples=1000, deadline=None)
    @given(t=st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e), H=magnitudes, c=magnitudes)
    @example(t=1e300, H=1e300, c=0.0)  # w overflows: the sign
    @example(t=1e300, H=-1e300, c=1e300)
    @example(t=1.5e308, H=0.0, c=-1.5e308)  # w is finite and hypot(t, w) overflows: +0.0
    @example(t=1.5e308, H=0.0, c=1.5e308)  # -0.0
    def test_slope_is_the_array_formula_to_the_bit(self, t, H, c):
        with np.errstate(over="ignore"):  # np.hypot warns where it overflows
            want = float(profile._slope_raw(t, H, c))
        assert repr(slope(t, SurfaceParams(H, c))) == repr(want)

    @settings(max_examples=2000, deadline=None)
    @given(a=st.floats(-1e300, 1e300), b=st.floats(-1e300, 1e300))
    def test_complex_abs_is_numpy_hypot_to_the_bit(self, a, b):
        assert repr(abs(complex(a, b))) == repr(float(np.hypot(a, b)))

    @pytest.mark.parametrize("t,w", HYPOT_PINS)
    def test_slope_is_not_math_hypot(self, t, w):
        assert math.hypot(t, w) != np.hypot(t, w) == abs(complex(t, w))
        assert slope(t, SurfaceParams(0.0, -w)) == w / np.hypot(t, w) != w / math.hypot(t, w)

    @pytest.mark.parametrize("H", CAP_PINS)
    def test_cap_is_not_math_hypot(self, H):
        assert math.hypot(1.0, H) != np.hypot(1.0, H) == abs(complex(1.0, H))
        by_math = (1.0 - 2.0) * (H * 3.0 / (math.hypot(1.0, H) + math.hypot(1.0, 2.0 * H)))
        got = height(1.0, curve_of(H, 0.0, r=2.0))
        assert got == heights(curve_of(H, 0.0, r=2.0), [1.0])[0] != by_math


class TestAsymptotics:
    def test_analytic_values(self):
        assert asymptotic_slope(SurfaceParams(1.0, 3.0)) == 1.0
        assert asymptotic_slope(SurfaceParams(0.0, 3.0)) == 0.0
        assert asymptotic_slope(SurfaceParams(2.0, -5.0)) == 1.0
        assert asymptotic_slope(SurfaceParams(-2.0, 5.0)) == 1.0

    def test_large_radius_estimate_positive_H(self):
        # f(T)/T at a large radius approaches the limit at O(1/T)
        est = height(1e6, curve_of(1.0, 3.0)) / 1e6
        assert abs(est - 1.0) < 1e-3

    def test_large_radius_estimate_maximal(self):
        # logarithmic growth: |f(T)|/T ~ |c| ln(2T/|c|) / T
        est = height(1e6, curve_of(0.0, 3.0)) / 1e6
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

    @pytest.mark.parametrize("t", [2e-5, 1e-4, 1e-3, 1e-2])
    def test_slope_within_quadrature_noise_of_the_cone_raises(self, t):
        # 1 - |f'| ~ (t/c)^2 / 2 is below quad_tol / fd_step = 1e-5 here, where
        # the heights' error can carry the differenced slope across the cone
        with pytest.raises(SpacelikeViolation, match="quad_tol/fd_step"):
            first_integral_residual(t, curve_of(1.0, 3.0))

    def test_roundoff_floor_grows_away_from_the_anchor(self):
        # 1 - |f'| = t^2 / 1e9 and quad_tol / fd_step = 1e-10: the floor
        # 50 eps |t - 1| / fd_step decides, 3.3e-10 at t = 0.7, 5.6e-10 at 0.5
        curve = curve_of(0.0, -math.sqrt(5e8), quad_tol=1e-15)
        for t in (0.7, 1.0, 1.5):
            assert math.isfinite(first_integral_residual(t, curve))
        with pytest.raises(SpacelikeViolation, match="quad_tol/fd_step"):
            first_integral_residual(0.5, curve)

    def test_tighter_quad_tol_clears_the_noise_bound(self):
        res = first_integral_residual(1e-2, curve_of(1.0, 3.0, quad_tol=1e-13))
        assert abs(res) < 1e-5

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

    # a curve built directly once took these: nan or inf heights, and
    # finite heights through an anchor at r = -1
    @pytest.mark.parametrize("r,a,error", [
        (math.nan, 0.0, ValueError), (math.inf, 0.0, ValueError),
        (1.0, math.nan, ValueError), (1.0, -math.inf, ValueError),
        (-1.0, 0.0, NonPositiveRadius), (0.0, 0.0, NonPositiveRadius),
    ])
    def test_bad_anchor_rejected_when_built_directly(self, r, a, error):
        with pytest.raises(error, match="anchor"):
            ProfileCurve(SurfaceParams(1.0, 3.0), r, a)

    @pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
    def test_bad_quad_tol_rejected(self, value):
        # a nan quad_tol never triggered refinement: heights at t = 50 came
        # out 0.1146 off without an error
        with pytest.raises(ValueError, match="quad_tol"):
            curve_of(1.0, 3.0, quad_tol=value)

    def test_orientation_fields_cannot_be_set(self):
        # parity and regime were init fields: PLANE gave heights 0 for (1, 3)
        # and parity=7 scaled every height by 7
        with pytest.raises(TypeError):
            ProfileCurve(SurfaceParams(1.0, 3.0), 1.0, 0.0, 1, Regime.PLANE)
        with pytest.raises(TypeError):
            ProfileCurve(SurfaceParams(1.0, 3.0), 1.0, 0.0, parity=7)
        curve = ProfileCurve(SurfaceParams(1.0, 3.0), 1.0, 0.0)
        assert curve.heights([2.0, 3.0]) == pytest.approx([-0.352, 0.403], abs=1e-3)

    def test_replace_derives_the_orientation_again(self):
        curve = curve_of(1.0, 3.0, a=0.5)
        flipped = dataclasses.replace(curve, surface=SurfaceParams(-1.0, -3.0))
        assert (flipped.params, flipped.parity, flipped.regime) == (
            SurfaceParams(1.0, 3.0), -1, Regime.POSITIVE_C)
        capped = dataclasses.replace(curve, surface=SurfaceParams(1.0, 0.0))
        assert (capped.parity, capped.regime) == (1, Regime.HYPERBOLIC_CAP)
        with pytest.raises(ValueError):
            dataclasses.replace(curve, parity=-1)

    @settings(max_examples=100, deadline=None)
    @given(curve=regime_curves())
    def test_built_directly_equals_profile_curve(self, curve):
        args = (curve.surface, curve.anchor_radius, curve.anchor_height, curve.quad_tol)
        assert ProfileCurve(*args) == profile_curve(args[0], args[1:3], args[3])

    @settings(max_examples=200, deadline=None)
    @given(curve=regime_curves(), log_ratios=st.lists(st.floats(-6.0, 6.0), min_size=1,
                                                    max_size=8))
    def test_mirrored_curve_negates_heights_and_slopes_bitwise(self, curve, log_ratios):
        # (H, c, a) -> (-H, -c, -a) is odd in every operation of the height
        # and slope paths, so the mirror holds to the bit, the axis included;
        # only a zero keeps its sign, as x + (-x) is +0 in both orientations
        def bits(x):
            return (np.asarray(x, dtype=float) + 0.0).tobytes()

        mirror = ProfileCurve(SurfaceParams(-curve.surface.H, -curve.surface.c),
                              curve.anchor_radius, -curve.anchor_height, curve.quad_tol)
        assert mirror.regime is curve.regime
        ts = curve.anchor_radius * 10.0 ** np.array(log_ratios)
        for context in (contextlib.nullcontext(), quadrature_only()):
            with context:
                assert bits(-curve.heights(ts)) == bits(mirror.heights(ts))
        assert bits(-curve.slopes(ts)) == bits(mirror.slopes(ts))
        assert bits(-singularity_report(curve).cone_vertex_height) == \
            bits(singularity_report(mirror).cone_vertex_height)

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
