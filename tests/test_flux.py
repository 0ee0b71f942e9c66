import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorentz_cmc import (
    NonPositiveRadius,
    SurfaceParams,
    flux_closed_form,
    flux_numeric,
    profile_curve,
)


EPS = sys.float_info.epsilon


def curve_of(H, c, r=1.0, a=0.0):
    return profile_curve(SurfaceParams(H, c), (r, a))


class TestClosedForm:
    def test_reference_split(self):
        res = flux_closed_form(2.0, SurfaceParams(1.0, 3.0))
        assert res.area_term == pytest.approx(8.0 * math.pi, abs=1e-12)
        assert res.conormal_term == pytest.approx(-2.0 * math.pi, abs=1e-12)
        assert res.flux == pytest.approx(6.0 * math.pi, abs=1e-12)

    def test_plane_flux_vanishes(self):
        for r in (0.5, 1.0, 7.0):
            assert flux_closed_form(r, SurfaceParams(0.0, 0.0)).flux == 0.0

    def test_hyperbolic_cap_flux_vanishes(self):
        res = flux_closed_form(1.0, SurfaceParams(1.0, 0.0))
        assert res.flux == pytest.approx(0.0, abs=1e-14)
        assert res.conormal_term == pytest.approx(-2.0 * math.pi, abs=1e-12)
        assert res.area_term == pytest.approx(2.0 * math.pi, abs=1e-12)

    @pytest.mark.parametrize("r", [1e-8, 1.0, 3.0, 1e4, 1e8])
    @pytest.mark.parametrize("H", [0.0, 1.0, -2.5])
    def test_flux_is_exactly_zero_at_c_zero(self, r, H):
        # area + conormal once gave -8.0 at (r, H) = (1e8, 1)
        assert flux_closed_form(r, SurfaceParams(H, 0.0)).flux == 0.0

    def test_flux_is_exactly_two_pi_c(self):
        # area + conormal once gave 6.2831853000e-6 here
        assert flux_closed_form(3.0, SurfaceParams(1.0, 1e-6)).flux == 2.0 * math.pi * 1e-6

    def test_terms_always_sum_to_flux(self):
        # the flux is 2 pi c itself; the terms sum to it up to their roundoff
        res = flux_closed_form(1.7, SurfaceParams(0.4, -2.2))
        assert res.flux == 2.0 * math.pi * -2.2
        gap = abs(res.flux - (res.area_term + res.conormal_term))
        assert gap <= 4.0 * EPS * (abs(res.area_term) + abs(res.conormal_term))

    def test_radius_validation(self):
        with pytest.raises(NonPositiveRadius):
            flux_closed_form(0.0, SurfaceParams(1.0, 1.0))

    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_non_finite_radius_rejected(self, r):
        # a nan radius once gave a nan flux
        with pytest.raises(ValueError):
            flux_closed_form(r, SurfaceParams(1.0, 1.0))


class TestNumeric:
    @pytest.mark.parametrize("r", [math.nan, math.inf])
    def test_non_finite_radius_rejected(self, r):
        with pytest.raises(ValueError):
            flux_numeric(r, curve_of(1.0, 3.0))

    def test_matches_closed_form(self):
        curve = curve_of(1.0, 3.0)
        res = flux_numeric(2.0, curve)
        ref = flux_closed_form(2.0, SurfaceParams(1.0, 3.0))
        assert res.flux == pytest.approx(ref.flux, abs=1e-10)
        assert res.area_term == pytest.approx(ref.area_term, abs=1e-10)
        assert res.conormal_term == pytest.approx(ref.conormal_term, abs=1e-10)

    def test_maximal_curve_splits_into_conormal_only(self):
        # H = 0 kills the area term; the conormal term carries all of 2 pi c
        res = flux_numeric(1.0, curve_of(0.0, 3.0))
        assert res.area_term == 0.0
        assert res.conormal_term == pytest.approx(6.0 * math.pi, abs=1e-10)
        assert res.flux == pytest.approx(6.0 * math.pi, abs=1e-10)

    def test_homology_invariance_across_radii(self):
        curve = curve_of(1.0, 3.0)
        fluxes = [flux_numeric(r, curve).flux for r in (0.5, 1.0, 2.0, 5.0)]
        for f in fluxes[1:]:
            assert f == pytest.approx(fluxes[0], abs=1e-10)

    def test_light_cone_radius(self):
        # the slope rounds to 1 at r = 1e8: -s/sqrt((1-s)(1+s)) divided by 0
        res = flux_numeric(1e8, curve_of(1.0, 0.0))
        assert res.flux == 0.0
        assert res.area_term == -res.conormal_term == pytest.approx(2.0 * math.pi * 1e16)

    @pytest.mark.parametrize("H,c", [(1.0, 3.0), (-1.0, -3.0), (0.0, 2.0)])
    @pytest.mark.parametrize("r", [1e-300, 1e-310, 1e-320, 5e-324])
    def test_tiny_radius_is_finite(self, r, H, c):
        # -(H r^2 - c) / r overflowed below |c| / 1.8e308: the conormal term
        # and the numeric flux were +-inf
        res = flux_numeric(r, curve_of(H, c))
        assert res.conormal_term == pytest.approx(2.0 * math.pi * c, rel=1e-14)
        assert res.flux == pytest.approx(2.0 * math.pi * c, rel=1e-14)

    def test_overflowing_term_makes_the_flux_nan(self):
        # 2 pi H r^2 is beyond the float range at r = 1e200: no warning, a nan sum
        res = flux_numeric(1e200, curve_of(1.0, 3.0))
        assert res.area_term == math.inf and res.conormal_term == -math.inf
        assert math.isnan(res.flux)

    def test_orientation_flip_negates_flux(self):
        plus = flux_numeric(1.0, curve_of(1.0, 3.0))
        minus = flux_numeric(1.0, curve_of(-1.0, -3.0))
        assert minus.flux == pytest.approx(-plus.flux, abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(
        H=st.floats(0.0, 10.0),
        c=st.floats(-10.0, 10.0),
        r=st.floats(0.01, 100.0),
    )
    def test_flux_sign_matches_c(self, H, c, r):
        curve = curve_of(H, c, r=max(r, 0.01))
        res = flux_numeric(r, curve)
        # the slope-mediated conormal term amplifies the roundoff of the
        # slope value by (1 - s^2)^(-3/2); budget for it near the light cone
        s = curve.slope(r)
        eps = np.finfo(float).eps
        budget = 1e-9 + 16.0 * eps * 2.0 * math.pi * r / (1.0 - s * s) ** 1.5
        assert res.flux == pytest.approx(2.0 * math.pi * c, abs=budget)
        if c != 0.0 and abs(2.0 * math.pi * c) > budget:
            assert math.copysign(1.0, res.flux) == math.copysign(1.0, c)

    def test_closed_numeric_agreement_on_moderate_slopes(self):
        # 1e-8 absolute agreement wherever the boundary slope stays clear
        # of lightlike (|s| <= 0.999)
        rng = np.random.default_rng(3)
        checked = 0
        while checked < 40:
            H = 10.0 ** rng.uniform(-2, 2)
            c = rng.uniform(-1, 1) * 10.0 ** rng.uniform(-2, 2)
            r = 10.0 ** rng.uniform(-2, 2)
            curve = curve_of(H, c, r=r)
            if abs(curve.slope(r)) > 0.999:
                continue
            checked += 1
            got = flux_numeric(r, curve)
            ref = flux_closed_form(r, SurfaceParams(H, c))
            assert abs(got.flux - ref.flux) <= 1e-8
            assert abs(got.conormal_term - ref.conormal_term) <= 1e-8
