import math

import pytest
from hypothesis import given, strategies as st

from lorentz_cmc import (
    DegenerateRadii,
    NotSpacelikeSolvable,
    Regime,
    RingPair,
    SurfaceParams,
    ValidatedRingPair,
    canonicalize,
    classify_params,
    validate_rings,
)

finite = st.floats(allow_nan=False, allow_infinity=False, width=32)


class TestValidateRings:
    def test_shallow_rings_pass_with_slope_bound(self):
        v = validate_rings(RingPair(r=1.0, R=2.0, a=0.0, b=0.5))
        assert v.slope_bound == 0.5
        assert (v.r, v.R, v.a, v.b) == (1.0, 2.0, 0.0, 0.5)

    def test_slope_bound_equality_is_rejected(self):
        # the solvability inequality is strict
        with pytest.raises(NotSpacelikeSolvable):
            validate_rings(RingPair(r=1.0, R=2.0, a=0.0, b=1.0))

    def test_swapped_radii_rejected(self):
        with pytest.raises(DegenerateRadii):
            validate_rings(RingPair(r=2.0, R=1.0, a=0.0, b=0.0))

    # a subnormal R once raised a bare OverflowError (1/R) or a quad_tol
    # ValueError (tolerances in ring units underflow to 0) from the solver
    @pytest.mark.parametrize("r,R", [(0.0, 1.0), (-1.0, 1.0), (1.0, 1.0),
                                     (5e-311, 1e-310), (1e-317, 1e-316), (1e-321, 1e-320)])
    def test_degenerate_radii_rejected(self, r, R):
        with pytest.raises(DegenerateRadii):
            validate_rings(RingPair(r=r, R=R, a=0.0, b=0.0))

    def test_descending_rings_validate_symmetrically(self):
        v = validate_rings(RingPair(r=1.0, R=2.0, a=0.5, b=0.0))
        assert v.slope_bound == 0.5

    def test_idempotent(self):
        v1 = validate_rings(RingPair(r=1.0, R=3.0, a=-1.0, b=0.2))
        assert validate_rings(v1) == v1

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            RingPair(r=1.0, R=2.0, a=math.nan, b=0.0)
        with pytest.raises(ValueError):
            ValidatedRingPair(r=1.0, R=2.0, a=math.nan, b=0.0)

    def test_validated_pair_checks_its_own_fields(self):
        assert ValidatedRingPair(1.0, 3.0, -1.0, 0.2) == validate_rings(
            RingPair(r=1.0, R=3.0, a=-1.0, b=0.2))
        with pytest.raises(DegenerateRadii):
            ValidatedRingPair(r=2.0, R=1.0, a=0.0, b=0.5)
        with pytest.raises(NotSpacelikeSolvable):
            ValidatedRingPair(r=1.0, R=2.0, a=0.0, b=1.5)

    @given(
        r=st.floats(0.01, 10.0),
        width=st.floats(0.01, 10.0),
        a=st.floats(-5.0, 5.0),
        s=st.floats(-0.999, 0.999),
    )
    def test_valid_draws_always_pass_with_bound_below_one(self, r, width, a, s):
        v = validate_rings(RingPair(r=r, R=r + width, a=a, b=a + s * width))
        assert 0.0 <= v.slope_bound < 1.0


class TestCanonicalize:
    def test_negative_H_flips_both_signs(self):
        canon, parity = canonicalize(SurfaceParams(-1.0, 3.0))
        assert canon == SurfaceParams(1.0, -3.0)
        assert parity == -1

    def test_nonnegative_H_is_identity(self):
        canon, parity = canonicalize(SurfaceParams(1.0, 3.0))
        assert canon == SurfaceParams(1.0, 3.0)
        assert parity == 1

    def test_zero_H_keeps_c_sign(self):
        # both signs of c are distinct maximal branches
        canon, parity = canonicalize(SurfaceParams(0.0, -2.0))
        assert canon == SurfaceParams(0.0, -2.0)
        assert parity == 1

    @given(H=finite, c=finite)
    def test_idempotent_and_canonical(self, H, c):
        once, parity = canonicalize(SurfaceParams(H, c))
        twice, parity2 = canonicalize(once)
        assert twice == once
        assert parity2 == 1
        assert once.H >= 0.0
        assert parity in (-1, 1)

    def test_non_finite_params_rejected(self):
        with pytest.raises(ValueError):
            SurfaceParams(math.inf, 0.0)
        with pytest.raises(ValueError):
            SurfaceParams(0.0, math.nan)


class TestRegime:
    @pytest.mark.parametrize(
        "H,c,expected",
        [
            (0.0, 0.0, Regime.PLANE),
            (0.0, 3.0, Regime.MAXIMAL_CATENOID),
            (0.0, -3.0, Regime.MAXIMAL_CATENOID),
            (1.0, 0.0, Regime.HYPERBOLIC_CAP),
            (1.0, -2.0, Regime.NEGATIVE_C),
            (1.0, 2.0, Regime.POSITIVE_C),
        ],
    )
    def test_classification(self, H, c, expected):
        assert classify_params(SurfaceParams(H, c)) is expected

    def test_negative_H_classified_via_canonical_representative(self):
        # (-1, 2) mirrors to (1, -2)
        assert classify_params(SurfaceParams(-1.0, 2.0)) is Regime.NEGATIVE_C

    @given(H=finite, c=finite)
    def test_exactly_one_regime(self, H, c):
        regime = classify_params(SurfaceParams(H, c))
        assert isinstance(regime, Regime)

    def test_negative_zero_inputs_normalize(self):
        p = SurfaceParams(-0.0, -0.0)
        assert math.copysign(1.0, p.H) == 1.0
        assert math.copysign(1.0, p.c) == 1.0
        assert classify_params(p) is Regime.PLANE
