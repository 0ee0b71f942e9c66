import cmath
import math
import subprocess
import sys

import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.special import elliprd, elliprf

from lorentz_cmc import core, elliptic
from lorentz_cmc.elliptic import _carlson, _carlson_pair, rise
from lorentz_cmc.core import _closed_form, _height_at
from lorentz_cmc.profile import _slope_raw
from lorentz_cmc.quadrature import integrate
from test_console import child_env

EPS = sys.float_info.epsilon
positive = st.floats(1e-10, 1e10)


def _agrees(got, want):
    for g, w in zip(got, want):
        assert abs(g - w) <= 1e-14 * abs(w)


class TestAgainstScipy:
    @settings(max_examples=300, deadline=None)
    @given(x=positive, y=positive, z=positive)
    def test_real_arguments(self, x, y, z):
        _agrees(_carlson(x, y, z), (elliprf(x, y, z), elliprd(x, y, z)))

    @settings(max_examples=300, deadline=None)
    @given(modulus=positive, angle=st.floats(0.0, 0.9 * math.pi), z=positive)
    def test_conjugate_pair(self, modulus, angle, z):
        w = cmath.rect(modulus, angle)
        _agrees(_carlson_pair(w.real, w.imag, z),
                (elliprf(w, w.conjugate(), z), elliprd(w, w.conjugate(), z)))

    # within 1% of the negative real axis scipy loses up to 5e-10 relative
    # (against 40-digit mpmath, the source of these values), where the
    # product form of x + lambda keeps R_F and R_D to 1e-15
    @pytest.mark.parametrize("w,rf,rd", [
        (complex(-542.0, 1.0), 0.35762927212667563, 0.0070265120975099771),
        (complex(-148.0, 0.5), 0.63035106933967803, 0.029526749987620500),
        (complex(-1e4, 1e-2), 0.15884258068251865, 0.00034161891229084757),
    ])
    def test_conjugate_pair_near_the_cut(self, w, rf, rd):
        got_rf, got_rd = _carlson_pair(w.real, w.imag, 1.0)
        assert got_rf == pytest.approx(rf, rel=2e-15)
        assert got_rd == pytest.approx(rd, rel=2e-15)

    @settings(max_examples=300, deadline=None)
    @given(y=positive, z=positive)
    def test_one_zero_argument(self, y, z):
        _agrees(_carlson(0.0, y, z), (elliprf(0.0, y, z), elliprd(0.0, y, z)))


# cmath.sqrt divides its argument by 8 first, so on [2^-1022, 2^-1019) its
# real part can be an ulp off math.sqrt, the correctly rounded root
_SQRT_WINDOW = (sys.float_info.min, 8.0 * sys.float_info.min)


def _real_axis_sqrt(z):
    """cmath.sqrt, with math.sqrt's root on the non-negative real axis."""
    if z.imag == 0.0 and z.real >= 0.0:
        return complex(math.sqrt(z.real), z.imag)
    return cmath.sqrt(z)


def _complex_carlson(x, y, z):
    """R_F and R_D by ``_carlson``'s duplication in complex arithmetic,
    as the library took both regimes before the conjugate pair ran in floats."""
    x, y, z = complex(x), complex(y), complex(z)
    x0, y0, z0 = x, y, z
    spread = 3.0 * max(abs(x - y), abs(y - z), abs(z - x)) / elliptic._TOL
    scale, tail = 1.0, 0.0
    for _ in range(elliptic._MAX_STEPS):
        if scale * spread < abs(x + y + z):
            break
        sx, sy, sz = _real_axis_sqrt(x), _real_axis_sqrt(y), _real_axis_sqrt(z)
        sxy, sxz, syz = sx + sy, sx + sz, sy + sz
        tail += scale / (sz * sxz * syz)
        x, y, z = sxy * sxz / 4.0, sxy * syz / 4.0, sxz * syz / 4.0
        scale /= 4.0
    a_f0, a_d0 = (x0 + y0 + z0) / 3.0, (x0 + y0 + 3.0 * z0) / 5.0
    a_f, a_d = (x + y + z) / 3.0, (x + y + 3.0 * z) / 5.0
    X, Y = scale * (a_f0 - x0) / a_f, scale * (a_f0 - y0) / a_f
    Z = -(X + Y)
    e2, e3 = X * Y - Z * Z, X * Y * Z
    rf = ((1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0)
          / _real_axis_sqrt(a_f))
    X, Y = scale * (a_d0 - x0) / a_d, scale * (a_d0 - y0) / a_d
    Z = -(X + Y) / 3.0
    xy, zz = X * Y, Z * Z
    e2, e3, e4, e5 = xy - 6.0 * zz, (3.0 * xy - 8.0 * zz) * Z, 3.0 * (xy - zz) * zz, xy * zz * Z
    rd = (scale / (a_d * _real_axis_sqrt(a_d))
          * (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0 - 3.0 * e4 / 22.0
             - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0)
          + 3.0 * tail)
    return rf, rd


def _complex_rise(H, c, r, R):
    """``rise`` with every root taken in complex arithmetic, as the
    conjugate-pair regime once took them."""
    return _complex_rise_and_terms(H, c, r, R)[0]


def _complex_rise_and_terms(H, c, r, R):
    """``_complex_rise`` and the sum of the magnitudes of its three terms."""
    rho, k, g = max(r / R, 2.0 ** -511), H * R, c / R
    kg = k * g
    sigma = (1.0 - 2.0 * kg + _real_axis_sqrt(complex(1.0 - 4.0 * kg))) / 2.0
    q, kr = g * g / sigma, k * rho
    x2, y2 = _real_axis_sqrt(sigma + k * k), _real_axis_sqrt(sigma + kr * kr)
    x3, y3 = _real_axis_sqrt(q + 1.0), _real_axis_sqrt(q + rho * rho)
    d = (1.0 - rho) * (1.0 + rho)
    u12, u13, u23 = ((x2 * y3 + rho * y2 * x3) / d, (x3 * y2 + rho * y3 * x2) / d,
                     (rho * x2 * x3 + y2 * y3) / d)
    rf, rd = _complex_carlson(u12 * u12, u13 * u13, u23 * u23)
    terms = abs(k * g * g * rd / 3.0) + abs(k * rho / u23) + abs(g * rf)
    return R * (k * (g * g * rd / 3.0 + rho / u23) - g * rf).real, R * terms


# the band [2^-600, 2^1010) that holds every argument ``rise`` builds
_BAND = (2.0 ** -600, 2.0 ** 1010)
_in_band = st.one_of(st.sampled_from([_BAND[0], 1e-180, 1.0, 1e300, math.nextafter(_BAND[1], 0.0)]),
                     st.floats(*_BAND, exclude_max=True))


class TestRealArithmetic:
    """Real roots run in floats, with the bits of complex arithmetic.

    Complex +, * and / with zero imaginary parts round the real part as the
    float operations do; the roots agree off ``_SQRT_WINDOW``, and on it the
    float path takes the correctly rounded one, as the reference does.
    """

    def test_real_arguments_stay_floats(self):
        assert type(_carlson(1.0, 2.0, 3.0)[0]) is float
        assert type(rise(1.0, 0.25, 1.0, 2.0)) is float

    @settings(max_examples=500, deadline=None)
    @given(x=st.floats(min_value=0.0))
    def test_complex_root_is_the_float_root_off_the_window(self, x):
        assume(not _SQRT_WINDOW[0] <= x < _SQRT_WINDOW[1])
        assert cmath.sqrt(complex(x)).real == math.sqrt(x)

    def test_complex_root_is_off_inside_the_window(self):
        x = 2.2250738585072024e-308
        assert cmath.sqrt(complex(x)).real == math.nextafter(math.sqrt(x), 0.0)

    @settings(max_examples=500, deadline=None)
    @given(x=_in_band, y=_in_band, z=_in_band)
    @example(2.0 ** -600, 2.0 ** -600, 2.0 ** -600)
    @example(2.0 ** -600, 1e300, math.nextafter(2.0 ** 1010, 0.0))
    def test_carlson_floats_match_complex(self, x, y, z):
        assert ([repr(v) for v in _carlson(x, y, z)]
                == [repr(v.real) for v in _complex_carlson(x, y, z)])

    @settings(max_examples=300, deadline=None)
    @given(log_R=st.floats(-300.0, 300.0), log_ratio=st.floats(1e-3, 200.0),
           log_H=st.floats(-300.0, 300.0), u=st.floats(-1.0, 1.0), log_c=st.floats(-300.0, 300.0))
    def test_rise_matches_complex_arithmetic(self, log_R, log_ratio, log_H, u, log_c):
        R, H = 10.0 ** log_R, 10.0 ** log_H
        # c <= 1 / (4H): a fraction of the double root's c, or any c < 0
        c = u / (4.0 * H) if u > 0.0 else -(10.0 ** log_c)
        r = R / 10.0 ** log_ratio
        assume(r > 0.0 and 4.0 * (H * R) * (c / R) <= 1.0)
        assert repr(rise(H, c, r, R)) == repr(_complex_rise(H, c, r, R))

    @pytest.mark.parametrize("H,c,r,R", [(1.0, 0.25, 0.5, 1.0), (0.5, 0.5, 1e-4, 2.0),
                                         (2.0 ** -40, 2.0 ** 38, 1.0, 2.0 ** 30),
                                         (2.0 ** 60, 2.0 ** -62, 2.0 ** -70, 2.0 ** -61)])
    def test_rise_at_the_double_root(self, H, c, r, R):
        assert 4.0 * (H * R) * (c / R) == 1.0
        want = _complex_rise(H, c, r, R)
        assert math.isfinite(want)
        assert repr(rise(H, c, r, R)) == repr(want)


class TestConjugatePair:
    """4Hc > 1 runs in floats, against the complex arithmetic it replaced.

    The closed form's three terms cancel near the kink sqrt(c/H): by up to
    1e4 at large H R with r/R near 1, so neither version can be closer to
    the profile than a few ulp of the largest term.  On 20000 seeded draws
    over this space the two differed by at most 19 eps times the terms' sum
    T (and by 3e-13 (R - r) or less on 98.8% of them), so the bound is
    3e-13 (R - r) + 64 eps T.  Against 60-digit mpmath both miss
    3e-13 (R - r) on about 0.5% of the draws (CHANGES.md).
    """

    @settings(max_examples=300, deadline=None)
    @given(log_R=st.floats(-3.0, 3.0), log_ratio=st.floats(0.01, 4.0),
           log_HR=st.floats(-3.0, 100.0), u=st.floats(0.0, 1.0))
    @example(log_R=0.0, log_ratio=0.01, log_HR=87.4, u=0.2)
    @example(log_R=2.0, log_ratio=1e-2, log_HR=37.3, u=0.99)
    def test_matches_complex_arithmetic(self, log_R, log_ratio, log_HR, u):
        R = 10.0 ** log_R
        r = R / 10.0 ** log_ratio
        H = 10.0 ** log_HR / R
        kink = r + u * (R - r)  # inside (r, R)
        c = H * kink * kink
        assume(4.0 * H * c > 1.0 and r < math.sqrt(c / H) < R)
        want, terms = _complex_rise_and_terms(H, c, r, R)
        assert abs(rise(H, c, r, R) - want) <= 3e-13 * (R - r) + 64.0 * EPS * terms

    def test_no_complex_number_is_formed(self):
        assert not hasattr(elliptic, "cmath")
        assert type(_carlson_pair(1.0, 2.0, 3.0)[0]) is float
        assert type(rise(1.0, 3.0, 1.0, 2.0)) is float

    @pytest.mark.parametrize("H,c,r,R", [(1.0, math.nan, 1.0, 2.0), (math.inf, 0.0, 1.0, 2.0),
                                         (1.0, 3.0, 1.0, math.nan)])
    def test_nan_discriminant_gives_nan(self, H, c, r, R):
        assert math.isnan(rise(H, c, r, R))


class TestDomain:
    """``core._height_at`` sends ``rise`` only k = H R <= ``_RISE_TRUSTED``
    and |g| = |c| / R <= k + ``_CONE_MARGIN``, and there every argument
    ``rise`` builds is in the band the duplication loops take unscaled.

    R is a power of two, so k, g and rho are exact.  The draws reach the
    region's edges: k up to ``_RISE_TRUSTED`` itself, |g| up to k + 2^27 of
    either sign and near the double root 1 / (4k), rho = r / R at 2^-511
    (and t = 0) and at 1 - 2^-53, where d = 1 - rho^2 is smallest.
    """

    @staticmethod
    def _record(monkeypatch, calls):
        """Have ``_carlson`` and ``_carlson_pair`` append (name, arguments) to ``calls``."""
        for name in ("_carlson", "_carlson_pair"):
            def recorded(*args, name=name, carlson=getattr(elliptic, name)):
                calls.append((name, args))
                return carlson(*args)
            monkeypatch.setattr(elliptic, name, recorded)

    @settings(max_examples=1000, deadline=None)
    @given(e=st.integers(-60, 60),
           log_k=st.one_of(st.just(math.inf), st.floats(-300.0, 100.0)),
           g_at=st.sampled_from(["edge", "uniform", "double root"]),
           u=st.one_of(st.sampled_from([-1.0, 1.0, 0.5]), st.floats(-1.0, 1.0)),
           sign=st.sampled_from([-1.0, 1.0]),
           rho=st.one_of(st.sampled_from([0.0, 2.0 ** -511, 1.0 - 2.0 ** -53, 0.5]),
                         st.floats(0.0, 1.0, exclude_max=True)))
    @example(e=0, log_k=math.inf, g_at="edge", u=1.0, sign=1.0, rho=1.0 - 2.0 ** -53)
    @example(e=0, log_k=math.inf, g_at="edge", u=1.0, sign=-1.0, rho=1.0 - 2.0 ** -53)
    @example(e=0, log_k=-20.0, g_at="edge", u=1.0, sign=1.0, rho=2.0 ** -511)
    @example(e=0, log_k=math.inf, g_at="double root", u=1e-16, sign=1.0, rho=0.0)
    @example(e=-28, log_k=-1.0, g_at="uniform", u=5e-324, sign=1.0, rho=0.0)  # c = 0: the cap
    def test_rise_builds_arguments_in_the_band(self, e, log_k, g_at, u, sign, rho):
        trusted = core._RISE_TRUSTED
        R = math.ldexp(1.0, e)
        k = min(10.0 ** log_k, trusted)
        g = {"edge": sign * (k + core._CONE_MARGIN),
             "uniform": u * (k + core._CONE_MARGIN),
             "double root": (1.0 + u * 2.0 ** -40) / (4.0 * k)}[g_at]
        H, c = k / R, g * R
        in_region = (c != 0.0 and H * R <= trusted
                     and abs(c) - H * R * R <= core._CONE_MARGIN * R)
        calls = []
        with pytest.MonkeyPatch.context() as monkeypatch:
            self._record(monkeypatch, calls)
            _height_at(rho * R, H, c, (R, 0.0))  # t = 0 where rho = 0
        assert len(calls) == in_region
        for name, args in calls:
            assert all(math.isfinite(v) for v in args)
            # the real regime's three arguments, the pair's z, are positive
            assert all(v > 0.0 for v in (args if name == "_carlson" else args[2:]))
            top = max(abs(v) for v in args)
            assert _BAND[0] <= top < _BAND[1]

    def _top_argument(self, H, c, r, R):
        """The largest |argument| of the one R_F/R_D call ``rise(H, c, r, R)`` makes."""
        calls = []
        with pytest.MonkeyPatch.context() as monkeypatch:
            self._record(monkeypatch, calls)
            rise(H, c, r, R)
        (_, args), = calls
        return max(abs(v) for v in args)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_the_region_corner_stays_below_2_773(self, sign):
        # k at the cap, |g| at the cone margin, rho = 1 - 2^-53 (d smallest):
        # the bound ``rise``'s docstring states, 2^237 inside the band
        k = core._RISE_TRUSTED
        top = self._top_argument(k, sign * (k + core._CONE_MARGIN), 1.0 - 2.0 ** -53, 1.0)
        assert 2.0 ** -514 <= top < 2.0 ** 773

    def test_past_the_cap_the_corner_leaves_the_band(self):
        # the band holds because of ``_RISE_TRUSTED``: at k = 1e140 the same
        # real-root corner overflows its arguments
        k = 1e140
        top = self._top_argument(k, -(k + core._CONE_MARGIN), 1.0 - 2.0 ** -53, 1.0)
        assert not top < _BAND[1]

    # inside the band the loops are homogeneous to the bit (powers of two
    # round alike): R_F scales by 2^-j and R_D by 8^-j when every argument
    # is scaled by 4^j, for any j that keeps the arguments in the band
    @settings(max_examples=200, deadline=None)
    @given(x=st.floats(2.0 ** -10, 2.0 ** 10),
           y=st.one_of(st.just(0.0), st.floats(2.0 ** -10, 2.0 ** 10)),
           z=st.floats(2.0 ** -10, 2.0 ** 10), pair=st.booleans(),
           j=st.one_of(st.sampled_from([-295, 499]), st.integers(-295, 499)))
    def test_scaling_is_exact(self, x, y, z, pair, j):
        carlson = _carlson_pair if pair else _carlson
        rf, rd = carlson(x, y, z)
        got_rf, got_rd = carlson(*(math.ldexp(v, 2 * j) for v in (x, y, z)))
        assert got_rf == math.ldexp(rf, -j)
        if j <= 0:  # scaled up, R_D falls toward the subnormals and rounds there
            assert got_rd == math.ldexp(rd, -3 * j)


# (H, c) from two unit draws u, v, by the regime the closed form must cover
_REGIMES = {
    "Hc below 1/4": lambda u, v, R: (10.0 ** (6.0 * u - 3.0) / R, -10.0 + 10.25 * v),
    "Hc = 1/4": lambda u, v, R: (10.0 ** (6.0 * u - 3.0) / R, 0.25),
    "4Hc >> 1": lambda u, v, R: (10.0 ** (4.0 * u - 1.0) / R, 10.0 ** (4.0 * v)),
}


def _quadrature_rise(H, c, r, R):
    # split at the slope's turn sqrt(c/H), which a panel could step over
    cuts = [r, R]
    if c > 0.0 and r < math.sqrt(c / H) < R:
        cuts.insert(1, math.sqrt(c / H))
    return sum(integrate(lambda s: _slope_raw(s, H, c), lo, hi, tol=1e-13)
               for lo, hi in zip(cuts[:-1], cuts[1:]))


class TestShootingMap:
    """g(c) = f(R; H, c) - b in closed form against ``integrate(tol=1e-13)``.

    Allowed gap: the quadrature's tolerance and its 50 eps (R - r) floor,
    twice over, where the closed form was seen to stay within 2e-15 R.
    """

    @staticmethod
    def _check(H, c, r, R):
        gap = abs(_height_at(R, H, c, (r, 0.0)) - _quadrature_rise(H, c, r, R))
        assert gap <= 2.0 * (1e-13 + 50.0 * EPS * (R - r))

    @settings(max_examples=150, deadline=None)
    @given(log_R=st.floats(-2.0, 7.0), log_ratio=st.floats(0.01, 4.0),
           regime=st.sampled_from(sorted(_REGIMES)), u=st.floats(0.0, 1.0),
           v=st.floats(0.0, 1.0))
    def test_against_quadrature_by_Hc(self, log_R, log_ratio, regime, u, v):
        R = 10.0 ** log_R
        H, hc = _REGIMES[regime](u, v, R)
        assume(hc != 0.0)
        self._check(H, hc / H, R / 10.0 ** log_ratio, R)

    @settings(max_examples=100, deadline=None)
    @given(log_R=st.floats(-2.0, 7.0), log_ratio=st.floats(0.01, 4.0),
           log_H=st.floats(-300.0, -1.0), w=st.floats(-3.0, 3.0))
    def test_H_to_zero_at_fixed_c(self, log_R, log_ratio, log_H, w):
        # below log_H = -154 the square of H underflows
        R = 10.0 ** log_R
        assume(w != 0.0)
        self._check(10.0 ** log_H / R, w * R, R / 10.0 ** log_ratio, R)

    def test_exactly_quarter_and_large_rings(self):
        # Hc = 1/4 exactly (a double root), r = 1e-4, R = 1e6
        for H, c, r, R in ((1.0, 0.25, 1e-4, 1.0), (0.5, 0.5, 1e-4, 1e6),
                           (1e-6, 2.5e5, 1.0, 1e6), (2.0, 0.125, 1e-4, 1e6)):
            assert H * c == 0.25
            self._check(H, c, r, R)


    def test_inner_radius_far_below_R(self):
        # r / R underflows and so does g^2: rho is held at 2^-511, and the
        # rise is the cap's to float64 (c adds about 1e-168)
        rise_cap = _closed_form(2.0, 1.0, 0.0, (5e-324, 0.0))
        assert rise(1.0, 1e-170, 5e-324, 2.0) == pytest.approx(rise_cap, rel=1e-15)

    # rings with 1e-200 <= r < R <= 1e200, H R from 1e-6 to 1e6
    @pytest.mark.parametrize("log_r,log_R", [(lr, lr + d) for lr in range(-200, 200, 25)
                                             for d in (0.2, 3.0, 50.0, 150.0, 400.0)
                                             if lr + d <= 200])
    @pytest.mark.parametrize("log_HR", [-6.0, 0.0, 6.0])
    def test_cap_closed_form_matches_rise_from_1e_minus_200_to_1e200(self, log_r, log_R, log_HR):
        # the closed form once squared R and overflowed above about 1.3e154
        r, R = 10.0 ** log_r, 10.0 ** log_R
        H = 10.0 ** log_HR / R
        assert _closed_form(R, H, 0.0, (r, 0.0)) == pytest.approx(rise(H, 0.0, r, R), rel=1e-14)


def test_import_leaves_scipy_out():
    # the library runs on numpy alone; scipy is a test dependency only
    code = "import sys, lorentz_cmc; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=child_env()).returncode == 0
