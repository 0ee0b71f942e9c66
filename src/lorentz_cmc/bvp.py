"""Two-ring Plateau problem: shoot on the first-integral constant.

For fixed H >= 0 and anchor f(r) = a, the outer height f(R; H, c) is a
strictly decreasing function of c (the slope formula is strictly decreasing
in c at every radius) sweeping the open band (a - (R - r), a + (R - r)) as
c runs from +inf to -inf.  Any admissible target b therefore has exactly
one root.  For b >= a it lies in a closed-form barrier bracket: with
k = (b - a)/(R - r) and m = k/sqrt(1 - k^2), the slope is >= k on [r, R]
at c = H r^2 - m R and <= k at c = H R^2 - m r.  A safeguarded Newton
iteration (rtsafe, Numerical Recipes 9.4) runs inside that bracket on the
explicit c-sensitivity

    df(R)/dc = -integral_r^R s^2 / (s^2 + (H s^2 - c)^2)^{3/2} ds < 0,

taking the bracket midpoint whenever a Newton step would leave the bracket
or fails to halve the step before last.  Every iterate shrinks the bracket,
so the search keeps bisection's guarantee and needs far fewer adaptive
integrals.  The bracket and the tolerances scale with the rings.

The threshold H0 is the mean curvature of the hyperbolic cap through both
rings; for rising boundary data it splits the solutions three ways:
H < H0 gives c < 0 (profile rises monotonically), H = H0 gives the cap
itself (c = 0), H > H0 gives c > 0 (convex profile dipping below the
boundary planes once sqrt(c/H) falls inside (r, R)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    Regime,
    RingPair,
    SurfaceParams,
    ValidatedRingPair,
    classify_params,
    validate_rings,
)
from .errors import OrientationError, RootBracketFailure, LorentzCMCError
from .profile import (
    DEFAULT_MAX_INTERVALS,
    DEFAULT_QUAD_TOL,
    ProfileCurve,
    _slope_raw,
    profile_curve,
)
from .quadrature import integrate

__all__ = [
    "DEFAULT_ROOT_TOL",
    "DEFAULT_C_TOL",
    "PlateauProblem",
    "PlateauSolution",
    "SolveDiagnostics",
    "classify",
    "solve_c",
    "solve_two_ring",
    "threshold_H0",
]

DEFAULT_ROOT_TOL = 1e-9
DEFAULT_C_TOL = 1e-12
# The c-sensitivity only steers Newton (every iterate is checked through g),
# so it is integrated to a relative tolerance of its last magnitude: a
# tolerance tied to quad_tol would stall Newton once |c| is large and
# df/dc is tiny.
_DG_RTOL = 1e-6


@dataclass(frozen=True)
class PlateauProblem:
    """Validated rings plus the prescribed mean curvature H >= 0."""

    rings: ValidatedRingPair
    H: float
    root_tol: float = DEFAULT_ROOT_TOL
    c_tol: float = DEFAULT_C_TOL
    quad_tol: float = DEFAULT_QUAD_TOL

    def __post_init__(self):
        if not isinstance(self.rings, ValidatedRingPair):
            raise TypeError("rings must pass validate_rings first")
        if not math.isfinite(self.H) or self.H < 0.0:
            raise ValueError(
                f"H must be finite and >= 0 (canonicalize first), got {self.H}"
            )
        for name in ("root_tol", "c_tol", "quad_tol"):
            tol = getattr(self, name)
            if not (math.isfinite(tol) and tol > 0.0):
                raise ValueError(f"{name} must be finite and positive, got {tol!r}")


@dataclass(frozen=True)
class SolveDiagnostics:
    """Work done by one ``solve_c`` call.

    ``g_evals`` counts adaptive integrals of the shooting map f(R; H, c)
    (both bracket ends, iterates, snap check) and ``dg_evals`` those of its
    c-sensitivity.  ``newton_steps`` and ``bisection_fallbacks`` split the
    iterates after the bracket by how they were chosen.
    ``final_bracket_width`` is hi - lo when the search stopped (0.0 when
    g vanished exactly at an evaluated point).
    """

    g_evals: int
    dg_evals: int
    newton_steps: int
    bisection_fallbacks: int
    final_bracket_width: float


@dataclass(frozen=True)
class PlateauSolution:
    """Solved curve, its first-integral constant, regime, and diagnostics.

    ``c`` and ``regime`` describe the canonical (H >= 0) representative,
    i.e. ``curve.params``; for descending boundary data (b < a) the curve
    carries parity -1 and ``curve.first_integral`` gives the as-built sign.
    ``H0`` is the cap threshold of the ascending orientation of the rings.
    """

    curve: ProfileCurve
    c: float
    regime: Regime
    H0: float
    residual: float
    diagnostics: SolveDiagnostics


def threshold_H0(rings: ValidatedRingPair):
    """Mean curvature of the hyperbolic cap through both rings.

        H0 = 2 (b - a) / sqrt(((R-r)^2 - (b-a)^2) ((R+r)^2 - (b-a)^2))

    Requires b >= a (reflect heights first otherwise); H0 = 0 iff a = b.
    """
    d = rings.b - rings.a
    if d < 0.0:
        raise OrientationError(
            f"threshold needs b >= a, got a={rings.a}, b={rings.b}; "
            "reflect heights first"
        )
    if d == 0.0:
        return 0.0
    # lengths in units of 2**e ~ R: the squares no longer underflow for
    # rings far below 1, and a power-of-two scale changes no bit elsewhere
    _, e = math.frexp(rings.R)
    d, dr, sr = (math.ldexp(x, -e) for x in (d, rings.R - rings.r, rings.R + rings.r))
    return math.ldexp(2.0 * d / math.sqrt((dr * dr - d * d) * (sr * sr - d * d)), -e)


def classify(H, rings: ValidatedRingPair) -> Regime:
    """Predict the solution regime from (H, H0) without solving.

    Requires b >= a.  Consistency with solve_c is a tested property of the
    solver, not an assumption of this function.
    """
    if H < 0.0:
        raise ValueError(f"H must be >= 0 (canonicalize first), got {H}")
    if rings.b < rings.a:
        raise OrientationError("classification needs b >= a; reflect heights first")
    if H == 0.0:
        return Regime.PLANE if rings.a == rings.b else Regime.MAXIMAL_CATENOID
    h0 = threshold_H0(rings)
    if H < h0:
        return Regime.NEGATIVE_C
    if H == h0:
        return Regime.HYPERBOLIC_CAP
    return Regime.POSITIVE_C


def _outer_height(H, c, rings, quad_tol):
    """f(R; H, c) anchored at f(r) = a, by quadrature."""
    val = integrate(
        lambda s: _slope_raw(s, H, c),
        rings.r,
        rings.R,
        tol=quad_tol,
        max_intervals=DEFAULT_MAX_INTERVALS,
    )
    return rings.a + val


def _outer_sensitivity(H, c, rings, tol):
    """df(R; H, c)/dc = -integral_r^R s^2 / (s^2 + w^2)^{3/2} ds, w = H s^2 - c.

    For 4 H c >= 1 the integrand is a spike of height 1/s* and width about
    1/(2H) at s* = sqrt(c/H), narrower than s* itself, which a Kronrod panel
    can step over without noticing.  There the integral is taken in the
    slope angle phi = arctan(w/s), monotone in s for c > 0, where it is the
    smooth -integral cos^2 phi / sqrt(sin^2 phi + 4 H c cos^2 phi) dphi.
    """
    if 4.0 * H * c >= 1.0:
        k = 2.0 * math.sqrt(H * c)

        def fn(phi):
            cos = np.cos(phi)
            return -(cos * cos) / np.hypot(np.sin(phi), k * cos)

        lo = math.atan2(H * rings.r * rings.r - c, rings.r)
        hi = math.atan2(H * rings.R * rings.R - c, rings.R)
    else:

        def fn(s):
            w = H * s * s - c
            h = np.hypot(s, w)
            q = s / h
            return -(q * q) / h

        lo, hi = rings.r, rings.R
    return integrate(fn, lo, hi, tol=tol, max_intervals=DEFAULT_MAX_INTERVALS)


def solve_c(problem: PlateauProblem) -> PlateauSolution:
    """Find c with f(R; H, c) = b and package the solved profile.

    Descending data (b < a) is solved through the mirror (a, b) ->
    (-a, -b) and un-reflected via the curve's parity.  Tolerances are in
    the ring unit u = min(1, 2^e), R in [2^(e-1), 2^e): g and the curve use
    quad_tol * u, and root_tol * u is floored at 64 ulp(2^e).  The search
    runs inside the barrier bracket and stops once f(R) meets b within
    root_tol and the Newton correction or the bracket is within
    c_tol * max(u, |c|), or when c cannot move by one more ulp.  Roots with
    |c| < 1e-10 * max(u, H R^2) are snapped to exactly 0 (the regime split
    is discontinuous there in floating point) whenever the snapped profile
    still meets the outer ring within root_tol.  ``diagnostics`` on the
    result counts the work done.
    """
    rings = problem.rings
    H = problem.H
    reflected = rings.b < rings.a
    work = rings if not reflected else ValidatedRingPair(
        r=rings.r, R=rings.R, a=-rings.a, b=-rings.b, slope_bound=rings.slope_bound
    )
    # a power of two keeps the scale symmetry (lengths x 2^j, H / 2^j) exact
    scale = math.ldexp(1.0, math.frexp(work.R)[1])
    unit = min(1.0, scale)
    root_tol = max(problem.root_tol * unit, 64.0 * math.ulp(scale))
    quad_tol = problem.quad_tol * unit
    n_g = n_dg = n_newton = n_bisect = 0

    def g(c):
        nonlocal n_g
        n_g += 1
        return _outer_height(H, c, work, quad_tol) - work.b

    # g is strictly decreasing; the barrier ends bound its root, so only
    # quadrature noise can give them the wrong sign
    k = work.slope_bound
    m = k / math.sqrt((1.0 - k) * (1.0 + k))
    lo = H * work.r * work.r - m * work.R
    hi = H * work.R * work.R - m * work.r
    g_lo, g_hi = g(lo), g(hi)
    if g_lo < -root_tol or g_hi > root_tol:
        raise RootBracketFailure(f"barrier bracket [{lo!r}, {hi!r}] gives f(R) - b = "
                                 f"[{g_lo:.3e}, {g_hi:.3e}], beyond root_tol {root_tol:.3e}")

    if g_lo <= 0.0:
        c_hat, g_hat = lo, g_lo
    elif g_hi >= 0.0:
        c_hat, g_hat = hi, g_hi
    else:
        # start at the false-position point of the bracket, whose secant
        # also sizes the first sensitivity tolerance
        dg_scale = (g_lo - g_hi) / (hi - lo)
        c_hat = lo + (hi - lo) * (g_lo / (g_lo - g_hi))
        if not lo < c_hat < hi:
            c_hat = 0.5 * (lo + hi)
        g_hat = g(c_hat)
        step = step_before = hi - lo
        while True:
            if g_hat > 0.0:
                lo = c_hat
            elif g_hat < 0.0:
                hi = c_hat
            else:
                break
            # |c| ~ 1e4 and |df/dc| ~ 1 already make c_tol * |c| worth 1e-8
            # in f(R), so c_tol only ends the search once root_tol is met
            c_tol = problem.c_tol * max(unit, abs(c_hat))
            met = abs(g_hat) <= root_tol
            if met and hi - lo <= c_tol:
                break
            # where df/dc or its tolerance under- or overflows, nxt is nan,
            # which fails every test below and bisects
            dg_tol = _DG_RTOL * dg_scale
            dg = 0.0
            if 0.0 < dg_tol < math.inf:
                dg = _outer_sensitivity(H, c_hat, work, dg_tol)
                n_dg += 1
                dg_scale = abs(dg)
            nxt = c_hat - g_hat / dg if dg != 0.0 and math.isfinite(dg) else math.nan
            if nxt == c_hat or (met and abs(nxt - c_hat) <= c_tol):
                break  # the Newton correction is within tolerance (or an ulp)
            if lo < nxt < hi and abs(2.0 * (c_hat - nxt)) <= abs(step_before):
                n_newton += 1
            else:
                nxt = 0.5 * (lo + hi)
                if not lo < nxt < hi:
                    break
                n_bisect += 1
            step_before, step = step, c_hat - nxt
            c_hat = nxt
            g_hat = g(c_hat)
    width = hi - lo if g_hat != 0.0 else 0.0

    snap = 1e-10 * max(unit, H * work.R * work.R)
    if c_hat != 0.0 and abs(c_hat) < snap:
        g_zero = g(0.0)
        if abs(g_zero) <= root_tol:
            c_hat, g_hat = 0.0, g_zero

    residual = abs(g_hat)
    if residual > root_tol:
        raise LorentzCMCError(
            f"shooting residual {residual:.3e} exceeds root_tol {root_tol:.3e} "
            "(scaled to the rings); quad_tol may be too loose for this target"
        )

    user_params = SurfaceParams(-H, -c_hat) if reflected else SurfaceParams(H, c_hat)
    curve = profile_curve(user_params, (rings.r, rings.a), quad_tol=quad_tol)
    return PlateauSolution(
        curve=curve,
        c=curve.params.c,
        regime=classify_params(curve.params),
        H0=threshold_H0(work),
        residual=residual,
        diagnostics=SolveDiagnostics(
            g_evals=n_g,
            dg_evals=n_dg,
            newton_steps=n_newton,
            bisection_fallbacks=n_bisect,
            final_bracket_width=width,
        ),
    )


def solve_two_ring(r, R, a, b, H, root_tol=DEFAULT_ROOT_TOL,
                   c_tol=DEFAULT_C_TOL, quad_tol=DEFAULT_QUAD_TOL) -> PlateauSolution:
    """Validate raw ring data and solve in one call."""
    rings = validate_rings(RingPair(r=r, R=R, a=a, b=b))
    problem = PlateauProblem(rings=rings, H=H, root_tol=root_tol,
                             c_tol=c_tol, quad_tol=quad_tol)
    return solve_c(problem)
