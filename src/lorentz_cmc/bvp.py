"""Two-ring Plateau problem: shoot on the first-integral constant.

For fixed H >= 0 and anchor f(r) = a, the outer height f(R; H, c) is a
strictly decreasing function of c (the slope formula is strictly decreasing
in c at every radius) sweeping the open band (a - (R - r), a + (R - r)) as
c runs from +inf to -inf.  Any admissible target b therefore has exactly
one root.  For b >= a it lies in a closed-form barrier bracket: with
k = (b - a)/(R - r) and m = k/sqrt(1 - k^2), the slope is >= k on [r, R]
at c = H r^2 - m R and <= k at c = H R^2 - m r.  The search runs inside
that bracket on the values of g(c) = f(R; H, c) - b alone: each step is
inverse quadratic interpolation through the last three iterates, or the
secant through the last two (Brent 1973, ch. 4; zbrent in Numerical
Recipes 9.3), and the bracket midpoint whenever that step would leave the
bracket or fails to halve the step before last.  Every iterate shrinks the
bracket, so the search keeps bisection's guarantee and needs far fewer
adaptive integrals.  The bracket and the tolerances scale with the rings.

The threshold H0 is the mean curvature of the hyperbolic cap through both
rings; for rising boundary data it splits the solutions three ways:
H < H0 gives c < 0 (profile rises monotonically), H = H0 gives the cap
itself (c = 0), H > H0 gives c > 0 (convex profile dipping below the
boundary planes once sqrt(c/H) falls inside (r, R)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    Regime,
    RingPair,
    SurfaceParams,
    ValidatedRingPair,
    classify_params,
    validate_rings,
)
from .errors import OrientationError, RootBracketFailure, LorentzCMCError
from .profile import ProfileCurve, _slope_raw, profile_curve
from .quadrature import DEFAULT_QUAD_TOL, integrate

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
    (both bracket ends, iterates, snap check), the only integrals a solve
    takes.  ``interpolation_steps`` and ``bisection_fallbacks`` split the
    iterates after the bracket by how they were chosen.
    ``final_bracket_width`` is hi - lo when the search stopped (0.0 when
    g vanished exactly at an evaluated point).
    """

    g_evals: int
    interpolation_steps: int
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
    val = integrate(lambda s: _slope_raw(s, H, c), rings.r, rings.R, tol=quad_tol)
    return rings.a + val


def _interpolation_step(c0, g0, c1, g1, c2, g2):
    """Zero of the inverse interpolant of g through the last iterates.

    Quadratic through (g0, c0), (g1, c1), (g2, c2) when the three g differ,
    else the secant through the first two.  The weights are taken on the
    ratios p = g1/g0 and q = g2/g0 (g0 != 0), which keep their size at every
    ring scale; a zero or non-finite denominator gives nan.
    """
    p, q = g1 / g0, g2 / g0
    if q != p and q != 1.0:
        d1, d2 = (p - 1.0) * (p - q), (q - 1.0) * (q - p)
        if 0.0 < abs(d1) < math.inf and 0.0 < abs(d2) < math.inf:
            return c0 + q / d1 * (c1 - c0) + p / d2 * (c2 - c0)
        return math.nan
    d = 1.0 - p
    return c0 + (c1 - c0) / d if 0.0 < abs(d) < math.inf else math.nan


def solve_c(problem: PlateauProblem) -> PlateauSolution:
    """Find c with f(R; H, c) = b and package the solved profile.

    Descending data (b < a) is solved through the mirror (a, b) ->
    (-a, -b) and un-reflected via the curve's parity.  Tolerances are in
    the ring unit u = min(1, 2^e), R in [2^(e-1), 2^e): g and the curve use
    quad_tol * u, and root_tol * u is floored at 64 ulp(2^e).  The search
    runs on lengths divided by u, a power of two, so rings scaled by 2^j
    (both R < 1/2) take the same steps to the bit, even where their steps
    in c would be subnormal.  It runs inside the barrier bracket and stops
    once f(R) meets b within root_tol and the interpolation step or the
    bracket is within c_tol * max(u, |c|), or when c cannot move by one
    more ulp.  Roots with |c| < 1e-10 * max(u, H R^2) are snapped to
    exactly 0 (the regime split is discontinuous there in floating point)
    whenever the snapped profile still meets the outer ring within
    root_tol.  ``diagnostics`` on the result counts the work done.
    """
    rings = problem.rings
    sign = -1.0 if rings.b < rings.a else 1.0
    # from here on lengths are in the ring unit u = 2^e_u and H in 1/u
    e_u = min(0, math.frexp(rings.R)[1])
    r, R, a, b = (math.ldexp(x, -e_u)
                  for x in (rings.r, rings.R, sign * rings.a, sign * rings.b))
    work = ValidatedRingPair(r=r, R=R, a=a, b=b, slope_bound=rings.slope_bound)
    H = math.ldexp(problem.H, e_u)
    root_tol = max(problem.root_tol, 64.0 * math.ulp(math.ldexp(1.0, math.frexp(R)[1])))
    n_g = n_interp = n_bisect = 0

    def g(c):
        nonlocal n_g
        n_g += 1
        return _outer_height(H, c, work, problem.quad_tol) - b

    # g is strictly decreasing; the barrier ends bound its root, so only
    # quadrature noise can give them the wrong sign
    k = work.slope_bound
    m = k / math.sqrt((1.0 - k) * (1.0 + k))
    lo = H * r * r - m * R
    hi = H * R * R - m * r
    g_lo, g_hi = g(lo), g(hi)
    if g_lo < -root_tol or g_hi > root_tol:
        raise RootBracketFailure(f"barrier bracket [{lo!r}, {hi!r}] gives f(R) - b = "
                                 f"[{g_lo:.3e}, {g_hi:.3e}], beyond root_tol {root_tol:.3e} "
                                 f"(lengths in units of {math.ldexp(1.0, e_u)!r})")

    if g_lo <= 0.0:
        c_hat, g_hat = lo, g_lo
    elif g_hi >= 0.0:
        c_hat, g_hat = hi, g_hi
    else:
        # start at the false-position point of the bracket; the end across
        # the root from it is the first secant partner, given twice so
        # that the first step is a secant
        c_hat = lo + (hi - lo) * (g_lo / (g_lo - g_hi))
        if not lo < c_hat < hi:
            c_hat = 0.5 * (lo + hi)
        g_hat = g(c_hat)
        c_1, g_1 = (hi, g_hi) if g_hat > 0.0 else (lo, g_lo)
        c_2, g_2 = c_1, g_1
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
            c_tol = problem.c_tol * max(1.0, abs(c_hat))
            met = abs(g_hat) <= root_tol
            if met and hi - lo <= c_tol:
                break
            # nan fails every test below and bisects
            nxt = _interpolation_step(c_hat, g_hat, c_1, g_1, c_2, g_2)
            if nxt == c_hat or (met and abs(nxt - c_hat) <= c_tol):
                break  # the interpolation step is within tolerance (or an ulp)
            if lo < nxt < hi and abs(2.0 * (c_hat - nxt)) <= abs(step_before):
                n_interp += 1
            else:
                nxt = 0.5 * (lo + hi)
                if not lo < nxt < hi:
                    break
                n_bisect += 1
            step_before, step = step, c_hat - nxt
            c_2, g_2, c_1, g_1 = c_1, g_1, c_hat, g_hat
            c_hat = nxt
            g_hat = g(c_hat)
    width = hi - lo if g_hat != 0.0 else 0.0

    snap = 1e-10 * max(1.0, H * R * R)
    if c_hat != 0.0 and abs(c_hat) < snap:
        g_zero = g(0.0)
        if abs(g_zero) <= root_tol:
            c_hat, g_hat = 0.0, g_zero

    residual = math.ldexp(abs(g_hat), e_u)
    if abs(g_hat) > root_tol:
        raise LorentzCMCError(
            f"shooting residual {residual:.3e} exceeds root_tol "
            f"{math.ldexp(root_tol, e_u):.3e} (scaled to the rings); quad_tol may be "
            "too loose for this target"
        )

    user_params = SurfaceParams(sign * problem.H, sign * math.ldexp(c_hat, e_u))
    curve = profile_curve(user_params, (rings.r, rings.a),
                          quad_tol=math.ldexp(problem.quad_tol, e_u))
    return PlateauSolution(
        curve=curve,
        c=curve.params.c,
        regime=classify_params(curve.params),
        H0=math.ldexp(threshold_H0(work), -e_u),
        residual=residual,
        diagnostics=SolveDiagnostics(
            g_evals=n_g,
            interpolation_steps=n_interp,
            bisection_fallbacks=n_bisect,
            final_bracket_width=math.ldexp(width, e_u),
        ),
    )


def solve_two_ring(r, R, a, b, H, root_tol=DEFAULT_ROOT_TOL,
                   c_tol=DEFAULT_C_TOL, quad_tol=DEFAULT_QUAD_TOL) -> PlateauSolution:
    """Validate raw ring data and solve in one call."""
    rings = validate_rings(RingPair(r=r, R=R, a=a, b=b))
    problem = PlateauProblem(rings=rings, H=H, root_tol=root_tol,
                             c_tol=c_tol, quad_tol=quad_tol)
    return solve_c(problem)
