"""Two-ring Plateau problem: shoot on the first-integral constant.

The problem is invariant under vertical translation: the profile through
(r, a) is a plus its rise from r, so only d = b - a matters.  For fixed
H >= 0 the rise f(R; H, c) of the profile through (r, 0) is a strictly
decreasing function of c (the slope formula is strictly decreasing in c at
every radius) sweeping the open band (-(R - r), R - r) as c runs from +inf
to -inf.  Any admissible d therefore has exactly one root.  For d >= 0 it
lies in a closed-form barrier bracket: with k = d/(R - r) and
m = k/sqrt(1 - k^2), the slope is >= k on [r, R] at c = H r^2 - m R and
<= k at c = H R^2 - m r, each end clamped to half the largest float so
that the bracket's width is finite.  Where it holds 0, and only there,
g(0) = f(R; H, 0) - d comes first, in closed form: within root_tol, c = 0
is the root; else 0 replaces the end that the sign of g(0) rules out.
The search runs inside the bracket on g(c) = f(R; H, c) - d alone, by
Chandrupatla's hybrid (T. R. Chandrupatla, Adv. Eng. Softw. 28 (1997)
145-149): it keeps the newest iterate, the end across the root from it and
the end dropped last, and steps by inverse quadratic interpolation through
these three points where that interpolant is monotone on the bracket, by
bisection otherwise.  A bisection takes the midpoint in asinh(c / r) where
g at an end is over half-way to its limit as c -> +-inf: g is flat there,
and the end can lie decades beyond the root, which halving c would close
one bit a step.  Every iterate shrinks the bracket, so the search keeps
bisection's guarantee.  Each g is ``core``'s scalar height: the cap or
catenoid formula at c = 0 or H = 0; the light cones through the rings beyond
``rise``'s trust bound H R = 1e100 (the profile is within 2 sqrt(2) / H) or
where |c| dwarfs H R^2 and R (within float64); else Carlson's R_F and R_D
(``elliptic.rise``).  So g is never nan and takes no tolerance.  The bracket
and the tolerances scale with the rings.

The threshold H0 is the mean curvature of the hyperbolic cap through both
rings; for rising boundary data it splits the solutions three ways:
H < H0 gives c < 0 (profile rises monotonically), H > H0 gives c > 0
(convex profile dipping below the boundary planes once sqrt(c/H) falls
inside (r, R)), and H = H0, or any H with |g(0)| <= root_tol, the cap.
Descending data is the mirror x3 -> -x3: it flips H, keeps H0 and regime.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .core import (DEFAULT_QUAD_TOL, ProfileCurve, Regime, SurfaceParams, ValidatedRingPair,
                   _height_at, _require_positive, classify_params, profile_curve)
from .errors import RootBracketFailure, LorentzCMCError

__all__ = [
    "DEFAULT_ROOT_TOL",
    "PlateauProblem",
    "PlateauSolution",
    "SolveDiagnostics",
    "classify",
    "solve_c",
    "solve_two_ring",
    "threshold_H0",
]

DEFAULT_ROOT_TOL = 1e-9
_C_TOL = 1e-12  # the search's relative stop width (see solve_c)
# the bracket ends' limit: half the largest float keeps hi - lo finite
_C_MAX = sys.float_info.max / 2.0


@dataclass(frozen=True)
class PlateauProblem:
    """Validated rings plus the prescribed mean curvature H >= 0."""

    rings: ValidatedRingPair
    H: float
    root_tol: float = DEFAULT_ROOT_TOL
    quad_tol: float = DEFAULT_QUAD_TOL

    def __post_init__(self):
        if not isinstance(self.rings, ValidatedRingPair):
            raise TypeError("rings must be a ValidatedRingPair")
        if not math.isfinite(self.H) or self.H < 0.0:
            raise ValueError(
                f"H must be finite and >= 0 (canonicalize first), got {self.H}"
            )
        _require_positive("root_tol", self.root_tol)
        _require_positive("quad_tol", self.quad_tol)


@dataclass(frozen=True)
class SolveDiagnostics:
    """Work done by one ``solve_c`` call.

    ``g_evals`` counts evaluations of the rise f(R; H, c), each in closed
    form: g(0) first wherever the barrier bracket holds 0 and nowhere else,
    the bracket ends (0 in place of the one g(0) rules out), iterates; a
    c = 0 confirmed by g(0) takes 1.
    ``interpolation_steps`` and ``bisection_fallbacks`` split the iterates
    after the bracket by how they were chosen (the false-position start
    counts as interpolation).
    ``final_bracket_width`` is hi - lo when the search stopped (0.0 when
    g vanished exactly at an evaluated point, or when g(0) alone confirmed
    c = 0).
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
    is built with (-H, -c), and ``curve.first_integral`` gives that sign.
    ``H0`` is ``threshold_H0`` of the rings, the same in either orientation.
    """

    curve: ProfileCurve
    c: float
    regime: Regime
    H0: float
    residual: float
    diagnostics: SolveDiagnostics


def threshold_H0(rings: ValidatedRingPair):
    """Mean curvature |H| of the hyperbolic cap through both rings.

        H0 = 2 d / sqrt(((R-r)^2 - d^2) ((R+r)^2 - d^2)),  d = |b - a|

    The rings and their mirror (a, b) -> (-a, -b) give the same bits; H0 = 0
    iff a = b or H0 rounds to 0 (below half the least subnormal), and
    H0 = inf where it exceeds the largest float (small, steep rings).
    """
    r, R, d = rings.r, rings.R, abs(rings.b - rings.a)
    # lengths in units of 2**e ~ R: the squares no longer underflow for
    # rings far below 1, and a power-of-two scale changes no bit elsewhere
    _, e = math.frexp(R)
    s, dr, sr = (math.ldexp(x, -e) for x in (d, R - r, R + r))
    root = math.sqrt((dr * dr - s * s) * (sr * sr - s * s))
    # d scales the result by its own exponent, so a subnormal d keeps its
    # bits; the result rounds once, in solve_c's ring unit 2^min(0, e), then
    # scales exactly, by a product, as ldexp raises where a product is inf
    m, e_d = math.frexp(d)
    e_u = min(0, e)
    return math.ldexp(2.0 * m / root, e_d - 2 * e + e_u) * 2.0 ** -e_u


def _bracket(rings: ValidatedRingPair, H, root_tol):
    """The prelude of solve_c, which classify runs too: the clipped bracket.

    Returns (e_u, r, R, d, H, root_tol, lo, hi, g0): lengths in the ring unit
    u = 2^e_u, H in 1/u, root_tol floored, and g0 = g(0) where the barrier
    bracket holds 0 (m r / R^2 <= H <= m R / r^2, about H0), else None.
    After the clip 0 is never strictly inside [lo, hi]: lo + hi has c's sign.
    """
    # g shoots on the rise d = |b - a| from (r, 0): a ring height scaled into
    # ring units can overflow, and a + rise rounds at ulp(a)
    e_u = min(0, math.frexp(rings.R)[1])
    r, R, d = (math.ldexp(x, -e_u) for x in (rings.r, rings.R, abs(rings.b - rings.a)))
    H = math.ldexp(H, e_u)
    root_tol = max(root_tol, 64.0 * math.ulp(math.ldexp(1.0, math.frexp(R)[1])))
    # g is strictly decreasing; the barrier ends bound its root, so only
    # roundoff can give them the wrong sign
    k = rings.slope_bound
    m = k / math.sqrt((1.0 - k) * (1.0 + k))
    lo, hi = H * r * r - m * R, H * R * R - m * r
    # clamp into [-_C_MAX, _C_MAX]: a nan end (inf - inf) takes the outer
    # limit, and a root beyond the limits fails solve_c's sign check
    lo, hi = max(-_C_MAX, min(lo, _C_MAX)), min(_C_MAX, max(hi, -_C_MAX))
    g0 = None
    if lo <= 0.0 <= hi:
        g0 = _height_at(R, H, 0.0, (r, 0.0)) - d
        if abs(g0) <= root_tol:
            lo = hi = 0.0
        elif g0 < 0.0:
            hi = 0.0
        else:
            lo = 0.0
    return e_u, r, R, d, H, root_tol, lo, hi, g0


def classify(H, rings: ValidatedRingPair) -> Regime:
    """The regime ``solve_two_ring`` returns at the default root_tol, without solving.

    The sign of c is that of solve_c's clipped bracket (``_bracket``) at
    ``DEFAULT_ROOT_TOL``: c = 0 where g(0) meets it, else the sign of g(0)
    or of the whole bracket.  Rings in either orientation give the regime
    of the canonical (H >= 0) representative.
    """
    if not 0.0 <= H < math.inf:
        raise ValueError(f"H must be finite and >= 0 (canonicalize first), got {H}")
    *_, lo, hi, _ = _bracket(rings, H, DEFAULT_ROOT_TOL)
    return classify_params(SurfaceParams(H, lo + hi))


def solve_c(problem: PlateauProblem) -> PlateauSolution:
    """Find c whose profile rises by b - a from r to R; package the solved profile.

    The shooting target is the rise d = |b - a| from the anchor (r, 0).
    Descending data (b < a) is solved through the mirror (a, b) ->
    (-a, -b), and the curve is built with the mirrored (-H, -c).
    Wherever the barrier bracket holds 0, g(0) comes first (``_bracket``):
    c = 0 within root_tol (1 g, no search), else c takes the sign of g(0).
    Tolerances are in the ring unit u = min(1, 2^e), R in [2^(e-1), 2^e):
    root_tol * u is floored at 64 ulp(2^e), and quad_tol * u sets only the
    returned curve's array-path heights, as g is closed form.  The
    search runs on lengths divided by u, a power of two, so rings scaled
    by 2^j (both R < 1/2) take the same steps to the bit.  It stops once
    the rise meets d within root_tol and the next step (so also the bracket)
    is within 1e-12 max(u, |c|), or when c cannot move by an ulp.  A step
    that bisects takes the midpoint of the bracket in asinh(c / r) where g
    at an end is over half-way from 0 to its limit (R - r) - d as
    c -> -inf or -(R - r) - d as c -> inf, else in c.  If the bracket
    closes on a newest iterate beyond root_tol, its other end is taken
    where it meets root_tol.  ``residual`` is |g| at the returned c, in
    the rings' units: the returned surface's rise from (r, 0) to R misses
    b - a by it, and ``curve.height(R)``, a plus that rise, misses b by at
    most the residual plus the roundings of b - a and of that sum.
    ``diagnostics`` on the result counts the work done.
    """
    rings = problem.rings
    sign = -1.0 if rings.b < rings.a else 1.0
    e_u, r, R, d, H, root_tol, lo, hi, g0 = _bracket(rings, problem.H, problem.root_tol)
    n_g, n_interp, n_bisect = int(g0 is not None), 0, 0

    def g(c):
        nonlocal n_g
        n_g += 1
        return _height_at(R, H, c, (r, 0.0)) - d

    # 0 is an end only where g(0) was taken
    g_lo = g0 if lo == 0.0 else g(lo)
    g_hi = g0 if hi == 0.0 else g(hi)
    if g_lo < -root_tol or g_hi > root_tol:
        raise RootBracketFailure(f"barrier bracket [{lo!r}, {hi!r}] gives f(R) - b = "
                                 f"[{g_lo:.3e}, {g_hi:.3e}], beyond root_tol {root_tol:.3e} "
                                 f"(lengths in units of {math.ldexp(1.0, e_u)!r})")

    c_hat, g_hat, x2, g2 = lo, g_lo, hi, g_hi
    if g_lo > 0.0 and g_hi >= 0.0:
        c_hat, g_hat, x2, g2 = hi, g_hi, lo, g_lo
    elif g_lo > 0.0:
        # Chandrupatla's iteration: c_hat is the newest iterate, [c_hat, x2]
        # brackets the root, x3 is the end dropped last, and the next
        # iterate is c_hat + t (x2 - c_hat), the first at false position
        t, c_tol, interpolated = g_lo / (g_lo - g_hi), 0.0, True
        # a bisection halves [c_hat, x2] in asinh(c / r) (c where |c| << r,
        # log |c| beyond) where g at an end is over half-way from 0 to its
        # limit (R - r) - d as c -> -inf or -(R - r) - d as c -> inf: g is
        # flat there, and that end can lie decades beyond the root
        w = R - r
        while True:
            # each iterate keeps 4 ulp (c_tol once root_tol is met) from both ends
            t_lim = max(c_tol, 4.0 * math.ulp(max(abs(c_hat), abs(x2)))) / abs(x2 - c_hat)
            if t_lim >= 0.5:
                break  # c cannot move by an ulp
            n_interp += interpolated
            n_bisect += not interpolated
            c_new = c_hat + min(max(t, t_lim), 1.0 - t_lim) * (x2 - c_hat)
            g_new = g(c_new)
            if (g_new > 0.0) == (g_hat > 0.0):
                x3, g3 = c_hat, g_hat
            else:
                x3, g3, x2, g2 = x2, g2, c_hat, g_hat
            c_hat, g_hat = c_new, g_new
            if g_hat == 0.0:
                break
            # inverse quadratic interpolation where it is monotone on the
            # bracket, else bisection
            xi = (c_hat - x2) / (x3 - x2)
            phi = (g_hat - g2) / (g3 - g2)
            interpolated = 1.0 - math.sqrt(1.0 - xi) < phi < math.sqrt(xi)
            if interpolated:
                t = (g_hat / (g2 - g_hat) * g3 / (g2 - g3)
                     + (x3 - c_hat) / (x2 - c_hat) * g_hat / (g3 - g_hat) * g2 / (g3 - g2))
            else:
                t = 0.5
                if w < max(abs(2.0 * g_hat + d), abs(2.0 * g2 + d)):
                    mid = 0.5 * (math.asinh(c_hat / r) + math.asinh(x2 / r))
                    if abs(mid) < 709.0:  # sinh stays finite; inf and nan fail
                        t_mid = (r * math.sinh(mid) - c_hat) / (x2 - c_hat)
                        # where |c| >> r asinh resolves c to tens of ulps, so
                        # on a bracket that narrow t_mid can leave (0, 1)
                        if 0.0 < t_mid < 1.0:
                            t = t_mid
            # |c| ~ 1e4 and |df/dc| ~ 1 already make c_tol * |c| worth 1e-8
            # in f(R), so c_tol only counts once root_tol is met
            met = abs(g_hat) <= root_tol
            c_tol = _C_TOL * max(1.0, abs(c_hat)) if met else 0.0
            if met and t * abs(x2 - c_hat) <= c_tol:
                break  # the next step, and so the bracket, is within c_tol
        # where roundoff makes g jump by more than root_tol between adjacent
        # c, the bracket can close on a newest iterate beyond root_tol while
        # its other end meets it
        if abs(g_hat) > root_tol >= abs(g2):
            c_hat, g_hat, x2, g2 = x2, g2, c_hat, g_hat
    width = abs(x2 - c_hat) if g_hat != 0.0 else 0.0

    residual = math.ldexp(abs(g_hat), e_u)
    if abs(g_hat) > root_tol:
        raise LorentzCMCError(f"shooting residual {residual:.3e} exceeds root_tol "
                              f"{math.ldexp(root_tol, e_u):.3e} (scaled to the rings): f(R) "
                              "moves by more than root_tol between adjacent floats c")
    curve = profile_curve(SurfaceParams(sign * problem.H, sign * math.ldexp(c_hat, e_u)),
                          (rings.r, rings.a), quad_tol=math.ldexp(problem.quad_tol, e_u))
    return PlateauSolution(
        curve=curve,
        c=curve.params.c,
        regime=curve.regime,
        H0=threshold_H0(rings),
        residual=residual,
        diagnostics=SolveDiagnostics(
            g_evals=n_g,
            interpolation_steps=n_interp,
            bisection_fallbacks=n_bisect,
            final_bracket_width=math.ldexp(width, e_u),
        ),
    )


def solve_two_ring(r, R, a, b, H, root_tol=DEFAULT_ROOT_TOL,
                   quad_tol=DEFAULT_QUAD_TOL) -> PlateauSolution:
    """Validate raw ring data and solve in one call."""
    problem = PlateauProblem(rings=ValidatedRingPair(r, R, a, b), H=H, root_tol=root_tol,
                             quad_tol=quad_tol)
    return solve_c(problem)
