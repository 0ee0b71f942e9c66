"""The profile rise in closed form, through Carlson's symmetric elliptic integrals.

``rise`` reduces the height integral of a profile to Carlson's R_F and R_D
by his cubic case (Math. Comp. 53 (1989) 327-333): no quadrature, no
numpy.  ``_carlson`` evaluates both from one duplication sequence (B. C.
Carlson, Numer. Algorithms 10 (1995) 13-26).  One code path runs in its
arguments' own arithmetic: floats where the roots are real (4Hc <= 1),
complex for a conjugate pair.  Complex +, * and / with zero imaginary parts
round as the float operations do, and ``cmath.sqrt`` of a non-negative
float is ``math.sqrt``'s root except on [2^-1022, 2^-1019), where it is up
to an ulp off and the float path has the correctly rounded one.
"""

import cmath
import math
import sys

__all__ = ["rise"]

# the series below are exact to float64 once the arguments agree to this
# fraction of their mean (Carlson's bound for R_D, tighter than R_F's)
_TOL = (sys.float_info.epsilon / 4.0) ** (1.0 / 6.0)
# a step cuts the spread by 4 and the mean stays above max / ln(max/min)^2,
# so 40 steps converge for every float64 triple with at most one zero
_MAX_STEPS = 40
_INF = complex(math.inf)
_RHO_MIN = 2.0 ** -511


def _carlson(x, y, z):
    """Carlson's R_F and R_D at (x, y, z) from one duplication sequence:

        R_F = 1/2 int_0^inf dt / sqrt((t+x)(t+y)(t+z)),
        R_D = 3/2 int_0^inf dt / sqrt((t+x)(t+y)(t+z)^3).

    Floats for non-negative float arguments (a negative one must come as
    complex); complex if any argument is complex.  Infinite where the
    integrals diverge: two arguments zero, or z = 0 for R_D.
    """
    if complex in (type(x), type(y), type(z)):
        x, y, z, sqrt, inf = complex(x), complex(y), complex(z), cmath.sqrt, _INF
    else:
        sqrt, inf = math.sqrt, math.inf
    x0, y0, z0 = x, y, z
    if (x0 == 0) + (y0 == 0) + (z0 == 0) > 1:
        return inf, inf
    if z0 == 0:  # R_D diverges; R_F is symmetric
        return _carlson(z0, x0, y0)[0], inf
    spread = 3.0 * max(abs(x - y), abs(y - z), abs(z - x)) / _TOL
    scale, tail = 1.0, 0.0
    for _ in range(_MAX_STEPS):
        if scale * spread < abs(x + y + z):  # spread below _TOL of the mean
            break
        sx, sy, sz = sqrt(x), sqrt(y), sqrt(z)
        # x + lambda = (sx + sy)(sx + sz), free of the cancellation of
        # x + lambda itself for arguments near the negative real axis
        sxy, sxz, syz = sx + sy, sx + sz, sy + sz
        tail += scale / (sz * sxz * syz)
        x, y, z = sxy * sxz / 4.0, sxy * syz / 4.0, sxz * syz / 4.0
        scale /= 4.0
    a_f0, a_d0 = (x0 + y0 + z0) / 3.0, (x0 + y0 + 3.0 * z0) / 5.0
    a_f, a_d = (x + y + z) / 3.0, (x + y + 3.0 * z) / 5.0
    # deviations from the mean in Carlson's A0 form, free of cancellation
    X, Y = scale * (a_f0 - x0) / a_f, scale * (a_f0 - y0) / a_f
    Z = -(X + Y)
    e2, e3 = X * Y - Z * Z, X * Y * Z
    rf = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / sqrt(a_f)
    X, Y = scale * (a_d0 - x0) / a_d, scale * (a_d0 - y0) / a_d
    Z = -(X + Y) / 3.0
    xy, zz = X * Y, Z * Z
    e2, e3, e4, e5 = xy - 6.0 * zz, (3.0 * xy - 8.0 * zz) * Z, 3.0 * (xy - zz) * zz, xy * zz * Z
    rd = (scale / (a_d * sqrt(a_d))
          * (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0 - 3.0 * e4 / 22.0
             - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0)
          + 3.0 * tail)
    return rf, rd


def rise(H, c, r, R):
    """f(R) - f(r) on the profile (H, c), H >= 0 and 0 < r < R, in closed form.

    Lengths in units of R (k = H R, g = c / R, rho = r / R) and u = (t/R)^2
    turn the slope integral into

        R/2 int_{rho^2}^1 (k u - g) du / sqrt(u (sigma + k^2 u)(q + u)),

    sigma = (1 - 2kg + sqrt(1 - 4kg)) / 2 and q = g^2 / sigma, both complex
    (a conjugate pair up to the factor k^2) when 4kg > 1.  Carlson's cubic
    case gives it as R (k (g^2 R_D / 3 + rho / U23) - g R_F), with R_F and
    R_D at (U12^2, U13^2, U23^2).  No k^-2 is formed, so k^2 may underflow
    (it then drops out, exact to float64).  rho is raised to 2^-511, where
    rho^2 leaves the normal floats, which moves the rise by under 2^-511 R
    and keeps U23 > 0 where g^2 underflows.
    """
    rho, k, g = max(r / R, _RHO_MIN), H * R, c / R
    kg = k * g
    disc = 1.0 - 4.0 * kg
    # floats for real roots, complex for a conjugate pair (or a nan disc)
    sqrt = math.sqrt if disc >= 0.0 else cmath.sqrt
    sigma = (1.0 - 2.0 * kg + sqrt(disc)) / 2.0
    q = g * g / sigma
    kr = k * rho
    x2, y2 = sqrt(sigma + k * k), sqrt(sigma + kr * kr)
    x3, y3 = sqrt(q + 1.0), sqrt(q + rho * rho)
    d = (1.0 - rho) * (1.0 + rho)
    u12 = (x2 * y3 + rho * y2 * x3) / d
    u13 = (x3 * y2 + rho * y3 * x2) / d
    u23 = (rho * x2 * x3 + y2 * y3) / d
    rf, rd = _carlson(u12 * u12, u13 * u13, u23 * u23)
    return R * (k * (g * g * rd / 3.0 + rho / u23) - g * rf).real
