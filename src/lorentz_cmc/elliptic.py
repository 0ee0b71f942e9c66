"""The profile rise in closed form, through Carlson's symmetric elliptic integrals.

``rise`` reduces the height integral of a profile to Carlson's R_F and R_D
by his cubic case (Math. Comp. 53 (1989) 327-333): no quadrature, no
numpy.  Both come from one duplication sequence (B. C. Carlson, Numer.
Algorithms 10 (1995) 13-26), in float arithmetic throughout.  Where the
roots are real (4Hc <= 1) the three arguments are floats (``_carlson``).
For a conjugate pair (4Hc > 1) they are w, conj(w) and a real z; each
duplication step adds a real lambda, so the pair stays conjugate and z
real, and ``_carlson_pair`` runs the sequence on (Re w, Im w, z), taking
one root of the pair and one real root per step.  Both close on one R_F/R_D
series.  The loops run unscaled, on the arguments ``rise`` builds in the
region ``core._height_at`` sends it (k = H R <= 1e100, |g| = |c| / R <=
k + 2^27): positive, with the largest in [2^-600, 2^1010), the band where
neither the sums of the arguments overflow nor the tail's products of roots
underflow.
"""

import math
import sys

__all__ = ["rise"]

# the series below are exact to float64 once the arguments agree to this
# fraction of their mean (Carlson's bound for R_D, tighter than R_F's)
_TOL = (sys.float_info.epsilon / 4.0) ** (1.0 / 6.0)
# a step cuts the spread by 4 and the mean stays above max / ln(max/min)^2,
# so 40 steps converge for every triple in the band (module docstring)
_MAX_STEPS = 40
_RHO_MIN = 2.0 ** -511


def _series(scale, tail, a_f, xy_f, z_f, a_d, xy_d, z_d):
    """Close the duplication: R_F and R_D from Carlson's series in the last
    means a_f, a_d and the deviations' products X Y and Z about each."""
    e2, e3 = xy_f - z_f * z_f, xy_f * z_f
    rf = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / math.sqrt(a_f)
    zz = z_d * z_d
    e2, e3, e4, e5 = (xy_d - 6.0 * zz, (3.0 * xy_d - 8.0 * zz) * z_d, 3.0 * (xy_d - zz) * zz,
                      xy_d * zz * z_d)
    rd = (scale / (a_d * math.sqrt(a_d))
          * (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0 - 3.0 * e4 / 22.0
             - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0)
          + 3.0 * tail)
    return rf, rd


def _carlson(x, y, z):
    """Carlson's R_F and R_D at (x, y, z) from one duplication sequence:

        R_F = 1/2 int_0^inf dt / sqrt((t+x)(t+y)(t+z)),
        R_D = 3/2 int_0^inf dt / sqrt((t+x)(t+y)(t+z)^3),

    for x, y >= 0 and z > 0 with the largest in [2^-600, 2^1010), which
    holds every triple ``rise`` builds (module docstring).
    """
    x0, y0, z0 = x, y, z
    spread = 3.0 * max(abs(x - y), abs(y - z), abs(z - x)) / _TOL
    scale, tail = 1.0, 0.0
    for _ in range(_MAX_STEPS):
        if scale * spread < abs(x + y + z):  # spread below _TOL of the mean
            break
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        # x + lambda = (sx + sy)(sx + sz): Carlson's product form
        sxy, sxz, syz = sx + sy, sx + sz, sy + sz
        tail += scale / (sz * sxz * syz)
        x, y, z = sxy * sxz / 4.0, sxy * syz / 4.0, sxz * syz / 4.0
        scale /= 4.0
    a_f0, a_d0 = (x0 + y0 + z0) / 3.0, (x0 + y0 + 3.0 * z0) / 5.0
    a_f, a_d = (x + y + z) / 3.0, (x + y + 3.0 * z) / 5.0
    # deviations from the mean in Carlson's A0 form, free of cancellation
    X, Y = scale * (a_f0 - x0) / a_f, scale * (a_f0 - y0) / a_f
    Z_f = -(X + Y)
    xy_f = X * Y
    X, Y = scale * (a_d0 - x0) / a_d, scale * (a_d0 - y0) / a_d
    return _series(scale, tail, a_f, xy_f, Z_f, a_d, X * Y, -(X + Y) / 3.0)


def _sqrt_pair(re, im):
    """Principal square root of re + i im, off the negative real axis."""
    h = math.sqrt(2.0 * (math.hypot(re, im) + abs(re)))  # twice the larger part
    return (h / 2.0, im / h) if re >= 0.0 else (abs(im) / h, math.copysign(h / 2.0, im))


def _carlson_pair(re, im, z):
    """Carlson's R_F and R_D at (w, conj(w), z) as ``_carlson`` takes them,
    for w = re + i im off the negative real axis and z > 0 (``rise`` has
    Re U12 > 0 and U23 > 0).

    The root of conj(w) is the conjugate of sqrt(w), so lambda is
    |sqrt(w)|^2 + 2 sqrt(z) Re sqrt(w) and a step maps w to
    Re sqrt(w) (sqrt(w) + sqrt(z)) / 2 (the product form) and z to
    |sqrt(w) + sqrt(z)|^2 / 4.  The series' deviations X and Y = conj(X)
    enter through |X|^2 and Z = -2 Re X.
    """
    re0, im0, z0 = re, im, z
    spread = 3.0 * max(2.0 * abs(im), math.hypot(re - z, im)) / _TOL
    scale, tail = 1.0, 0.0
    for _ in range(_MAX_STEPS):
        if scale * spread < abs(2.0 * re + z):  # spread below _TOL of the mean
            break
        sr, si = _sqrt_pair(re, im)
        sz = math.sqrt(z)
        p = sr + sz
        n = p * p + si * si
        tail += scale / (sz * n)
        re, im, z = sr * p / 2.0, im / 4.0, n / 4.0
        scale /= 4.0
    a_f0, a_d0 = (2.0 * re0 + z0) / 3.0, (2.0 * re0 + 3.0 * z0) / 5.0
    a_f, a_d = (2.0 * re + z) / 3.0, (2.0 * re + 3.0 * z) / 5.0
    # X = dr - i di about each mean, in Carlson's A0 form
    dr, di = scale * (a_f0 - re0) / a_f, scale * im0 / a_f
    xy_f, Z_f = dr * dr + di * di, -2.0 * dr
    dr, di = scale * (a_d0 - re0) / a_d, scale * im0 / a_d
    return _series(scale, tail, a_f, xy_f, Z_f, a_d, dr * dr + di * di, -2.0 * dr / 3.0)


def rise(H, c, r, R):
    """f(R) - f(r) on the profile (H, c), H >= 0 and 0 < r < R, in closed form.

    Lengths in units of R (k = H R, g = c / R, rho = r / R) and u = (t/R)^2
    turn the slope integral into

        R/2 int_{rho^2}^1 (k u - g) du / sqrt(u (sigma + k^2 u)(q + u)),

    sigma = (1 - 2kg + sqrt(1 - 4kg)) / 2 and q = g^2 / sigma.  Carlson's
    cubic case gives it as R (k (g^2 R_D / 3 + rho / U23) - g R_F), with R_F
    and R_D at (U12^2, U13^2, U23^2).  Where 4kg > 1, sigma is complex with
    |sigma| = kg, so q = conj(sigma) / k^2: the roots sqrt(q + 1) and
    sqrt(q + rho^2) are conj(x2) / k and conj(y2) / k for x2 = sqrt(sigma + k^2)
    and y2 = sqrt(sigma + k^2 rho^2), U13 = conj(U12), and U23 is real.  No
    k^-2 is formed, so k^2 may underflow (it then drops out, exact to
    float64).  rho is raised to 2^-511, where rho^2 leaves the normal floats,
    which moves the rise by under 2^-511 R and keeps U23 > 0 where g^2
    underflows.  Taken for k <= 1e100 and |g| <= k + 2^27, the region
    ``core._height_at`` sends here: there U13 >= 1/2 (real roots),
    |U12|^2 >= rho / 4 (a pair) and every U <= 2 (2k + 2^27 + 1) / d, so the
    largest argument of R_F and R_D lies in [2^-514, 2^773).
    """
    rho, k, g = max(r / R, _RHO_MIN), H * R, c / R
    kg = k * g
    disc = 1.0 - 4.0 * kg
    kr = k * rho
    d = (1.0 - rho) * (1.0 + rho)
    if disc >= 0.0:
        sigma = (1.0 - 2.0 * kg + math.sqrt(disc)) / 2.0
        q = g * g / sigma
        x2, y2 = math.sqrt(sigma + k * k), math.sqrt(sigma + kr * kr)
        x3, y3 = math.sqrt(q + 1.0), math.sqrt(q + rho * rho)
        u12 = (x2 * y3 + rho * y2 * x3) / d
        u13 = (x3 * y2 + rho * y3 * x2) / d
        u23 = (rho * x2 * x3 + y2 * y3) / d
        rf, rd = _carlson(u12 * u12, u13 * u13, u23 * u23)
    else:  # a conjugate pair, or a nan disc, which stays nan
        t = math.sqrt(-disc) / 2.0  # Im sigma
        # Re(sigma + k^2 u) = 1/2 + k (k u - g) cancels where the kink g / k
        # is near u: k - g is exact near u = 1, and of the two forms of
        # k rho^2 - g, (k - g) - k d rounds by about k d and kr rho - g by
        # about k rho^2, so the first serves where d < rho^2, i.e. d < 1/2
        k_g = k - g
        re_x, re_y = 0.5 + k * k_g, 0.5 + k * (k_g - k * d if d < 0.5 else kr * rho - g)
        a1, b1 = _sqrt_pair(re_x, t)  # x2
        a2, b2 = _sqrt_pair(re_y, t)  # y2
        # U12 = (x2 conj(y2) + rho y2 conj(x2)) / (k d), U23 = (rho |x2|^2 + |y2|^2) / (k d)
        u_re = (a1 * a2 + b1 * b2) / ((1.0 - rho) * k)
        u_im = (b1 * a2 - a1 * b2) / ((1.0 + rho) * k)
        u23 = (rho * math.hypot(re_x, t) + math.hypot(re_y, t)) / (k * d)
        rf, rd = _carlson_pair((u_re - u_im) * (u_re + u_im), 2.0 * u_re * u_im, u23 * u23)
    return R * (k * (g * g * rd / 3.0 + rho / u23) - g * rf)
