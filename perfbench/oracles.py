"""Independent numpy-only oracles for the benchmark's correctness checks.

Nothing here calls ``lorentz_cmc``.  Heights come from the closed forms
where the regime has one and otherwise from composite Gauss-Legendre
quadrature of the slope formula

    f'(t) = (H t^2 - c) / sqrt(t^2 + (H t^2 - c)^2)

after a change of variable that keeps the integrand's complex branch
points (the roots of t^2 + (H t^2 - c)^2) a fixed distance away from every
panel:

* 4Hc <= 1, or the transition at t_re is wider than t_re itself: t = e^x.
  The branch points lie on (or near) the imaginary t axis, which is the
  line Im x = pi/2.
* otherwise: t = t_re + sinh(x) / (2H), with t_re = sqrt(4Hc - 1) / (2H).
  The slope turns over within 1/(2H) of t_re, and the branch points
  t_re +- i/(2H) map to x = +-i pi/2.

Panels are at most ``STEP`` wide in x with ``NODES`` Gauss-Legendre nodes
each, far more than the distance pi/2 needs for double precision.
"""

from __future__ import annotations

import math

import numpy as np

NODES = 20
STEP = 0.05
_GL_X, _GL_W = np.polynomial.legendre.leggauss(NODES)


def slope(t, H, c):
    """The slope formula in the orientation (H, c) as given."""
    w = H * t * t - c
    return w / np.hypot(t, w)


def _map(H, c):
    """(t(x), dt/dx, x(t)) for canonical H > 0 and c != 0."""
    disc = 4.0 * H * c - 1.0
    if disc > 0.0 and math.sqrt(disc) > 1.0:
        t_re = math.sqrt(disc) / (2.0 * H)
        s = 2.0 * H
        return (lambda x: t_re + np.sinh(x) / s,
                lambda x: np.cosh(x) / s,
                lambda t: np.arcsinh(s * (t - t_re)))
    return np.exp, np.exp, np.log


def _quadrature_rise(H, c, r, ts):
    """int_r^t f' ds for every t in ts (t >= 0), canonical H > 0, c != 0."""
    t_of, dt_dx, x_of = _map(H, c)
    # t = 0 is reachable under the sinh map; under t = e^x stop at a tiny
    # radius where the slope equals its axis limit -sign(c) to O(tiny^2)
    tiny = 1e-12 * min(r, abs(c), 1.0 / H)
    axis = ts == 0.0
    t_eval = np.where(axis, tiny, ts) if x_of is np.log else ts
    xs = x_of(t_eval)
    x_r = float(x_of(np.float64(r)))
    knots = np.unique(np.append(xs, x_r))
    gaps = np.diff(knots)
    n = np.maximum(1, np.ceil(gaps / STEP)).astype(np.int64)
    seg = np.repeat(np.arange(gaps.size), n)
    k = np.arange(int(n.sum())) - np.repeat(np.cumsum(n) - n, n)
    lo = knots[seg] + gaps[seg] * (k / n[seg])
    hi = knots[seg] + gaps[seg] * ((k + 1) / n[seg])
    half = 0.5 * (hi - lo)
    x = (0.5 * (lo + hi))[:, None] + half[:, None] * _GL_X[None, :]
    panel = half * ((slope(t_of(x), H, c) * dt_dx(x)) @ _GL_W)
    F = np.concatenate([[0.0], np.cumsum(np.bincount(seg, weights=panel,
                                                     minlength=gaps.size))])
    F -= F[np.searchsorted(knots, x_r)]
    out = F[np.searchsorted(knots, xs)]
    if x_of is np.log:
        out = np.where(axis, out + math.copysign(tiny, c), out)
    return out


def rise(H, c, r, ts):
    """f(t) - f(r) for the profile (H, c) at every t >= 0 in ``ts``.

    (H, c) are in the curve's own orientation; H < 0 is reduced through
    the mirror f(t; -H, -c) = -f(t; H, c).
    """
    ts = np.asarray(ts, dtype=float)
    parity = -1.0 if H < 0.0 else 1.0
    H, c = abs(H), parity * c
    if H == 0.0 and c == 0.0:
        out = np.zeros(ts.shape)
    elif H == 0.0:
        out = -c * (np.arcsinh(ts / abs(c)) - math.asinh(r / abs(c)))
    elif c == 0.0:
        out = H * (ts * ts - r * r) / (np.sqrt(1.0 + (H * ts) ** 2)
                                       + math.sqrt(1.0 + (H * r) ** 2))
    else:
        out = _quadrature_rise(H, c, r, ts)
    return parity * out


def height_tolerance(ts, r, quad_tol):
    """Allowed gap between a library height and ``rise``.

    The library integrates to the absolute ``quad_tol`` per integral and
    floors the request at 50 eps times the integrated magnitude, which is
    at most |t - r| since |f'| < 1; allow ten times both.
    """
    eps = np.finfo(float).eps
    return 10.0 * (quad_tol + 50.0 * eps * np.abs(np.asarray(ts) - r))


def euler_characteristic(n_vertices, faces):
    """V - E + F of a triangle list, edges counted once."""
    faces = np.asarray(faces, dtype=np.int64)
    edges = np.concatenate([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]])
    edges.sort(axis=1)
    n_edges = np.unique(edges[:, 0] * (n_vertices + 1) + edges[:, 1]).size
    return n_vertices - n_edges + faces.shape[0]


def flux_tolerance(H, c, r):
    """Allowed gap between ``flux_numeric`` and 2 pi c.

    The two summands 2 pi H r^2 and -2 pi (H r^2 - c) cancel; the conormal
    term passes the slope's roundoff through (1 - f'^2)^(-3/2).
    """
    eps = np.finfo(float).eps
    s = float(slope(np.float64(r), H, c))
    scale = 2.0 * math.pi * (abs(H) * r * r + abs(H * r * r - c) + abs(c))
    return 1e3 * eps * (scale + 2.0 * math.pi * r / ((1.0 - s) * (1.0 + s)) ** 1.5)
