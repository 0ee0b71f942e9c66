"""Independent curvature verification on sampled surfaces.

Nothing here evaluates the profile slope formula to compute curvature:
the mean curvature is re-derived from sampled heights by finite
differences, either on a Cartesian graph patch (the quasilinear graph
equation and its divergence form) or along the rotational profile.  A
third check confirms the conserved Beltrami quantity of the area-volume
functional, recovering the first-integral constant from inverse-profile
samples alone.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from ._text import float_reprs
from .errors import NotMonotone, SpacelikeViolation
from .profile import ProfileCurve, _fd_step, _radius, heights, slope_extremum_radius

__all__ = [
    "CurvatureReport",
    "GraphPatch",
    "VariationalCheck",
    "mean_curvature_graph",
    "mean_curvature_rotational",
    "patch_from_function",
    "patch_from_profile",
    "patch_from_csv",
    "patch_to_csv",
    "variational_residual",
]


@dataclass(frozen=True)
class GraphPatch:
    """Samples of a graph u(x1, x2) on a rectangular lattice.

    ``values[i, j]`` is u(x1[i], x2[j]); ``mask[i, j]`` marks points whose
    value is meaningful (patches with holes, e.g. around the axis puncture,
    mask the hole out).  Spacing must be uniform along each axis.
    """

    x1: np.ndarray
    x2: np.ndarray
    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.x1.size, self.x2.size):
            raise ValueError("values must have shape (len(x1), len(x2))")
        if self.mask.shape != self.values.shape:
            raise ValueError("mask must match values in shape")

    @property
    def spacing(self):
        hx = np.diff(self.x1)
        hy = np.diff(self.x2)
        if hx.size == 0 or hy.size == 0:
            raise ValueError("patch needs at least 2 points per axis")
        if not (np.allclose(hx, hx[0], rtol=1e-9) and np.allclose(hy, hy[0], rtol=1e-9)):
            raise ValueError("grid spacing must be uniform along each axis")
        return float(hx[0]), float(hy[0])


@dataclass(frozen=True)
class CurvatureReport:
    """Pointwise mean-curvature statistics over the checked interior."""

    H_mean: float
    H_max_dev: float
    spacelike_min_margin: float
    points_checked: int


def patch_from_function(fn, x1, x2, mask=None) -> GraphPatch:
    """Sample ``u = fn(X1, X2)`` on the lattice x1 x x2 (vectorized fn)."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")
    values = np.asarray(fn(X1, X2), dtype=float)
    if mask is None:
        mask = np.ones(values.shape, dtype=bool)
    return GraphPatch(x1=x1, x2=x2, values=values, mask=np.asarray(mask, dtype=bool))


def patch_from_profile(curve: ProfileCurve, x1, x2, min_radius=None) -> GraphPatch:
    """Rotate a profile into a graph patch u(x1, x2) = f(sqrt(x1^2 + x2^2)).

    Points with radius below ``min_radius`` (default 5% of the anchor
    radius, keeping clear of the axis puncture) are masked out and filled
    with the anchor height as an inert placeholder.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if min_radius is None:
        min_radius = 0.05 * curve.anchor_radius
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")
    rho = np.hypot(X1, X2)
    mask = rho >= min_radius
    values = np.full(rho.shape, curve.anchor_height, dtype=float)
    values[mask] = heights(curve, rho[mask])
    return GraphPatch(x1=x1, x2=x2, values=values, mask=mask)


def patch_to_csv(patch: GraphPatch) -> bytes:
    """Serialize a patch as RFC-4180 CSV with header x1,x2,u (row-major)."""
    i, j = np.nonzero(patch.mask)
    cells = np.stack([float_reprs(patch.x1)[i], float_reprs(patch.x2)[j],
                      float_reprs(np.asarray(patch.values, dtype=float)[i, j])], axis=1)
    rows = ("%s,%s,%s\r\n" * i.size) % tuple(cells.ravel().tolist())
    return ("x1,x2,u\r\n" + rows).encode("utf-8")


def patch_from_csv(data) -> GraphPatch:
    """Parse the x1,x2,u CSV format back into a GraphPatch.

    The lattice is reconstructed from the distinct coordinate values; rows
    may cover only part of it, in which case missing points are masked.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    head, _, body = data.partition(b"\n")
    header = next(csv.reader([head.decode("utf-8")]), [])
    if [h.strip() for h in header] != ["x1", "x2", "u"]:
        raise ValueError(f"expected header x1,x2,u, got {header}")
    if not body or body.isspace():
        raise ValueError("empty patch CSV")
    cells = np.loadtxt(io.BytesIO(body), delimiter=",", quotechar='"', comments=None,
                       ndmin=2)
    if cells.shape[1] != 3:
        raise ValueError(f"patch CSV rows need 3 fields, got {cells.shape[1]}")
    x, y, u = cells.T
    xs, i = np.unique(x, return_inverse=True)
    ys, j = np.unique(y, return_inverse=True)
    values = np.zeros((xs.size, ys.size))
    mask = np.zeros((xs.size, ys.size), dtype=bool)
    values[i, j] = u
    mask[i, j] = True
    return GraphPatch(x1=xs, x2=ys, values=values, mask=mask)


def _erode(mask, width):
    """Interior points whose full (2*width+1)^2 neighborhood is in-mask."""
    out = mask.copy()
    for _ in range(width):
        m = out
        inner = np.zeros_like(m)
        inner[1:-1, 1:-1] = (
            m[1:-1, 1:-1]
            & m[:-2, 1:-1] & m[2:, 1:-1] & m[1:-1, :-2] & m[1:-1, 2:]
            & m[:-2, :-2] & m[:-2, 2:] & m[2:, :-2] & m[2:, 2:]
        )
        out = inner
    return out


def mean_curvature_graph(patch: GraphPatch, mode="nondivergence") -> CurvatureReport:
    """Mean curvature of a sampled graph by second-order central stencils.

    mode="nondivergence" evaluates the quasilinear graph equation

        (1 - |Du|^2)(u11 + u22) + u1^2 u11 + 2 u1 u2 u12 + u2^2 u22
            = 2 H (1 - |Du|^2)^(3/2)

    pointwise; mode="divergence" instead differences the flux field
    Du / sqrt(1 - |Du|^2), whose divergence is 2H.  Both are O(h^2) and
    must agree at that order.  Raises SpacelikeViolation if the discrete
    spacelike margin 1 - |Du|^2 is non-positive anywhere checked.
    """
    hx, hy = patch.spacing
    u = patch.values
    if mode == "nondivergence":
        valid = _erode(patch.mask, 1)
        c = np.s_[1:-1]
        u1 = (u[2:, c] - u[:-2, c]) / (2 * hx)
        u2 = (u[c, 2:] - u[c, :-2]) / (2 * hy)
        u11 = (u[2:, c] - 2 * u[c, c] + u[:-2, c]) / hx**2
        u22 = (u[c, 2:] - 2 * u[c, c] + u[c, :-2]) / hy**2
        u12 = (u[2:, 2:] - u[2:, :-2] - u[:-2, 2:] + u[:-2, :-2]) / (4 * hx * hy)
        sel = valid[1:-1, 1:-1]
        margin = 1.0 - (u1**2 + u2**2)
        if np.any(sel) and np.min(margin[sel]) <= 0.0:
            raise SpacelikeViolation(
                f"discrete spacelike margin reached {np.min(margin[sel])}"
            )
        lhs = margin * (u11 + u22) + u1**2 * u11 + 2 * u1 * u2 * u12 + u2**2 * u22
        with np.errstate(invalid="ignore"):
            H = lhs / (2.0 * margin**1.5)
        H_sel = H[sel]
        margin_min = float(np.min(margin[sel])) if np.any(sel) else math.nan
    elif mode == "divergence":
        valid = _erode(patch.mask, 2)
        c = np.s_[1:-1]
        u1 = np.full(u.shape, np.nan)
        u2 = np.full(u.shape, np.nan)
        u1[c, :] = (u[2:, :] - u[:-2, :]) / (2 * hx)
        u2[:, c] = (u[:, 2:] - u[:, :-2]) / (2 * hy)
        margin_full = 1.0 - (u1**2 + u2**2)
        sel = valid[2:-2, 2:-2]
        inner_margin = margin_full[2:-2, 2:-2]
        if np.any(sel) and np.nanmin(inner_margin[sel]) <= 0.0:
            raise SpacelikeViolation(
                f"discrete spacelike margin reached {np.nanmin(inner_margin[sel])}"
            )
        with np.errstate(invalid="ignore"):
            root = np.sqrt(margin_full)
            F1 = u1 / root
            F2 = u2 / root
        cc = np.s_[2:-2]
        div = (F1[3:-1, cc] - F1[1:-3, cc]) / (2 * hx) \
            + (F2[cc, 3:-1] - F2[cc, 1:-3]) / (2 * hy)
        H = div / 2.0
        H_sel = H[sel]
        margin_min = float(np.nanmin(inner_margin[sel])) if np.any(sel) else math.nan
    else:
        raise ValueError(f"unknown mode {mode!r}")

    if H_sel.size == 0:
        raise ValueError("no interior points left after mask erosion")
    H_mean = float(np.mean(H_sel))
    return CurvatureReport(
        H_mean=H_mean,
        H_max_dev=float(np.max(np.abs(H_sel - H_mean))),
        spacelike_min_margin=margin_min,
        points_checked=int(H_sel.size),
    )


def mean_curvature_rotational(t, curve: ProfileCurve, fd_step=None):
    """Mean curvature re-derived along the profile,

        H = (t f'' + (1 - f'^2) f') / (2 t (1 - f'^2)^(3/2)),

    with f' from the exact slope and f'' by central differences of it, so
    exactly one differentiation is numerical.  Error is O(fd_step^2).  The
    default step is 1e-5 max(1, t); a given one must be finite and positive.
    """
    t = _radius(t, "curvature")
    fd_step = _fd_step(t, fd_step)
    if t - fd_step <= 0.0:
        raise SpacelikeViolation(
            f"fd_step={fd_step} crosses the axis from t={t}"
        )
    s = curve.slope(t)
    f2 = (curve.slope(t + fd_step) - curve.slope(t - fd_step)) / (2.0 * fd_step)
    one_m = 1.0 - s * s
    return (t * f2 + one_m * s) / (2.0 * t * one_m**1.5)


@dataclass(frozen=True)
class VariationalCheck:
    """Recovered Beltrami constant and its spread over the window."""

    kappa_mean: float
    max_deviation: float
    multiplier: float
    samples: int


def variational_residual(curve: ProfileCurve, t_window, n=1001) -> VariationalCheck:
    """Criticality check of the area-volume functional on a monotone window.

    On a window where f is strictly monotone, the inverse g = f^-1 exists
    and extremality of int (2 g sqrt(g'^2 - 1) - lambda g^2) dx3 with
    lambda = 2H forces a conserved Beltrami quantity.  Written with the
    window's monotonicity sign sigma = sign(f') it reads

        kappa(x3) = lambda g^2 - 2 sigma g / sqrt(g'^2 - 1)

    and equals 2c identically along the profile.  g is sampled from the
    evaluated heights and g' estimated by (non-uniform) central
    differences, so the recovered kappa is independent of the slope
    formula; its deviation from the mean shrinks as O(n^-2).

    Raises NotMonotone if f' changes sign inside the window (for H > 0,
    c > 0 that happens exactly when sqrt(c/H) is interior) or if the
    profile is flat (plane).
    """
    t1, t2 = float(t_window[0]), float(t_window[1])
    if not (0.0 < t1 < t2):
        raise ValueError(f"need 0 < t1 < t2, got ({t1}, {t2})")
    if n < 5:
        raise ValueError("need at least 5 samples")

    star = slope_extremum_radius(curve.params)
    if curve.params.H > 0.0 and curve.params.c > 0.0 and star is not None \
            and t1 < star < t2:
        raise NotMonotone(
            f"slope vanishes at t={star} inside ({t1}, {t2})"
        )
    ts = np.linspace(t1, t2, n)
    ss = curve.slopes(ts)
    if np.any(ss == 0.0) or ss.min() < 0.0 < ss.max():
        raise NotMonotone(f"profile is not strictly monotone on ({t1}, {t2})")
    sigma = 1.0 if ss[0] > 0.0 else -1.0

    xs = heights(curve, ts)  # x3 samples; g(xs) = ts by construction
    h1 = xs[1:-1] - xs[:-2]
    h2 = xs[2:] - xs[1:-1]
    gp = (ts[2:] * h1**2 - ts[:-2] * h2**2 + ts[1:-1] * (h2**2 - h1**2)) \
        / (h1 * h2 * (h1 + h2))
    under = gp * gp - 1.0
    if np.min(under) <= 0.0:
        raise SpacelikeViolation(
            "finite-difference inverse slope reached |g'| <= 1"
        )
    lam = 2.0 * curve.mean_curvature
    g = ts[1:-1]
    kappa = lam * g * g - 2.0 * sigma * g / np.sqrt(under)
    mean = float(np.mean(kappa))
    return VariationalCheck(
        kappa_mean=mean,
        max_deviation=float(np.max(np.abs(kappa - mean))),
        multiplier=lam,
        samples=int(kappa.size),
    )
