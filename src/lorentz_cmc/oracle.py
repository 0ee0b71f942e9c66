"""Curvature verification on sampled surfaces.

The graph checks re-derive the mean curvature from sampled heights alone,
by finite differences on a Cartesian graph patch (the quasilinear graph
equation and its divergence form).  The rotational check is only partly
independent of the profile slope formula: it takes f' from it
(``curve.slopes``) and sqrt(1 - f'^2) from the curve's (H, c), and
differences only f''.  A third check confirms the conserved Beltrami
quantity of the area-volume functional, recovering the first-integral
constant from inverse-profile height samples; of the slope formula it reads
only the signs of f', for its monotonicity test and the window's sign.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass

import numpy as np

from ._text import (BadField, distinct_reprs, float_reprs, format_records, parse_floats,
                    read_blocks, text_bytes)
from .core import ProfileCurve, _radius, _require_positive
from .errors import NotMonotone, SpacelikeViolation
from .profile import _fd_step, heights

__all__ = [
    "CurvatureReport",
    "GraphPatch",
    "VariationalCheck",
    "mean_curvature_graph",
    "mean_curvature_rotational",
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


def patch_from_profile(curve: ProfileCurve, x1, x2, min_radius=None) -> GraphPatch:
    """Rotate a profile into a graph patch u(x1, x2) = f(sqrt(x1^2 + x2^2)).

    Points with radius below ``min_radius`` (default 5% of the anchor
    radius, keeping clear of the axis puncture) are masked out and filled
    with the anchor height as an inert placeholder.  The axes must be
    finite, and a given ``min_radius`` finite and positive (else ValueError).
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    for name, axis in (("x1", x1), ("x2", x2)):
        if not np.isfinite(axis).all():
            raise ValueError(f"{name} must be finite")
    if min_radius is None:
        min_radius = 0.05 * curve.anchor_radius
    else:
        _require_positive("min_radius", min_radius)
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")
    rho = np.hypot(X1, X2)
    mask = rho >= min_radius
    values = np.full(rho.shape, curve.anchor_height, dtype=float)
    values[mask] = heights(curve, rho[mask])
    return GraphPatch(x1=x1, x2=x2, values=values, mask=mask)


def patch_to_csv(patch: GraphPatch) -> bytes:
    """Serialize a patch as RFC-4180 CSV with header x1,x2,u (row-major).

    ``repr`` runs once per distinct axis magnitude and once per distinct
    height magnitude over the whole patch (a lattice symmetric about the
    axis repeats each height up to 8 times); the rows' text cells, ASCII
    bytes, are then picked from those texts and formatted a block at a time
    (``format_records``).
    """
    flat = np.flatnonzero(patch.mask)
    u, k = distinct_reprs(np.asarray(patch.values, dtype=float).ravel()[flat])
    x1, x2 = float_reprs(patch.x1), float_reprs(patch.x2)

    def cells(rows):
        i, j = np.divmod(flat[rows], x2.size)
        return np.column_stack([x1[i], x2[j], u[k[rows]]])

    return format_records("x1,x2,u\r\n", ("%s,%s,%s\r\n", flat.size, cells))


# A field that opens with a quote, read as numpy's text reader reads one: to
# the next lone quote, or to the end of the data; "" stands for a quote.
_QUOTED = re.compile(rb'(?<![^,\n])"((?:[^"]|"")*)(?:"|\Z)')
# Inside quotes a line end is whitespace, and a comma, like a quote, spoils the field.
_IN_QUOTES = bytes.maketrans(b"\r\n,", b'  "')


def _unquoted(data, body):
    """``(text, hidden)``: ``data`` with each quoted field after ``body``
    unquoted, and for each line end inside quotes the offset in ``text``
    just past its field, so errors name the lines of ``data``."""
    hidden, shift = [], body  # text offset minus the offset in data[body:]

    def unquote(match):
        nonlocal shift
        # a space, stripped as whitespace, keeps "" alone on a line from reading as a blank line
        field = match[1].replace(b'""', b'"').translate(_IN_QUOTES) or b" "
        shift -= len(match[0]) - len(field)
        hidden.extend([match.end() + shift] * match[0].count(b"\n"))
        return field

    return data[:body] + _QUOTED.sub(unquote, data[body:]), hidden


def _csv_block(data, start, stop):
    """x1, x2, u of each row of ``data[start:stop]``, whole lines of the CSV
    body, as one flat float array; blank lines are skipped, and a CR before
    a line end belongs to it."""
    raw = np.frombuffer(data, dtype=np.uint8, count=stop - start, offset=start)
    is_cut = raw == ord(",")
    is_cut |= raw == ord("\n")
    ends = np.flatnonzero(is_cut)
    del is_cut  # a byte per byte of the block, freed before the fields are parsed
    line_end = raw[ends] == ord("\n")
    if raw[-1] != ord("\n"):  # the last line of the data
        ends, line_end = np.append(ends, raw.size), np.append(line_end, True)
    starts = np.concatenate(([0], ends[:-1] + 1))
    ends -= line_end & (ends > starts) & (raw[ends - 1] == ord("\r"))
    blank = line_end & (ends == starts) & np.concatenate(([True], line_end[:-1]))
    if blank.any():
        starts, ends, line_end = starts[~blank], ends[~blank], line_end[~blank]
    starts += start
    ends += start
    # every third field, and only it, ends a line
    wrong = np.flatnonzero(line_end != (np.arange(line_end.size) % 3 == 2))
    if wrong.size:
        at = starts[wrong[0]]
        end = data.find(b"\n", at)
        line = data[data.rfind(b"\n", 0, at) + 1:end if end >= 0 else None].rstrip(b"\r")
        raise BadField(at, f"row of {line.count(b',') + 1} fields, not 3,", line)
    return parse_floats(data, starts, ends)


def patch_from_csv(data) -> GraphPatch:
    """Parse the x1,x2,u CSV format, as bytes or text (a str is read as its
    UTF-8 bytes; one leading UTF-8 byte-order mark is skipped), back into a
    GraphPatch.

    The lattice is reconstructed from the distinct coordinate values; rows
    may cover only part of it, in which case missing points are masked, but
    no lattice point may be named twice (ValueError).

    After the header, lines end in LF or CRLF (ValueError on a CR alone);
    blank lines are skipped.  Each row has three fields, each a float
    spelled as Python's ``float`` spells one (so inf, Infinity and nan in
    any case, ``1e400`` as inf, ``.5``, ``-0``) with no '_', optionally
    padded with whitespace and optionally quoted, as numpy's text reader
    read them.  A row or field that does not parse raises ValueError naming
    its 1-based line and its text.

    The body is parsed in blocks of ``_text._BLOCK`` bytes cut at the next
    line end (``_text.read_blocks``), on the calling thread and one helper,
    and each distinct field text of a block is converted once
    (``_text.parse_floats``): a 257^2 lattice has 257 distinct texts per
    axis column.  The patch is the same bits whichever thread parses a
    block, and a bad field in several blocks is named in the first.
    """
    data, start = text_bytes(data)
    body = data.find(b"\n", start) + 1 or len(data)
    try:
        header = next(csv.reader([data[start:body].removesuffix(b"\n").decode("utf-8")]), [])
    except csv.Error as exc:
        raise ValueError(f"patch CSV header does not parse ({exc}); lines must end in "
                         "LF or CRLF") from None
    if [h.strip() for h in header] != ["x1", "x2", "u"]:
        raise ValueError(f"expected header x1,x2,u, got {header}")
    hidden = ()
    if data.find(b'"', body) >= 0:
        data, hidden = _unquoted(data, body)
    fields = read_blocks(data, body, _csv_block, "patch CSV ", hidden)
    cells = np.concatenate([np.zeros(0), *fields])
    del fields
    if cells.size == 0:
        raise ValueError("empty patch CSV")
    x, y, u = cells.reshape(-1, 3).T
    xs, i = np.unique(x, return_inverse=True)
    ys, j = np.unique(y, return_inverse=True)
    values = np.zeros((xs.size, ys.size))
    mask = np.zeros((xs.size, ys.size), dtype=bool)
    values[i, j] = u
    mask[i, j] = True
    if np.count_nonzero(mask) < x.size:
        # the first row on a lattice point that an earlier row named
        point = i * ys.size + j
        row = np.setdiff1d(np.arange(x.size), np.unique(point, return_index=True)[1])[0]
        first = np.argmax(point == point[row])
        raise ValueError(f"patch CSV data rows {first + 1} and {row + 1} name one lattice point: "
                         f"(x1, x2) = ({x[first].item()!r}, {y[first].item()!r}) and "
                         f"({x[row].item()!r}, {y[row].item()!r})")
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
    spacelike margin 1 - |Du|^2 is non-positive at a checked point or, in
    divergence mode, at a point the flux stencil reads; the report's
    ``spacelike_min_margin`` is the minimum over the checked points.
    """
    hx, hy = patch.spacing
    if mode not in ("nondivergence", "divergence"):
        raise ValueError(f"unknown mode {mode!r}")
    # first differences and the spacelike margin, nan on the border
    u = patch.values
    c = np.s_[1:-1]
    u1, u2 = np.full((2,) + u.shape, np.nan)
    u1[c, :] = (u[2:, :] - u[:-2, :]) / (2 * hx)
    u2[:, c] = (u[:, 2:] - u[:, :-2]) / (2 * hy)
    margin = 1.0 - (u1**2 + u2**2)
    # each stencil reaches one point (nondivergence) or two (divergence) out
    valid = _erode(patch.mask, 1 if mode == "nondivergence" else 2)
    if not np.any(valid):
        raise ValueError("no interior points left after mask erosion")
    margin_min = float(np.min(margin[valid]))
    # the flux stencil also divides by sqrt(margin) one point out along each axis
    read = valid
    if mode == "divergence":
        pad = np.pad(valid, 1)
        read = valid | pad[:-2, 1:-1] | pad[2:, 1:-1] | pad[1:-1, :-2] | pad[1:-1, 2:]
    worst = float(np.min(margin[read]))
    if worst <= 0.0:
        raise SpacelikeViolation(f"discrete spacelike margin reached {worst}")

    H = np.full(u.shape, np.nan)
    with np.errstate(invalid="ignore"):
        if mode == "nondivergence":
            u11 = (u[2:, c] - 2 * u[c, c] + u[:-2, c]) / hx**2
            u22 = (u[c, 2:] - 2 * u[c, c] + u[c, :-2]) / hy**2
            u12 = (u[2:, 2:] - u[2:, :-2] - u[:-2, 2:] + u[:-2, :-2]) / (4 * hx * hy)
            m, p, q = margin[c, c], u1[c, c], u2[c, c]
            lhs = m * (u11 + u22) + p**2 * u11 + 2 * p * q * u12 + q**2 * u22
            H[c, c] = lhs / (2.0 * m**1.5)
        else:
            root = np.sqrt(margin)
            F1, F2 = u1 / root, u2 / root
            cc = np.s_[2:-2]
            H[cc, cc] = ((F1[3:-1, cc] - F1[1:-3, cc]) / (2 * hx)
                         + (F2[cc, 3:-1] - F2[cc, 1:-3]) / (2 * hy)) / 2.0
    H_sel = H[valid]
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
    sqrt(1 - f'^2) is t / hypot(t, H t^2 - c), > 0 where f' rounds to +-1.
    Raises SpacelikeViolation where f' rounds to one +-1 at both t +- fd_step.
    """
    t = _radius(t, "curvature")
    fd_step = _fd_step(t, fd_step)
    down, s, up = curve.slopes([t - fd_step, t, t + fd_step]).tolist()
    if up == down and abs(up) == 1.0:
        raise SpacelikeViolation(f"f' is {up} at t={t} +- {fd_step}: f'' cannot be differenced")
    f2 = (up - down) / (2.0 * fd_step)
    q = t / math.hypot(t, curve.mean_curvature * t * t - curve.first_integral)
    return (t * f2 + q * q * s) / (2.0 * t * q**3)


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
    differences, so the recovered kappa reads the slope formula only
    through sigma; its deviation from the mean shrinks as O(n^-2).

    Raises NotMonotone if the n sampled f' (the window's ends among them)
    vanish or change sign, as for canonical H > 0, c > 0 once sqrt(c/H) is
    inside the window, or if the profile is flat (plane).
    """
    t1, t2 = float(t_window[0]), float(t_window[1])
    if not (0.0 < t1 < t2 < math.inf):
        raise ValueError(f"need 0 < t1 < t2 < inf, got ({t1}, {t2})")
    if n < 5:
        raise ValueError("need at least 5 samples")

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
