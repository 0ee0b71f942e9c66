"""Sampling X(t, theta) = (t cos theta, t sin theta, f(t)) and export.

Meshes are annulus grids of n_t rings by n_theta spokes with the theta
seam closed by index wraparound (no duplicated seam column), quads split
into triangles along a fixed diagonal, wound counterclockwise as seen from
+x3.  A window starting at t = 0 replaces the innermost ring with a single
apex vertex at the axis height and fans triangles to it.

Exports: Wavefront OBJ (ASCII, v/f records only) and RFC-4180 CSV profile
polylines with columns t, f, f_prime, first_integral_residual.  Both are
bit-stable for identical inputs.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass, field

import numpy as np

from ._text import float_reprs
from .errors import NonPositiveRadius
from .profile import ProfileCurve, heights, singularity_report

__all__ = [
    "SurfaceMesh",
    "euler_characteristic",
    "export_obj",
    "export_profile_csv",
    "load_obj",
    "sample_surface",
]


@dataclass
class SurfaceMesh:
    """Triangulated sample of a surface of revolution."""

    vertices: np.ndarray  # (n_vertices, 3)
    faces: np.ndarray  # (n_faces, 3) int, counterclockwise from +x3
    ring_radii: np.ndarray
    n_theta: int
    singular_vertex: int | None = None
    metadata: dict = field(default_factory=dict)


def sample_surface(curve: ProfileCurve, t_range, n_t, n_theta,
                   spacing="uniform") -> SurfaceMesh:
    """Sample the immersion on an (n_t x n_theta) grid over ``t_range``.

    ``t_range = (t_lo, t_hi)`` with 0 <= t_lo < t_hi; t_lo = 0 produces an
    apex vertex at the axis instead of a degenerate ring (flagged in
    ``singular_vertex``).  ``spacing`` is "uniform" or "log" in t; theta is
    always uniform.
    """
    t_lo, t_hi = float(t_range[0]), float(t_range[1])
    if t_lo < 0.0 or not t_lo < t_hi < math.inf:
        raise ValueError(f"need 0 <= t_lo < t_hi < inf, got ({t_lo}, {t_hi})")
    if n_t < 2:
        raise ValueError("need at least 2 rings")
    if n_theta < 3:
        raise ValueError("need at least 3 spokes")

    if spacing == "uniform":
        ts = np.linspace(t_lo, t_hi, n_t)
    elif spacing == "log":
        if t_lo <= 0.0:
            raise NonPositiveRadius("log spacing requires t_lo > 0")
        ts = np.geomspace(t_lo, t_hi, n_t)
    else:
        raise ValueError(f"unknown spacing {spacing!r}")

    apex = ts[0] == 0.0
    ring_ts = ts[1:] if apex else ts
    ring_hs = heights(curve, ring_ts)

    thetas = np.linspace(0.0, 2.0 * math.pi, n_theta, endpoint=False)
    cos_t, sin_t = np.cos(thetas), np.sin(thetas)

    n_rings = ring_ts.size
    ring_grid = np.empty((n_rings, n_theta, 3))
    ring_grid[:, :, 0] = ring_ts[:, None] * cos_t[None, :]
    ring_grid[:, :, 1] = ring_ts[:, None] * sin_t[None, :]
    ring_grid[:, :, 2] = ring_hs[:, None]

    singular_vertex = None
    if apex:
        vertex0 = np.array([[0.0, 0.0, singularity_report(curve).cone_vertex_height]])
        vertices = np.vstack([vertex0, ring_grid.reshape(-1, 3)])
        offset = 1
        singular_vertex = 0
    else:
        vertices = ring_grid.reshape(-1, 3)
        offset = 0

    # quad (i, j) joins rings i, i+1 and spokes j, j+1 (mod n_theta)
    j = np.arange(n_theta, dtype=np.int64)
    j_next = (j + 1) % n_theta
    ring = offset + n_theta * np.arange(n_rings - 1, dtype=np.int64)[:, None]
    v00, v01 = ring + j, ring + j_next
    v10, v11 = v00 + n_theta, v01 + n_theta
    faces = np.stack([v00, v10, v11, v00, v11, v01], axis=-1).reshape(-1, 3)
    if apex:
        # fan from the apex to the first ring, wound so normals lean +x3
        fan = np.stack([np.zeros_like(j), 1 + j, 1 + j_next], axis=-1)
        faces = np.concatenate([fan, faces])

    return SurfaceMesh(
        vertices=vertices,
        faces=faces,
        ring_radii=ring_ts,
        n_theta=n_theta,
        singular_vertex=singular_vertex,
        metadata={
            "H": curve.mean_curvature,
            "c": curve.first_integral,
            "regime": curve.regime.value,
            "anchor": (curve.anchor_radius, curve.anchor_height),
            "t_range": (t_lo, t_hi),
            "spacing": spacing,
        },
    )


def export_obj(mesh: SurfaceMesh) -> bytes:
    """Serialize as ASCII Wavefront OBJ with v and f records only.

    Floats are written with shortest round-trip repr, so identical meshes
    serialize to identical bytes.
    """
    coords = float_reprs(mesh.vertices).tolist()
    indices = (np.asarray(mesh.faces) + 1).ravel().tolist()
    v = ("v %s %s %s\n" * len(mesh.vertices)) % tuple(coords)
    f = ("f %d %d %d\n" * len(mesh.faces)) % tuple(indices)
    return (v + f).encode("ascii")


_OBJ_SEPARATORS = np.frombuffer(b" \t\r\n", dtype=np.uint8)


def _obj_records(buf, starts, ends, tag):
    """Text of every ``tag`` record after its tag, one line each, and their count.

    A record is a line whose first byte is ``tag`` and whose second is
    whitespace.  The lines are gathered with a boolean mask over the bytes:
    an int64 index per byte would take eight times the size of the file.
    """
    tagged = buf[starts] == ord(tag)
    first, last = starts[tagged], ends[tagged]
    keep = np.isin(buf[first + 1], _OBJ_SEPARATORS)
    first, last = first[keep], last[keep]
    step = np.zeros(buf.size + 1, dtype=np.int8)
    step[first + 1] = 1
    step[last + 1] = -1
    inside = np.cumsum(step[:-1], dtype=np.int8).view(bool)
    return buf[inside].tobytes(), first.size


def _obj_rows(text, count, tag, dtype):
    """First three entries of each of ``count`` records, (count, 3), or (0,) if none."""
    if count == 0:
        return np.zeros(0, dtype=dtype)
    # loadtxt skips a record with no entries (and warns if all are empty),
    # so look for an entry first and count the rows after
    if re.search(rb"(?m)^[ \t\r]*[^#\s]", text):
        try:
            rows = np.loadtxt(io.BytesIO(text), dtype=dtype, usecols=(0, 1, 2), ndmin=2)
        except ValueError as exc:
            raise ValueError(f"bad OBJ {tag} record: {exc}") from None
        if rows.shape[0] == count:
            return rows
    raise ValueError(f"OBJ {tag} record needs 3 entries")


def load_obj(data) -> tuple[np.ndarray, np.ndarray]:
    """Parse v/f records (first three entries; face entries up to any '/')
    from OBJ bytes or text; returns (vertices, faces), each (0,) if absent."""
    if isinstance(data, str):
        data = data.encode("ascii")
    if not data.endswith(b"\n"):
        data = data + b"\n"
    if data[:1] in (b" ", b"\t") or b"\n " in data or b"\n\t" in data:
        data = re.sub(rb"(?m)^[ \t]+", b"", data)
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    starts = np.concatenate(([0], ends[:-1] + 1))
    v_text, n_v = _obj_records(buf, starts, ends, "v")
    f_text, n_f = _obj_records(buf, starts, ends, "f")
    if b"/" in f_text:
        f_text = re.sub(rb"/\S*", b"", f_text)
    return (_obj_rows(v_text, n_v, "v", np.float64),
            _obj_rows(f_text, n_f, "f", np.int64) - 1)


def euler_characteristic(mesh: SurfaceMesh) -> int:
    """V - E + F with edges counted once; 0 for a closed-seam annulus."""
    n_vertices = int(mesh.vertices.shape[0])
    # sort each edge (a, b) to lo <= hi, then count distinct lo*(V+1)+hi
    # keys in sorted order (np.unique is far slower at these sizes)
    edges = np.sort(np.stack([mesh.faces, np.roll(mesh.faces, -1, axis=1)], axis=-1))
    keys = np.sort((edges[..., 0] * (n_vertices + 1) + edges[..., 1]).ravel())
    n_edges = keys.size - np.count_nonzero(keys[1:] == keys[:-1])
    return n_vertices - int(n_edges) + int(mesh.faces.shape[0])


def export_profile_csv(curve: ProfileCurve, ts) -> bytes:
    """Profile polyline as RFC-4180 CSV: t, f, f_prime, first_integral_residual.

    A sample at t = 0 is written with the limiting values from the
    singularity report (axis height, limiting slope, zero residual); all
    other samples must be positive and finite.  The residual is that of
    ``first_integral_residual`` at the step min(1e-5 max(1, t), t/2), with
    the heights at t +- step from one ``heights`` call; so close to a
    conical point that the differenced slope reaches |f'| >= 1, it is nan.
    """
    ts = np.asarray(ts, dtype=float)
    if not np.all(np.isfinite(ts)):
        raise ValueError("profile samples must be finite")
    if np.any(ts < 0.0):
        raise NonPositiveRadius("profile samples must satisfy t >= 0")
    pos = ts > 0.0
    t = ts[pos]
    hs = heights(curve, t)
    # clamp the differencing step so rows near the axis stay valid
    step = np.minimum(1e-5 * np.maximum(1.0, t), 0.5 * t)
    near = heights(curve, np.concatenate([t + step, t - step]))
    s = (near[:t.size] - near[t.size:]) / (2.0 * step)
    with np.errstate(invalid="ignore", divide="ignore"):
        residual = (curve.mean_curvature * t * t - t * s / np.sqrt(1.0 - s * s)
                    - curve.first_integral)
    residual[~(np.abs(s) < 1.0)] = math.nan
    table = np.empty((ts.size, 4))
    table[pos] = np.column_stack([t, hs, curve.slopes(t), residual])
    if not np.all(pos):
        report = singularity_report(curve)
        table[~pos] = (0.0, report.cone_vertex_height, report.limit_slope, 0.0)
    rows = ("%s,%s,%s,%s\r\n" * ts.size) % tuple(float_reprs(table).tolist())
    return ("t,f,f_prime,first_integral_residual\r\n" + rows).encode("ascii")
