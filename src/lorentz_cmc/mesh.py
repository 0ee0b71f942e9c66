"""Sampling X(t, theta) = (t cos theta, t sin theta, f(t)) and export.

Meshes are annulus grids of n_t rings by n_theta spokes with the theta
seam closed by index wraparound (no duplicated seam column), quads split
into triangles along a fixed diagonal, wound counterclockwise as seen from
+x3.  The spoke angles 2 pi j / n_theta come from one first-octant table,
so the grid's reflections (y -> -y; x -> -x for even n_theta; x <-> y
when 4 divides n_theta) map spokes onto spokes with the same coordinate
bits, up to sign.  A window starting at t = 0 replaces the innermost ring
with a single apex vertex at the axis height
``singularity_report(curve).cone_vertex_height`` and fans triangles to it.

Exports: Wavefront OBJ (ASCII, v/f records only) and RFC-4180 CSV profile
polylines with columns t, f, f_prime, first_integral_residual.  Both are
bit-stable for identical inputs.
"""

from __future__ import annotations

import io
import math
import operator
import re
from dataclasses import dataclass

import numpy as np

from ._text import BadField, format_records, read_blocks, text_bytes
from .errors import NonPositiveRadius
from .profile import ProfileCurve, _default_step, _residuals, heights, singularity_report

__all__ = [
    "SurfaceMesh",
    "euler_characteristic",
    "export_obj",
    "export_profile_csv",
    "load_obj",
    "sample_surface",
]


@dataclass(frozen=True)
class SurfaceMesh:
    """Triangulated sample of a surface of revolution."""

    vertices: np.ndarray  # (n_vertices, 3)
    faces: np.ndarray  # (n_faces, 3) int, counterclockwise from +x3
    ring_radii: np.ndarray
    n_theta: int
    singular_vertex: int | None = None


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
    n_t, n_theta = operator.index(n_t), operator.index(n_theta)
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

    cos_t, sin_t = _spoke_table(n_theta)

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
    )


def _spoke_table(n):
    """(cos, sin) of the n spoke angles 2 pi j / n, each within 2e-16.

    With 8j = o n + r (0 <= r < n), spoke j lies r / n of the way through
    octant o, and its (cos, sin) is (c, s) of the first-octant angle
    k pi / 4n, k = r in even octants and n - r in odd ones (counted back
    from the octant's end), swapped in octants 1, 2, 5, 6 and negated in
    cos for octants 2-5 and in sin for 4-7.  Mirrored spokes share k, so
    the table is exactly invariant under y -> -y, x -> -x (even n) and
    x <-> y (4 | n, with cos == sin on the diagonal k = n); it holds no -0.0.
    """
    octant, r = np.divmod(8 * np.arange(n), n)
    k = np.where(octant % 2 == 1, n - r, r)
    angle = (k / n) * (math.pi / 4)
    c = np.cos(angle)
    s = np.where(k == n, c, np.sin(angle))
    swap = (octant + 1) // 2 % 2 == 1
    cos_t = np.where(swap, s, c) * (1 - 2 * ((octant + 2) // 4 % 2))
    sin_t = np.where(swap, c, s) * (1 - 2 * (octant // 4))
    return cos_t + 0.0, sin_t + 0.0  # + 0.0 turns a negated 0.0 back to 0.0


def export_obj(mesh: SurfaceMesh) -> bytes:
    """Serialize as ASCII Wavefront OBJ with v and f records only.

    Floats are written with shortest round-trip repr, so identical meshes
    serialize to identical bytes.  The records are formatted in row blocks
    (``format_records``), the 1-based face indices made a block at a time:
    the memory used is the output plus one block.
    """
    v = np.asarray(mesh.vertices, dtype=float)
    f = np.asarray(mesh.faces)
    return format_records("", ("v %s %s %s\n", len(v), v.__getitem__),
                          ("f %d %d %d\n", len(f), lambda rows: f[rows] + 1))


def _obj_parse(text, tag, dtype):
    """Entries 1-3 of ``tag`` records (tag as column 0), (count, 3); None if one fails."""
    if tag == "f" and b"/" in text:
        text = re.sub(rb"/\S*", b"", text)
    try:
        return np.loadtxt(io.BytesIO(text), dtype=dtype, usecols=(1, 2, 3), ndmin=2)
    except ValueError:
        return None


def _obj_rows(data, starts, ends, kinds, tag, dtype):
    """Entries 1-3 of the ``tag`` lines (``starts`` to ``ends``) of ``data``, (count, 3)
    or (0,): each run of them is a slice, joined for one ``loadtxt``."""
    lines = np.concatenate(([False], kinds == ord(tag), [False]))
    edges = np.flatnonzero(np.diff(lines))
    if edges.size == 0:
        return np.zeros(0, dtype=dtype)
    text = b"".join([data[a:b] for a, b in zip(starts[edges[::2]], ends[edges[1::2] - 1])])
    rows = _obj_parse(text, tag, dtype)
    if rows is None or rows.shape[0] != np.count_nonzero(lines):
        # loadtxt reads line by line: name the first record that fails alone
        for line in np.flatnonzero(lines[1:-1]):
            record = data[starts[line]:ends[line]]
            alone = _obj_parse(record, tag, dtype)
            if alone is None or alone.shape[0] != 1:
                raise BadField(starts[line], f"bad OBJ {tag} record", record.strip())
    return rows


def _obj_block(data, start, stop):
    """(vertices, faces) rows of the v/f records of ``data[start:stop]``, whole OBJ lines."""
    buf = np.frombuffer(data, dtype=np.uint8, count=stop)
    ends = np.flatnonzero(buf[start:] == ord("\n")) + (start + 1)
    if buf[-1] != ord("\n"):  # the last line of the data
        ends = np.append(ends, stop)
    starts = np.concatenate(([start], ends[:-1]))
    # each line's first byte after its indentation: for an indented line, the
    # next byte of the block that is not a space or tab (the block end if none)
    heads, kinds = starts.copy(), buf[starts]
    indented = np.flatnonzero((kinds == 32) | (kinds == 9))
    if indented.size:
        block = buf[start:]
        solid = np.flatnonzero((block != 32) & (block != 9)) + start
        heads[indented] = np.append(solid, stop)[np.searchsorted(solid, starts[indented])]
        kinds[indented] = buf[np.minimum(heads[indented], stop - 1)]
    # each line's kind: its tag byte if that is v or f and whitespace or the end follows, else 0
    tagged = np.flatnonzero((kinds == ord("v")) | (kinds == ord("f")))
    after = heads[tagged] + 1
    second = buf[np.minimum(after, stop - 1)]
    kinds[tagged[(second != 32) & (second != 9) & (second != 13) & (second != 10)
                 & (after < stop)]] = 0
    faces = _obj_rows(data, starts, ends, kinds, "f", np.int64) - 1
    if faces.size and faces.min() < 0:
        line = np.flatnonzero(kinds == ord("f"))[np.argmax(faces.min(axis=1) < 0)]
        raise BadField(starts[line], "OBJ f record index below 1",
                       data[starts[line]:ends[line]].strip())
    return _obj_rows(data, starts, ends, kinds, "v", np.float64), faces


def load_obj(data) -> tuple[np.ndarray, np.ndarray]:
    """Parse v/f records (first three entries; face entries >= 1, up to any '/')
    from OBJ bytes or text (a str is read as its UTF-8 bytes; one leading
    UTF-8 byte-order mark is skipped); returns (vertices, faces), each (0,)
    if absent.
    A bad record raises ValueError naming its 1-based line and its text, and
    a face index beyond the number of v records raises it naming the index.

    The bytes are parsed in place in blocks of ``_text._BLOCK`` cut at the
    next line end (``_text.read_blocks``), keeping only each block's rows:
    the memory used beyond the input is the arrays returned plus one block.
    """
    blocks = read_blocks(*text_bytes(data), _obj_block)
    vertices, faces = (np.concatenate([b[k] for b in blocks if b[k].size] or [np.zeros(0, dtype)])
                       for k, dtype in enumerate((np.float64, np.int64)))
    if faces.size and faces.max() >= len(vertices):
        raise ValueError(f"OBJ f record index {faces.max() + 1} is beyond the "
                         f"{len(vertices)} v records")
    return vertices, faces


def euler_characteristic(mesh: SurfaceMesh) -> int:
    """V - E + F with edges counted once; 0 for a closed-seam annulus."""
    faces = np.asarray(mesh.faces)
    n_vertices = int(mesh.vertices.shape[0])
    # key lo*(V+1)+hi of each edge, built one column pair at a time, then
    # distinct keys counted in sorted order (np.unique is far slower here)
    keys = np.empty(3 * len(faces), dtype=np.int64)
    hi = np.empty(len(faces), dtype=np.int64)
    for key, (a, b) in zip(keys.reshape(3, -1), ((0, 1), (1, 2), (2, 0))):
        np.minimum(faces[:, a], faces[:, b], out=key)
        key *= n_vertices + 1
        key += np.maximum(faces[:, a], faces[:, b], out=hi)
    keys.sort()
    n_edges = keys.size - np.count_nonzero(keys[1:] == keys[:-1])
    return n_vertices - int(n_edges) + len(faces)


def export_profile_csv(curve: ProfileCurve, ts) -> bytes:
    """Profile polyline as RFC-4180 CSV: t, f, f_prime, first_integral_residual.

    A sample at t = 0 is written with the singularity report's axis height
    f(0+) (the mesh apex) and limiting slope and a zero residual; all other
    samples must be positive and finite.  The residual is
    that of ``first_integral_residual`` with the step clamped to at most t/2,
    and with the heights at t +- step from one ``heights`` call; where
    ``first_integral_residual`` would raise on the differenced slope, it is nan.
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
    step = np.minimum(_default_step(t), 0.5 * t)
    residual = _residuals(curve, t, step, heights(curve, np.concatenate([t + step, t - step])))
    table = np.empty((ts.size, 4))
    table[pos] = np.column_stack([t, hs, curve.slopes(t), residual])
    if not np.all(pos):
        report = singularity_report(curve)
        table[~pos] = (0.0, report.cone_vertex_height, report.limit_slope, 0.0)
    return format_records("t,f,f_prime,first_integral_residual\r\n",
                          ("%s,%s,%s,%s\r\n", len(table), table.__getitem__))
