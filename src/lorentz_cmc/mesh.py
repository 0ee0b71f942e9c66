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

import math
import operator
from dataclasses import dataclass

import numpy as np

from ._text import BadField, format_records, parse_floats, parse_ints, read_blocks, text_bytes
from .core import ProfileCurve, singularity_report
from .errors import NonPositiveRadius
from .profile import _default_step, _residuals, heights

# Bytes of a block searched for token bounds at a time (``_obj_tokens``).
_SPAN = 1 << 16

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
    ``singular_vertex``): vertex 0, fanned to the first ring by faces
    ``[:n_theta]``.  ``spacing`` is "uniform" or "log" in t; theta is
    always uniform.  ``vertices`` and ``faces`` are allocated once, and the
    rings and quads written in place through reshaped views of them.

    A fan triangle is spacelike only while the chord slope from the apex to
    the first ring stays below cos(pi / n_theta), so a conical apex whose
    slope tends to +-1 writes faces that are not spacelike (Gram determinant
    <= 0): figure 1 writes its fan, figure 4 its fan and first quad band.
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

    apex = int(ts[0] == 0.0)  # 1 if vertex 0 is the apex
    ring_ts = ts[apex:]
    n_rings = ring_ts.size
    cos_t, sin_t = _spoke_table(n_theta)
    vertices = np.empty((apex + n_rings * n_theta, 3))
    rings = vertices[apex:].reshape(n_rings, n_theta, 3)
    np.multiply.outer(ring_ts, cos_t, out=rings[:, :, 0])
    np.multiply.outer(ring_ts, sin_t, out=rings[:, :, 1])
    rings[:, :, 2] = heights(curve, ring_ts)[:, None]

    # quad (i, j) joins rings i, i+1 and spokes j, j+1 (mod n_theta) in two
    # triangles, its 6 corners the ring's first vertex plus one row of ``spoke``
    j = np.arange(n_theta, dtype=np.int64)
    j_next = (j + 1) % n_theta
    spoke = np.stack([j, j + n_theta, j_next + n_theta, j, j_next + n_theta, j_next], axis=-1)
    faces = np.empty((apex * n_theta + 2 * (n_rings - 1) * n_theta, 3), dtype=np.int64)
    quads = faces[apex * n_theta:].reshape(n_rings - 1, n_theta, 6)
    np.add((apex + n_theta * np.arange(n_rings - 1, dtype=np.int64))[:, None, None], spoke,
           out=quads)
    if apex:
        vertices[0] = (0.0, 0.0, singularity_report(curve).cone_vertex_height)
        # fan from the apex to the first ring, wound so normals lean +x3
        faces[:n_theta] = np.stack([np.zeros_like(j), 1 + j, 1 + j_next], axis=-1)

    return SurfaceMesh(vertices=vertices, faces=faces, ring_radii=ring_ts, n_theta=n_theta,
                       singular_vertex=0 if apex else None)


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

    Floats are written with shortest round-trip repr, run once per distinct
    magnitude of a row block (mirrored spokes share their bits up to sign),
    so identical meshes serialize to identical bytes.  Faces must be an
    (n, 3) integer array of indices into the vertices (or empty), so that
    ``load_obj`` reads back what was written; ValueError otherwise, naming
    the first bad face.  The records are formatted straight to bytes in row
    blocks (``format_records``), the 1-based face indices made a block at a
    time: the memory used is the output plus one block.
    """
    v = np.asarray(mesh.vertices, dtype=float)
    f = np.asarray(mesh.faces)
    if f.size == 0:
        f = f.reshape(0, 3)
    elif f.ndim != 2 or f.shape[1] != 3:
        raise ValueError(f"faces must have shape (n, 3), got {f.shape}")
    elif f.dtype.kind not in "iu":
        raise ValueError(f"faces must be integer vertex indices, got {f.dtype}: "
                         f"face 0 is {f[0].tolist()}")
    elif f.min() < 0 or f.max() >= len(v):
        k = int(np.argmax(((f < 0) | (f >= len(v))).any(axis=1)))
        raise ValueError(f"face {k} {f[k].tolist()} has a vertex index outside "
                         f"[0, {len(v)})")
    f = f.astype(np.int64, copy=False)  # so that adding 1 cannot wrap
    return format_records("", ("v %s %s %s\n", len(v), v.__getitem__),
                          ("f %d %d %d\n", len(f), lambda rows: f[rows] + 1))


def _blank(sep, a, b):
    """Mark the bytes of the sorted, disjoint spans ``a[k]:b[k]`` as whitespace."""
    step = np.zeros(sep.size + 1, dtype=np.int8)
    step[a] = 1
    step[b] -= 1
    sep |= np.cumsum(step[:-1], dtype=np.int8).view(bool)


def _obj_tokens(data, start, raw, lines, heads, ends, faces):
    """``(bounds, whole)`` of the v/f records of the block ``raw`` at
    ``start`` in ``data`` (``lines`` lines), their tags at ``heads`` and
    their lines ending at ``ends`` (block offsets; ``faces`` marks the f
    records): ``bounds`` (records, 8) holds the start and end offset in
    ``data`` of each record's tag and entries 1-3, and ``whole`` whether it
    has them.

    Entries are the tokens after the tag: runs of bytes other than latin-1
    whitespace (9-13, 28-32, 0x85 and 0xA0, what numpy's text reader splits
    on), up to the line's first '#'.  In an f record, each run of bytes
    other than ASCII whitespace is first cut at its first '/'.  A record
    also fails on a CR before its '#' that does not end its line.  The bytes
    cut off are marked as whitespace, and the bytes where whitespace starts
    and stops bound every token of the block; the offsets are int32 where
    ``data`` allows, made ``_SPAN`` bytes at a time.
    """
    padded = np.ones(raw.size + 2, dtype=bool)  # whitespace around the block ends its tokens
    sep = padded[1:-1]
    np.less_equal(raw, 32, out=sep)
    spare = np.empty(raw.size + 1, dtype=bool)  # one buffer for the two masks below
    # bytes below 28 are line ends (one per line but an unterminated last
    # line), other whitespace, or controls that are no whitespace (0-8, 14-27)
    low = np.less(raw, 28, out=spare[:-1])
    if np.count_nonzero(low) > lines - (raw[-1] != ord("\n")):
        low = np.flatnonzero(low)
        sep[low[(raw[low] < 9) | (raw[low] > 13)]] = False
    del low
    if raw.max() >= 0x80:
        sep |= raw == 0x85
        sep |= raw == 0xA0
    stop = start + raw.size
    if faces.any() and data.find(b"/", start, stop) >= 0:
        # from a '/' to the next ASCII whitespace (or the block end)
        slashes = np.flatnonzero(raw == ord("/"))
        ascii_space = np.flatnonzero((raw == 32) | (np.subtract(raw, 9, dtype=np.uint8) < 5))
        stops = np.append(ascii_space, raw.size)[np.searchsorted(ascii_space, slashes)]
        # the slashes of f records: a record holds those past its tag, up to its line end
        record = np.searchsorted(heads, slashes, "right") - 1
        keep = (record >= 0) & (slashes < ends[record]) & faces[record]
        keep[1:] &= stops[1:] != stops[:-1]  # the first slash of each run
        _blank(sep, slashes[keep], stops[keep])
    cut = ends
    if data.find(b"#", start, stop) >= 0:
        hashes = np.flatnonzero(raw == ord("#"))
        hashes = np.append(hashes[~sep[hashes]], raw.size)  # those not cut off
        cut = np.minimum(hashes[np.searchsorted(hashes, heads)], ends)
        commented = cut < ends
        _blank(sep, cut[commented], ends[commented])
    whole = np.ones(heads.size, dtype=bool)
    if data.find(b"\r", start, stop) >= 0:
        # a CR that ends no line: LF does not follow it and the data goes on
        returns = np.flatnonzero(raw[:-1] == ord("\r"))
        returns = np.append(returns[raw[returns + 1] != ord("\n")], raw.size)
        whole = returns[np.searchsorted(returns, heads)] >= cut
    changes = np.not_equal(padded[1:], padded[:-1], out=spare)
    del padded, sep
    bounds = np.empty(np.count_nonzero(changes), dtype=np.int32 if len(data) < 1 << 31 else np.int64)
    done = 0
    for lo in range(0, changes.size, _SPAN):
        found = np.flatnonzero(changes[lo:lo + _SPAN])
        found += start + lo
        bounds[done:done + found.size] = found
        done += found.size
    del changes, spare
    heads, ends = heads + start, ends + start
    if (bounds.size == 8 * heads.size and np.array_equal(bounds[::8], heads)
            and np.all(bounds[6::8] < ends)):
        # each record has 4 tokens and no other line has any
        return bounds.reshape(-1, 8), whole
    tags = 2 * np.searchsorted(bounds[::2], heads)
    whole &= tags + 7 < bounds.size
    bounds = bounds[np.minimum(tags[:, None] + np.arange(8), bounds.size - 1)]
    whole &= bounds[:, 6] < ends
    return bounds, whole


def _line(data, at):
    """The line of ``data`` from ``at`` to its end, stripped."""
    return data[at:data.find(b"\n", at) + 1 or len(data)].strip()


def _obj_rows(data, bounds, whole, tag, parse):
    """``parse`` of entries 1-3 of the ``tag`` records (``bounds`` and
    ``whole`` as ``_obj_tokens`` gives them), (count, 3), or (0,) if there
    are none; BadField names the first record that is not whole or has an
    entry that ``parse`` rejects."""
    if not len(bounds):
        return np.zeros(0, dtype=np.int64 if tag == "f" else np.float64)
    count = len(bounds) if whole.all() else int(np.argmin(whole))
    firsts, lasts = bounds[:count, 2::2], bounds[:count, 3::2]
    try:
        rows = parse(data, firsts, lasts)
    except BadField as exc:
        count = int(np.searchsorted(firsts[:, 0], exc.args[0], "right")) - 1
    else:
        if count == len(bounds):
            return rows
    raise BadField(int(bounds[count, 0]), f"bad OBJ {tag} record", _line(data, bounds[count, 0]))


def _records(rows, *arrays):
    """``arrays`` at the rows where ``rows`` is true, a slice of them (no
    copy) if those rows are adjacent, as the writer's f records are."""
    at = np.flatnonzero(rows)
    if at.size and at[-1] - at[0] + 1 == at.size:
        at = slice(at[0], at[-1] + 1)
    return [a[at] for a in arrays]


def _obj_block(data, start, stop):
    """(vertices, faces) rows of the v/f records of ``data[start:stop]``,
    whole OBJ lines: ``_obj_tokens`` bounds each record's entries 1-3, which
    ``_text.parse_ints`` reads in f records and ``_text.parse_floats`` in v
    records."""
    raw = np.frombuffer(data, dtype=np.uint8, count=stop - start, offset=start)
    ends = np.flatnonzero(raw == ord("\n")) + 1
    if raw[-1] != ord("\n"):  # the last line of the data
        ends = np.append(ends, raw.size)
    # each line's first byte after its indentation: for an indented line, the
    # next byte of the block that is not a space or tab (the block end if none)
    heads = np.concatenate(([0], ends[:-1]))
    kinds = raw[heads]
    indented = np.flatnonzero((kinds == 32) | (kinds == 9))
    if indented.size:
        solid = np.flatnonzero((raw != 32) & (raw != 9))
        heads[indented] = np.append(solid, raw.size)[np.searchsorted(solid, heads[indented])]
        kinds[indented] = raw[np.minimum(heads[indented], raw.size - 1)]
    # the v and f records: lines whose tag byte is v or f, followed by whitespace or the end
    records = np.flatnonzero((kinds == ord("v")) | (kinds == ord("f")))
    after = heads[records] + 1
    second = raw[np.minimum(after, raw.size - 1)]
    records = records[(second == 32) | (second == 9) | (second == 13) | (second == 10)
                      | (after == raw.size)]
    faces, lines = kinds[records] == ord("f"), ends.size
    heads, ends = heads[records], ends[records]
    del kinds, records, after, second
    bounds, whole = _obj_tokens(data, start, raw, lines, heads, ends, faces)
    del heads, ends
    f_bounds, f_whole = _records(faces, bounds, whole)
    rows = _obj_rows(data, f_bounds, f_whole, "f", parse_ints)
    if rows.size and rows.min() < 1:
        at = int(f_bounds[np.argmax(rows.min(axis=1) < 1), 0])
        raise BadField(at, "OBJ f record index below 1", _line(data, at))
    rows -= 1
    vertices = _obj_rows(data, *_records(~faces, bounds, whole), "v",
                         lambda text, a, b: parse_floats(text, a.ravel(), b.ravel()).reshape(-1, 3))
    return [vertices, rows]


def _joined(arrays, dtype):
    """The arrays that are not empty end to end, or (0,) if none is."""
    return np.concatenate([a for a in arrays if a.size] or [np.zeros(0, dtype)])


def load_obj(data) -> tuple[np.ndarray, np.ndarray]:
    """Parse v/f records (first three entries; face entries >= 1, up to any '/')
    from OBJ bytes or text (a str is read as its UTF-8 bytes; one leading
    UTF-8 byte-order mark is skipped); returns (vertices, faces), each (0,)
    if absent.  Records are read as numpy's text reader read them: entries
    split at latin-1 whitespace up to a '#', v entries as Python's
    ``float`` spells them without '_', f entries as an optional sign and
    ASCII digits within int64.
    A bad record raises ValueError naming its 1-based line and its text, and
    a face index beyond the number of v records raises it naming the index.

    The bytes are parsed in place in blocks of ``_text._BLOCK`` cut at the
    next line end (``_text.read_blocks``, ``_obj_block``), on the calling
    thread and one helper, keeping only each block's rows, and the vertex
    rows are joined and freed before the face rows: the memory used beyond
    the input is the arrays returned plus the larger of two blocks' work
    and the face rows.  The arrays are the same bits whichever thread parses a
    block.
    """
    blocks = read_blocks(*text_bytes(data), _obj_block)
    faces = [block.pop() for block in blocks]
    vertices = _joined([block.pop() for block in blocks], np.float64)
    faces = _joined(faces, np.int64)
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
