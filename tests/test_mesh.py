import builtins
import dataclasses
import io
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import lorentz_cmc._text as text_module
import lorentz_cmc.core as core_module
import lorentz_cmc.mesh as mesh_module
import lorentz_cmc.profile as profile_module
from lorentz_cmc import (
    NonPositiveRadius,
    SurfaceMesh,
    SpacelikeViolation,
    SurfaceParams,
    euler_characteristic,
    export_obj,
    export_profile_csv,
    first_integral_residual,
    heights,
    load_obj,
    patch_from_csv,
    patch_from_profile,
    patch_to_csv,
    profile_curve,
    sample_surface,
    singularity_report,
)
from lorentz_cmc._text import (_BLOCK, _ROWS, BadField, distinct_reprs, format_records,
                               read_blocks, text_bytes)


def curve_of(H, c, r=1.0, a=0.0):
    return profile_curve(SurfaceParams(H, c), (r, a))


class TestSampling:
    def test_plane_grid_counts_and_heights(self):
        mesh = sample_surface(curve_of(0.0, 0.0, a=0.25), (1.0, 2.0), 2, 4)
        assert mesh.vertices.shape == (8, 3)
        assert np.all(mesh.vertices[:, 2] == 0.25)
        # 1 band of 4 quads, split in two triangles each
        assert mesh.faces.shape == (8, 3)

    def test_vertex_invariant_radius_and_height(self):
        curve = curve_of(1.0, 3.0)
        mesh = sample_surface(curve, (1.0, 4.0), 16, 12)
        radii = np.hypot(mesh.vertices[:, 0], mesh.vertices[:, 1])
        expected_r = np.repeat(mesh.ring_radii, 12)
        assert np.max(np.abs(radii - expected_r)) < 1e-12
        expected_h = np.repeat(curve.heights(mesh.ring_radii), 12)
        assert np.max(np.abs(mesh.vertices[:, 2] - expected_h)) < 1e-12

    @pytest.mark.parametrize("t_range,n_t", [((0.0, 7.0), 64), ((0.5, 4.0), 9),
                                             ((1e-3, 1e5), 257), ((2.0, 2.5), 2)])
    def test_ring_radii_are_numpy_linspace_and_geomspace_bit_for_bit(self, t_range, n_t):
        # log-spaced radii, and the mesh bytes they feed, follow numpy's SIMD
        # dispatch of geomspace (README); a rewrite of either grid moves them
        curve = curve_of(0.0, 3.0)
        for spacing, grid in (("uniform", np.linspace), ("log", np.geomspace)):
            if spacing == "log" and t_range[0] == 0.0:
                continue
            ts = grid(*t_range, n_t)
            mesh = sample_surface(curve, t_range, n_t, 5, spacing=spacing)
            apex = int(t_range[0] == 0.0)
            ring_ts = ts[apex:]
            assert mesh.ring_radii.tobytes() == ring_ts.tobytes()
            # spoke 0 lies on the x axis: x is the radius itself
            assert mesh.vertices[apex::5, 0].tobytes() == ring_ts.tobytes()

    def test_seam_is_shared_not_duplicated(self):
        mesh = sample_surface(curve_of(1.0, 0.0), (1.0, 2.0), 5, 7)
        assert mesh.vertices.shape[0] == 5 * 7
        # wraparound faces reference the first column
        assert np.any(mesh.faces % 7 == 0)

    def test_euler_characteristic_of_annulus_is_zero(self):
        mesh = sample_surface(curve_of(1.0, 3.0), (1.0, 4.0), 9, 11)
        assert euler_characteristic(mesh) == 0

    def test_maximal_mesh_matches_closed_form(self):
        curve = curve_of(0.0, 3.0)
        mesh = sample_surface(curve, (0.0, 7.0), 64, 64)
        radii = np.hypot(mesh.vertices[1:, 0], mesh.vertices[1:, 1])
        expected = -3.0 * (np.arcsinh(radii / 3.0) - np.arcsinh(1.0 / 3.0))
        assert np.max(np.abs(mesh.vertices[1:, 2] - expected)) < 1e-9

    def test_mesh_is_frozen(self):
        mesh = sample_surface(curve_of(1.0, 3.0), (1.0, 4.0), 3, 4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            mesh.n_theta = 5
        assert not hasattr(mesh, "metadata")

    def test_apex_fan_for_window_starting_at_axis(self):
        curve = curve_of(1.0, 3.0)
        mesh = sample_surface(curve, (0.0, 4.0), 8, 6)
        assert mesh.singular_vertex == 0
        assert mesh.vertices.shape[0] == 1 + 7 * 6
        apex = mesh.vertices[0]
        rep = singularity_report(curve)
        assert apex[0] == 0.0 and apex[1] == 0.0
        assert apex[2] == rep.cone_vertex_height
        # fan + bands, still annulus-with-cone: disc topology, chi = 1
        assert euler_characteristic(mesh) == 1

    def test_log_spacing(self):
        mesh = sample_surface(curve_of(1.0, 0.0), (0.5, 8.0), 5, 8, spacing="log")
        assert np.allclose(np.diff(np.log(mesh.ring_radii)), math.log(2.0))
        with pytest.raises(NonPositiveRadius):
            sample_surface(curve_of(1.0, 0.0), (0.0, 8.0), 5, 8, spacing="log")

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sample_surface(curve_of(1.0, 0.0), (2.0, 1.0), 4, 8)
        with pytest.raises(ValueError):
            sample_surface(curve_of(1.0, 0.0), (1.0, 2.0), 1, 8)
        with pytest.raises(ValueError):
            sample_surface(curve_of(1.0, 0.0), (1.0, 2.0), 4, 2)
        with pytest.raises(ValueError, match="unknown spacing 'cubic'"):
            sample_surface(curve_of(1.0, 0.0), (1.0, 2.0), 4, 8, spacing="cubic")
        # counts are integers: a float count raises TypeError, even a whole one
        for bad in (64.0, math.nan, math.inf, 3.5):
            with pytest.raises(TypeError):
                sample_surface(curve_of(1.0, 0.0), (1.0, 2.0), bad, 8)
            with pytest.raises(TypeError):
                sample_surface(curve_of(1.0, 0.0), (1.0, 2.0), 4, bad)
        mesh = sample_surface(curve_of(1.0, 0.0), (1.0, 2.0), np.int64(4), np.int64(8))
        assert mesh.vertices.shape == (32, 3) and mesh.n_theta == 8
        with pytest.raises(ValueError, match="need at least 3 spokes"):
            sample_surface(curve_of(1.0, 0.0), (1.0, 2.0), 4, True)

    @pytest.mark.parametrize("n", [*range(3, 131), 256, 1024])
    def test_spoke_table_is_exactly_symmetric(self, n):
        cos_t, sin_t = mesh_module._spoke_table(n)
        j = np.arange(n)
        assert np.array_equal(cos_t[-j % n], cos_t) and np.array_equal(sin_t[-j % n], -sin_t)
        if n % 2 == 0:
            assert np.array_equal(cos_t[(n // 2 - j) % n], -cos_t)
            assert np.array_equal(sin_t[(n // 2 - j) % n], sin_t)
        if n % 4 == 0:
            assert np.array_equal(cos_t[(n // 4 - j) % n], sin_t)
            assert np.array_equal(sin_t[(n // 4 - j) % n], cos_t)
        if n % 8 == 0:  # the spokes at pi/4, 3 pi/4, 5 pi/4, 7 pi/4
            diagonal = np.arange(1, 8, 2) * n // 8
            assert np.array_equal(np.abs(cos_t[diagonal]), np.abs(sin_t[diagonal]))
        assert not np.any(np.signbit(cos_t) & (cos_t == 0.0))
        assert not np.any(np.signbit(sin_t) & (sin_t == 0.0))
        if np.finfo(np.longdouble).eps < 1e-18:
            theta = 2 * np.arccos(np.longdouble(-1)) * j / n
            assert np.max(np.abs(cos_t - np.cos(theta))) <= 2e-16
            assert np.max(np.abs(sin_t - np.sin(theta))) <= 2e-16

    def test_face_orientation_counterclockwise_from_above(self):
        mesh = sample_surface(curve_of(0.0, 0.0), (1.0, 2.0), 3, 8)
        v = mesh.vertices
        for tri in mesh.faces:
            p0, p1, p2 = v[tri]
            cross_z = np.cross(p1 - p0, p2 - p0)[2]
            assert cross_z > 0.0


class TestObjExport:
    def test_plane_mesh_record_counts(self):
        mesh = sample_surface(curve_of(0.0, 0.0), (1.0, 2.0), 2, 3)
        text = export_obj(mesh).decode("ascii")
        lines = text.strip().splitlines()
        assert sum(1 for ln in lines if ln.startswith("v ")) == 6
        assert sum(1 for ln in lines if ln.startswith("f ")) == 6
        assert all(ln[0] in "vf" for ln in lines)

    def test_round_trip_preserves_geometry(self):
        mesh = sample_surface(curve_of(1.0, 3.0), (1.0, 3.0), 6, 9)
        verts, faces = load_obj(export_obj(mesh))
        assert np.array_equal(verts, mesh.vertices)
        assert np.array_equal(faces, mesh.faces)
        radii = np.hypot(verts[:, 0], verts[:, 1])
        assert np.max(np.abs(radii - np.repeat(mesh.ring_radii, 9))) < 1e-12

    def test_export_is_deterministic(self):
        curve = curve_of(1.0, 3.0)
        a = export_obj(sample_surface(curve, (1.0, 3.0), 6, 9))
        b = export_obj(sample_surface(curve, (1.0, 3.0), 6, 9))
        assert a == b

    @pytest.mark.parametrize("faces,match", [
        # written as "f 1 2 8" and "f 1 0 3", which load_obj refuses
        ([[0, 1, 7]], r"^face 0 \[0, 1, 7\] has a vertex index outside \[0, 3\)$"),
        ([[0, 1, 2], [0, -1, 2]], r"^face 1 \[0, -1, 2\] has a vertex index outside"),
        # raised TypeError: %d format: a real number is required, not str
        ([[0.0, 1.0, 2.0]], r"integer vertex indices, got float64: face 0 is \[0.0, 1.0, 2.0\]$"),
        ([[True, False, True]], r"integer vertex indices, got bool"),
        ([[0, 1]], r"shape \(n, 3\), got \(1, 2\)$"),
        ([0, 1, 2], r"shape \(n, 3\), got \(3,\)$"),
    ])
    def test_faces_load_obj_would_refuse_are_rejected(self, faces, match):
        mesh = SurfaceMesh(vertices=np.zeros((3, 3)), faces=np.array(faces),
                           ring_radii=np.zeros(0), n_theta=3)
        with pytest.raises(ValueError, match=match):
            export_obj(mesh)

    @pytest.mark.parametrize("faces", [np.array([[0, 255, 254]], dtype=np.uint8),
                                       np.array([[0, 255, 1]], dtype=np.uint16),
                                       np.array([[2, 1, 0]], dtype=np.uint64),
                                       np.zeros(0), np.zeros((0, 3), dtype=np.int64)])
    def test_integer_and_empty_faces_read_back(self, faces):
        # uint8 index 255 plus 1 wrapped to 0, written as "f 1 0 ..."
        mesh = SurfaceMesh(vertices=np.arange(900.0).reshape(300, 3), faces=faces,
                           ring_radii=np.zeros(0), n_theta=3)
        vertices, read = load_obj(export_obj(mesh))
        assert np.array_equal(vertices, mesh.vertices)
        assert read.tolist() == (faces.tolist() if faces.size else [])


def _minkowski(a, b):
    """Row-wise Lorentz-Minkowski products <a, b> = a1 b1 + a2 b2 - a3 b3."""
    return a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1] - a[:, 2] * b[:, 2]


def _obj_laplacian(data, voronoi=False):
    """Cotangent Laplacian of the vertex positions of OBJ bytes, in Minkowski products.

    A spacelike triangle has a Riemannian induced metric, so the cotangent of
    the angle between edges u, w is <u, w> / sqrt(<u, u> <w, w> - <u, w>^2);
    each vertex takes a third of the area of every triangle around it, or
    with ``voronoi`` its Voronoi cell, cot |e|^2 / 8 from each edge e at it
    (Meyer et al. 2003).  At the apex of a fan the third overstates the cell
    by 4/3, so |H| there tends to 3/4 of the truth; the Voronoi cell does not.
    """
    v, f = load_obj(data)
    n = len(v)
    lap, area = np.zeros((n, 3)), np.zeros(n)
    for k in range(3):
        # the corner o of each face, opposite its edge (i, j)
        i, j, o = f[:, k], f[:, (k + 1) % 3], f[:, (k + 2) % 3]
        u, w = v[i] - v[o], v[j] - v[o]
        uw = _minkowski(u, w)
        gram = _minkowski(u, u) * _minkowski(w, w) - uw * uw
        assert np.all(gram > 0.0), "a triangle is not spacelike"
        root = np.sqrt(gram)
        e = v[j] - v[i]
        edge = (uw / root)[:, None] * e
        for axis in range(3):
            lap[:, axis] += np.bincount(i, edge[:, axis], n) - np.bincount(j, edge[:, axis], n)
        if voronoi:
            cell = uw / root * _minkowski(e, e) / 8.0
            area += np.bincount(i, cell, n) + np.bincount(j, cell, n)
        else:
            area += np.bincount(o, root / 6.0, n)
    return lap / (2.0 * area[:, None])


def _check_obj_curvature(H, c, edit=lambda data, n_t: data, t0=1.0):
    """|H| and its sign from the written OBJ bytes (after ``edit``) converge at O(h^2).

    On t in [t0, 4] through (1, 0), n_theta = 4 n_t, the Laplacian of the
    position is 2 H N with <N, N> = -1, so |H| = sqrt(-<lap, lap>) / 2 and
    lap_3 has the sign of H; the checked rings lie in (1, 4), so on [1, 4]
    the first and last are left out.  An axis mesh (t0 = 0) keeps its apex
    fan in the Laplacian.
    """
    devs = []
    for n_t in (32, 64, 128):
        mesh = sample_surface(curve_of(H, c), (t0, 4.0), n_t, 4 * n_t)
        radii = np.repeat(mesh.ring_radii, 4 * n_t)
        checked = (radii > 1.0) & (radii < 4.0)
        if mesh.singular_vertex is not None:
            checked = np.concatenate([[False], checked])
        lap = _obj_laplacian(edit(export_obj(mesh), n_t))[checked]
        norm2 = -_minkowski(lap, lap)
        assert np.all(norm2 > 0.0), "a mean curvature vector is not timelike"
        devs.append(np.max(np.abs(np.sqrt(norm2) / 2.0 - abs(H))))
        if H != 0.0:
            assert np.all(np.sign(lap[:, 2]) == np.sign(H))
    assert devs[0] >= 3.0 * devs[1] and devs[1] >= 3.0 * devs[2], devs
    assert devs[2] <= 1e-3, devs


class TestObjCurvature:
    """The OBJ bytes users read are a surface of mean curvature H."""

    @pytest.mark.parametrize("H,c", [(1.0, 3.0), (0.1, -0.25), (0.5, 0.0), (0.0, 2.0),
                                     (-1.0, -3.0)])
    def test_cotangent_laplacian_recovers_H(self, H, c):
        # max deviations at n_t = 32, 64, 128: 1.0e-2, 2.6e-3, 6.6e-4 on (1, 3)
        # and its mirror, down to 7.7e-5, 2.2e-5, 6.1e-6 on (0.1, -0.25)
        _check_obj_curvature(H, c)

    def test_axis_mesh_recovers_H_away_from_the_cone(self):
        # the apex of c != 0 is the conical point, where the stencil does not
        # resolve the profile (from the second ring: 0.030, 0.045, 0.53), so
        # the check keeps to t in (1, 4), with the fan in the mesh: max
        # deviations 2.3e-4, 5.9e-5, 1.5e-5 at n_t = 32, 64, 128
        _check_obj_curvature(0.1, -0.25, t0=0.0)

    @staticmethod
    def _check_axis_cap(edit=lambda data, n_t: data):
        """|H| of the cap (0.5, 0) over t in [0, 4] converges at its apex, a
        regular point, and on the first ring, in Voronoi cells.

        Measured: the apex deviates by 3.2e-15, 1.0e-14, 2.1e-14 at n_t = 32,
        64, 128 (the fan is symmetric on the hyperboloid, where the formula
        is exact: roundoff alone); the first ring by 1.6e-5, 3.9e-6, 9.7e-7,
        a rate of 4.0 per halving of h.
        """
        apex, ring = [], []
        for n_t in (32, 64, 128):
            mesh = sample_surface(curve_of(0.5, 0.0), (0.0, 4.0), n_t, 4 * n_t)
            assert mesh.singular_vertex == 0
            lap = _obj_laplacian(edit(export_obj(mesh), n_t), voronoi=True)[:1 + 4 * n_t]
            norm2 = -_minkowski(lap, lap)
            assert np.all(norm2 > 0.0) and np.all(lap[:, 2] > 0.0)
            dev = np.abs(np.sqrt(norm2) / 2.0 - 0.5)
            apex.append(dev[0])
            ring.append(np.max(dev[1:]))
        assert max(apex) <= 1e-12, apex
        assert ring[0] >= 3.5 * ring[1] and ring[1] >= 3.5 * ring[2], ring
        assert ring[2] <= 2e-6, ring

    def test_apex_of_an_axis_cap_converges(self):
        self._check_axis_cap()

    def test_moved_apex_fails(self):
        def edit(data, n_t):
            head, rest = data.split(b"\n", 1)
            x, y, z = (float(v) for v in head.split()[1:])
            return b"v %r %r %r\n" % (x, y, z + 1e-4) + rest

        with pytest.raises(AssertionError):
            self._check_axis_cap(edit)

    @pytest.mark.parametrize("a,b", [(1, 3), (2, 3)])
    def test_swapped_columns_fail(self, a, b):
        pattern = rb"(?m)^v (\S+) (\S+) (\S+)$"
        swap = {(1, 3): rb"v \3 \2 \1", (2, 3): rb"v \1 \3 \2"}[a, b]
        with pytest.raises(AssertionError):
            _check_obj_curvature(1.0, 3.0, lambda data, n_t: re.sub(pattern, swap, data))

    @pytest.mark.parametrize("shift", [1e-4, -1e-6])
    def test_one_wrong_ring_height_fails(self, shift):
        def edit(data, n_t):
            lines = data.split(b"\n")
            ring = slice(n_t // 2 * 4 * n_t, (n_t // 2 + 1) * 4 * n_t)
            z = float(lines[ring.start].split()[3])
            wrong = [line.rsplit(b" ", 1)[0] + b" %r" % (z + shift) for line in lines[ring]]
            return b"\n".join(lines[:ring.start] + wrong + lines[ring.stop:])

        with pytest.raises(AssertionError):
            _check_obj_curvature(1.0, 3.0, edit)


def _ring_flux(data, n_theta, ring, H):
    """Flux of the surface of OBJ bytes through one ring: of an annulus
    mesh, or of a mesh with an apex, which then stands for ring 0.

    Along each ring edge e from p to the next spoke, the outward unit
    conormal is the mean of two unit vectors normal to e: the ring's
    neighbours on p's spoke, p's outer one minus p and p minus its inner
    one, each Minkowski-normalised after removing its component along e.
    The flux is the sum of <nu, e3> |e| = -nu_3 |e| plus H times twice the
    area of the ring's (x, y) polygon (README, flux orientation): 2 pi c.
    """
    v = load_obj(data)[0]
    if len(v) % n_theta:
        v = np.concatenate([np.repeat(v[:1], n_theta, axis=0), v[1:]])
    grid = v.reshape(-1, n_theta, 3)
    p = grid[ring]
    e = np.roll(p, -1, axis=0) - p
    ee = _minkowski(e, e)
    nu = np.zeros_like(p)
    for d in (grid[ring + 1] - p, p - grid[ring - 1]):
        d = d - (_minkowski(d, e) / ee)[:, None] * e
        dd = _minkowski(d, d)
        assert np.all(dd > 0.0) and np.all(ee > 0.0), "a conormal is not spacelike"
        nu += d / np.sqrt(dd)[:, None] / 2.0
    x, y = p[:, 0], p[:, 1]
    area = np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y) / 2.0
    return np.sum(-nu[:, 2] * np.sqrt(ee)) + 2.0 * H * area


def _check_obj_flux(H, c, t_range, spacing, mesh_H=None):
    """The flux read off the written OBJ bytes of (``mesh_H`` or H, c) as a
    surface of mean curvature H tends to 2 pi c at O(h^2) through every
    interior ring: n + 1 rings (an apex and n rings if t_range starts at 0)
    by n spokes for n = 32, 64, 128, ring k of the coarsest at the radius
    of ring 2k and 4k of the finer ones.  Ring n / 2, at the window's
    midpoint (its geometric mean for log spacing), gains a factor 3.5-4.5
    at each halving of h.  On every ring, with e_k(h) the error on ring k,
    max_k |e_k(2h) - 4 e_k(h)| <= 0.1 max_k |e_k(2h)|, as the h^2 term
    cancels (at most 0.084 on these meshes; 0.5 for a first-order error,
    0.22 on the finer pair for the mesh of H + 0.001 on (1, 3))."""
    errs = []
    for n in (32, 64, 128):
        mesh = sample_surface(curve_of(H if mesh_H is None else mesh_H, c), t_range, n + 1, n,
                              spacing=spacing)
        data = export_obj(mesh)
        errs.append(np.array([_ring_flux(data, n, k * n // 32, H) for k in range(1, 32)])
                    - 2.0 * math.pi * c)
    mid = [abs(e[15]) for e in errs]
    assert 3.5 <= mid[0] / mid[1] <= 4.5 and 3.5 <= mid[1] / mid[2] <= 4.5, mid
    assert mid[2] <= 0.06, mid
    for coarse, fine in zip(errs, errs[1:]):
        assert np.abs(coarse - 4.0 * fine).max() <= 0.1 * np.abs(coarse).max(), (coarse, fine)
    assert np.abs(errs[2]).max() <= 0.3, errs[2]


class TestObjFlux:
    """The OBJ bytes users read carry the flux 2 pi c through a ring, with
    neither ``flux_numeric`` nor ``flux_closed_form`` taking part."""

    @pytest.mark.parametrize("spacing", ["uniform", "log"])
    @pytest.mark.parametrize("H,c,t_range", [(1.0, 3.0, (1.0, 4.0)), (1.0, -0.5, (0.2, 3.0)),
                                             (2.0, 0.0, (0.5, 2.0)), (0.0, 1.0, (0.5, 3.0)),
                                             (-1.0, -3.0, (1.0, 4.0))])
    def test_ring_flux_converges_to_2_pi_c(self, H, c, t_range, spacing):
        # errors at n = 32, 64, 128, uniform: 0.461, 0.115, 0.0286 on (1, 3)
        # and its mirror, 0.812, 0.196, 0.0487 on the cap (2, 0), down to
        # 0.0341, 0.00848, 0.00212 on the catenoid (0, 1); ratios 4.00-4.14
        _check_obj_flux(H, c, t_range, spacing)

    @pytest.mark.parametrize("H,c,t_range", [(0.1, -0.25, (0.0, 4.0)), (2.0, 0.0, (0.0, 2.0))])
    def test_apex_mesh_flux_converges_to_2_pi_c(self, H, c, t_range):
        # figure 2 and the cap through their apex, whose faces are all
        # spacelike (TestNonSpacelikeFaces); ring 1 borders the apex fan
        _check_obj_flux(H, c, t_range, "uniform")

    @pytest.mark.parametrize("spacing", ["uniform", "log"])
    def test_plane_carries_no_flux(self, spacing):
        data = export_obj(sample_surface(curve_of(0.0, 0.0, a=0.25), (0.5, 3.0), 33, 32,
                                         spacing=spacing))
        assert [_ring_flux(data, 32, ring, 0.0) for ring in range(1, 32)] == [0.0] * 31

    def test_mesh_of_another_H_fails(self):
        # the mesh of (1.01, 3) as if H were 1: errors 0.865, 0.510, 0.422
        with pytest.raises(AssertionError):
            _check_obj_flux(1.0, 3.0, (1.0, 4.0), "uniform", mesh_H=1.01)


def _gram(v, f):
    """Gram determinant <u, u><w, w> - <u, w>^2 of the edges u, w at each face's first corner."""
    u, w = v[f[:, 1]] - v[f[:, 0]], v[f[:, 2]] - v[f[:, 0]]
    uw = _minkowski(u, w)
    return _minkowski(u, u) * _minkowski(w, w) - uw * uw


class TestNonSpacelikeFaces:
    """A fan triangle from the apex to first-ring vertices at radius t, a
    height dz away, has Gram determinant t^2 (1 - cos d)(t^2 (1 + cos d) -
    2 dz^2) with d = 2 pi / n_theta: it is spacelike only while the chord
    slope |dz| / t stays below cos(pi / n_theta).  Near a conical apex the
    slope tends to +-1, so the mesh written has faces with G <= 0 (README)."""

    @pytest.mark.parametrize("H,c,t_range,n,count", [
        (0.0, 3.0, (0.0, 7.0), 64, 64),  # figure 1: its fan
        (0.0, 3.0, (0.0, 7.0), 256, 256),
        (1.0, 3.0, (0.0, 4.0), 64, 192),  # figure 4: its fan and first quad band
        (1.0, 3.0, (0.0, 4.0), 256, 768),
        (0.1, -0.25, (0.0, 4.0), 64, 0),  # figure 2
        (1.0, 3.0, (1.0, 4.0), 64, 0),  # figure 3
        (1.0, -0.5, (0.0, 3.0), 64, 0),
        (2.0, 0.0, (0.0, 2.0), 64, 0),
    ])
    def test_non_spacelike_faces_lead_the_face_list(self, H, c, t_range, n, count):
        v, f = load_obj(export_obj(sample_surface(curve_of(H, c), t_range, n, n)))
        assert np.array_equal(np.flatnonzero(_gram(v, f) <= 0.0), np.arange(count))
        if t_range[0] == 0.0:
            # spoke 0 of the first ring lies on the x axis: x is its radius
            chord = abs(v[1, 2] - v[0, 2]) / v[1, 0]
            assert (chord >= math.cos(math.pi / n)) == (count > 0)


class TestProfileCsv:
    def test_columns_and_line_endings(self):
        data = export_profile_csv(curve_of(0.0, 3.0), np.linspace(1.0, 3.0, 5))
        text = data.decode("ascii")
        assert text.startswith("t,f,f_prime,first_integral_residual\r\n")
        assert text.count("\r\n") == 6

    def test_values_match_library(self):
        curve = curve_of(0.0, 3.0)
        ts = np.linspace(1.0, 3.0, 5)
        rows = export_profile_csv(curve, ts).decode("ascii").strip().splitlines()[1:]
        for t, row in zip(ts, rows):
            t_csv, f_csv, fp_csv, res_csv = (float(x) for x in row.split(","))
            assert t_csv == t
            # the array path, which may differ from height(t) by 2 ulp of asinh
            assert f_csv == curve.heights([t])[0]
            assert abs(f_csv - curve.height(t)) <= 1e-14
            assert fp_csv == curve.slope(t)
            assert abs(res_csv) < 1e-6

    def test_axis_row_uses_limits(self):
        curve = curve_of(1.0, 3.0)
        data = export_profile_csv(curve, np.array([0.0, 1.0, 2.0]))
        first = data.decode("ascii").strip().splitlines()[1].split(",")
        rep = singularity_report(curve)
        assert float(first[0]) == 0.0
        assert float(first[1]) == rep.cone_vertex_height
        assert float(first[2]) == rep.limit_slope
        assert float(first[3]) == 0.0

    def test_negative_radius_rejected(self):
        with pytest.raises(NonPositiveRadius):
            export_profile_csv(curve_of(1.0, 3.0), np.array([-1.0, 1.0]))

    def test_rows_near_the_axis_still_export(self):
        data = export_profile_csv(curve_of(1.0, 3.0), np.array([0.0, 1e-6, 1.0]))
        rows = data.decode("ascii").strip().splitlines()[1:]
        assert len(rows) == 3
        t1, f1, fp1, res1 = (float(v) for v in rows[1].split(","))
        assert t1 == 1e-6
        assert fp1 == pytest.approx(-1.0, abs=1e-6)
        # the residual is not finite-differenceable this deep in the cone
        assert math.isnan(res1)
        t2, _, _, res2 = (float(v) for v in rows[2].split(","))
        assert t2 == 1.0 and abs(res2) < 1e-6

    def test_deterministic(self):
        curve = curve_of(1.0, 3.0)
        ts = np.linspace(0.0, 4.0, 9)
        assert export_profile_csv(curve, ts) == export_profile_csv(curve, ts)


def reference_faces(n_rings, n_theta, apex):
    """Per-face double loop the vectorised face builder must reproduce."""
    offset = 1 if apex else 0

    def vid(i, j):
        return offset + i * n_theta + (j % n_theta)

    faces = []
    if apex:
        for j in range(n_theta):
            faces.append((0, vid(0, j), vid(0, j + 1)))
    for i in range(n_rings - 1):
        for j in range(n_theta):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v11, v01 = vid(i + 1, j + 1), vid(i, j + 1)
            faces.append((v00, v10, v11))
            faces.append((v00, v11, v01))
    return np.asarray(faces, dtype=np.int64)


def reference_euler(n_vertices, faces):
    """V - E + F with the edges collected in a Python set."""
    edges = set()
    for i, j, k in faces.tolist():
        for a, b in ((i, j), (j, k), (k, i)):
            edges.add((min(a, b), max(a, b)))
    return n_vertices - len(edges) + len(faces)


class TestReferenceKernels:
    @pytest.mark.parametrize("apex", [False, True])
    @pytest.mark.parametrize("n_t", [2, 3, 5, 8])
    @pytest.mark.parametrize("n_theta", [3, 4, 7, 16])
    def test_faces_and_euler_match_reference(self, n_t, n_theta, apex):
        t_range = (0.0, 4.0) if apex else (1.0, 4.0)
        mesh = sample_surface(curve_of(1.0, 3.0), t_range, n_t, n_theta)
        n_rings = n_t - 1 if apex else n_t
        expected = reference_faces(n_rings, n_theta, apex)
        assert mesh.faces.dtype == np.int64
        assert np.array_equal(mesh.faces, expected)
        assert euler_characteristic(mesh) == \
            reference_euler(mesh.vertices.shape[0], expected)

    def test_euler_of_triangle_soup_matches_reference(self):
        rng = np.random.default_rng(7)
        for n_vertices, n_faces in ((3, 1), (5, 12), (40, 200), (1000, 50)):
            faces = rng.integers(0, n_vertices, size=(n_faces, 3))
            mesh = SurfaceMesh(vertices=np.zeros((n_vertices, 3)), faces=faces,
                               ring_radii=np.zeros(0), n_theta=3)
            assert euler_characteristic(mesh) == reference_euler(n_vertices, faces)


BOM = b"\xef\xbb\xbf"


def arrays_or_message(data):
    try:
        return load_obj(data)
    except ValueError as exc:
        return str(exc)


def assert_same_outcome(got, want):
    assert type(got) is type(want), (got, want)
    if isinstance(want, str):
        assert got == want
    else:
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()


class TestLoadObj:
    def test_slash_faces_comments_normals_and_whitespace(self):
        text = ("# header comment\r\n"
                "v 1 2 3\r\n"
                "\r\n"
                "vn 0 0 1\r\n"
                "vt 0.5 0.25\r\n"
                "v\t4.5\t-5e-3\t6\r\n"
                "   \r\n"
                "v 7 8 9.25\r\n"
                "f 1/2/3 2/3/1 3/1/2\r\n"
                "f 1//1\t3//3 2//2\r\n")
        for data in (text, text.encode("ascii")):
            verts, faces = load_obj(data)
            assert verts.dtype == np.float64 and faces.dtype == np.int64
            assert verts.tolist() == [[1.0, 2.0, 3.0], [4.5, -5e-3, 6.0],
                                      [7.0, 8.0, 9.25]]
            assert faces.tolist() == [[0, 1, 2], [0, 2, 1]]

    def test_slash_in_a_vertex_record_rejected(self):
        # only f records drop their /vt/vn suffixes: 1/2 is no coordinate
        with pytest.raises(ValueError, match="bad OBJ v record at line 1"):
            load_obj(b"v 1/2 3 4\n")

    @pytest.mark.parametrize("text", ["v 1 2\n", "v 1 2 3\nf 1 1\n", "f\n"])
    def test_short_record_rejected(self, text):
        with pytest.raises(ValueError):
            load_obj(text)

    @pytest.mark.parametrize("text", ["f 0 1 2", "f -1 -2 -3"])
    def test_face_index_below_one_rejected(self, text):
        # they would load as [-1, 0, 1] and [-2, -3, -4]: a different mesh
        with pytest.raises(ValueError, match=text):
            load_obj("v 1 2 3\nv 4 5 6\nv 7 8 9\nf 1 2 3\n" + text + "\n")

    @pytest.mark.parametrize("text", ["v 1 2 3\nf 1 2 3\n", "f 3 2 1\n",
                                      "v 1 2 3\nv 4 5 6\nf 1/1 2//2 3/3/3\n"])
    def test_face_index_beyond_vertices_rejected(self, text):
        # they loaded as faces pointing at missing vertices
        n_v = text.count("v ")
        with pytest.raises(ValueError, match=f"index 3 is beyond the {n_v} v records"):
            load_obj(text)

    @pytest.mark.parametrize("text,line,record", [
        ("v 1 2 3\nf 1 1 1\nv 1 2 3\nv 4 5\n", 4, "v 4 5"),
        ("v 1 2 3\nvn 0 0 1\nf 1 1 1\n# c\n\nf 1 1\nv 4 5 6\n", 6, "f 1 1"),
        ("v 1 2 3\r\n\tv 1 x 3\r\nf 1 1 1\r\n", 2, "v 1 x 3"),
        ("v 1 2 3\nf 1 1 1\nv 1 2 3\nf 1/1 0 1\n", 4, "f 1/1 0 1"),
        ("v 1 2 3\r\nv\r\n", 2, "v"),  # a tag that CR follows is a record
    ])
    def test_bad_record_names_its_line(self, text, line, record):
        # numpy's row within one tag's records was reported: "row 3" for line 4
        with pytest.raises(ValueError, match=f"at line {line}: b'{re.escape(record)}'$"):
            load_obj(text)

    @pytest.mark.parametrize("bad", ["v 4 5", "f 1 0 1", "f 1 x 1"])
    def test_bad_record_in_a_later_block_names_its_line(self, monkeypatch, bad):
        monkeypatch.setattr(text_module, "_BLOCK", 16)
        lines = ["v 1 2 3", "vn 0 0 1", "f 1 1 1", "# a comment", "  v 4 5 6"] * 20
        lines.insert(77, bad)
        text = "\n".join(lines)
        with pytest.raises(ValueError, match=f"at line 78: b'{bad}'$"):
            load_obj(text)
        del lines[77]
        assert load_obj("\n".join(lines))[0].shape == (40, 3)

    def test_nul_in_a_comment_keeps_the_distinct_text_parse(self, monkeypatch):
        # a NUL anywhere between the first and last field sent the whole
        # block through _one_by_one, about 1 us a field
        def refuse(*args):
            raise AssertionError("parsed one field at a time")

        monkeypatch.setattr(text_module, "_one_by_one", refuse)
        verts, faces = load_obj(b"v 1 2 3\n# \0\nv 4 5 6\nf 1 2 1\n")
        assert verts.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        assert faces.tolist() == [[0, 1, 0]]

    @pytest.mark.parametrize("field", [b"5\0", b"\x005", b"5\x006"])
    def test_nul_in_a_vertex_field_names_its_line(self, field):
        # zero-padded words would read 5\0 as 5
        record = b"v 4 " + field + b" 6"
        with pytest.raises(ValueError, match=re.escape(f"at line 3: {record!r}") + "$"):
            load_obj(b"v 1 2 3\n# \0\n" + record + b"\nf 1 2 1\n")

    def test_empty_input(self):
        for data in (b"", "", "# nothing but a comment\n\n"):
            verts, faces = load_obj(data)
            assert verts.shape == (0,) and faces.shape == (0,)

    def test_bom_example_keeps_its_first_vertex(self):
        # the BOM hid the first v tag: one vertex, (4, 5, 6), and the face [0, 0, 0]
        verts, faces = load_obj(BOM + b"v 1 2 3\nv 4 5 6\nf 1 1 1\n")
        assert verts.tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
        assert faces.tolist() == [[0, 0, 0]]

    @pytest.mark.parametrize("text", [
        "v 1 2 3\nv 4 5 6\nf 1 2 1\n",
        " \tv -0.0 nan inf\r\nf 1 1 1",
        "# comment\nv 1 2 3\n",
        "",
        "v 1 2 3\nv 4 5\n",  # line 2 named
        "v 1 x 3\n",  # line 1 named
        "v 1 2 3\nf 0 1 1\n",
        "f 1 2 3\n",
    ])
    def test_leading_bom_is_skipped(self, text):
        want = arrays_or_message(text)
        for data in (BOM + text.encode("ascii"), "\ufeff" + text):
            assert_same_outcome(arrays_or_message(data), want)

    def test_only_one_leading_bom_is_skipped(self):
        # a BOM elsewhere is a byte like any other, so its line starts with no tag
        assert load_obj(BOM + BOM + b"v 1 2 3\n")[0].shape == (0,)
        assert load_obj(BOM + b"v 1 2 3\n" + BOM + b"v 4 5 6\n")[0].tolist() == [[1.0, 2.0, 3.0]]

    @pytest.mark.parametrize("text", ["# \xe9\nv 1 2 3\n", "v 1 2 3\n# \u221e\nf 1 1 1\n",
                                      "v 1 2 \xe9\n", "v 1 2 3\nf 1 1 \xfc\n"])
    def test_str_reads_as_its_utf8_bytes(self, text):
        # a str was encoded as ASCII: UnicodeEncodeError, naming no line
        assert_same_outcome(arrays_or_message(text), arrays_or_message(text.encode("utf-8")))


def test_most_negative_face_index_rejected():
    # minus 1 it wrapped to the largest int64, which passed for an index >= 1
    with pytest.raises(ValueError, match="index below 1 at line 2"):
        load_obj("v 1 2 3\nf 1 1 -9223372036854775808\n")


class TestParseInts:
    # numpy's text reader on one int64 field: an optional sign, then ASCII
    # digits only, in range
    @pytest.mark.parametrize("field", [
        b"+5", b"05", b"-0", b"5", b"12345678", b"99999999", b"00000000", b"123456789",
        b"-12345678", b"000000000000000000000001", b"9223372036854775807",
        b"-9223372036854775808", b"5.0", b"1e3", b"5_0", b"0x10", b"9223372036854775808",
        b"-9223372036854775809", b"\xef5", b"+", b"-", b"+-1", b"--1", b"5-", b"\xb2", b":", b"/",
        b"5\x00", b"\x005", b"1:", b"0/", b"\xd9\xa3"])
    @pytest.mark.parametrize("lead", [0, 8], ids=["first_word", "later"])
    def test_grammar_like_loadtxt(self, field, lead):
        # a field ending in the text's first 8 bytes has no word of its own
        text = b"x" * lead + field + b" 7"
        try:
            want = int(np.loadtxt(io.BytesIO(field), dtype=np.int64))
        except ValueError:
            with pytest.raises(BadField) as exc:
                text_module.parse_ints(text, [lead], [lead + len(field)])
            assert exc.value.args == (lead, "field is not an integer", field)
        else:
            got = text_module.parse_ints(text, [lead], [lead + len(field)])
            assert got.dtype == np.int64 and got.tolist() == [want]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 10**9), st.integers(0, 3)), min_size=1, max_size=40))
    def test_numbers_read_back(self, numbers):
        # every width from 1 to 8 bytes (and past it), with leading zeros
        fields = [b"0" * zeros + str(n).encode() for n, zeros in numbers]
        text = b"f " + b" ".join(fields)
        ends = np.cumsum([len(f) + 1 for f in fields]) + 1
        got = text_module.parse_ints(text, ends - [len(f) for f in fields], ends)
        assert got.tolist() == [n for n, _ in numbers]

    def test_first_bad_field_is_named(self):
        text = b"f 1 2 x3 4 5.0"
        with pytest.raises(BadField) as exc:
            text_module.parse_ints(text, np.array([[2, 4], [6, 9]]), np.array([[3, 5], [8, 10]]))
        assert exc.value.args == (6, "field is not an integer", b"x3")


def reference_export_obj(mesh):
    """The writer export_obj replaced: one repr per coordinate."""
    coords = np.asarray(mesh.vertices, dtype=float).ravel().tolist()
    indices = (np.asarray(mesh.faces) + 1).ravel().tolist()
    v = ("v %r %r %r\n" * len(mesh.vertices)) % tuple(coords)
    f = ("f %d %d %d\n" * len(mesh.faces)) % tuple(indices)
    return (v + f).encode("ascii")


def str_distinct_reprs(values):
    """The ``distinct_reprs`` the bytes writer replaced: one str ``repr`` per
    distinct int64 bit pattern, so x and -x each ran ``repr``."""
    bits = np.ascontiguousarray(values, dtype=float).ravel().view(np.int64)
    keys, inverse = np.unique(bits, return_inverse=True)
    return np.array([repr(v) for v in keys.view(np.float64).tolist()], dtype=object), inverse


def str_format_records(header, *sections):
    """The ``format_records`` the bytes writer replaced: each block's records
    formatted as str through ``str_distinct_reprs``, then encoded."""
    out = io.BytesIO()
    out.write(header.encode("ascii"))
    for template, n_rows, cells in sections:
        for start in range(0, n_rows, _ROWS):
            block = np.asarray(cells(slice(start, start + _ROWS)))
            if block.dtype.kind in "iuO":
                texts = block.ravel().tolist()
            else:
                texts, inverse = str_distinct_reprs(block)
                texts = texts[inverse].tolist()
            out.write((template * len(block) % tuple(texts)).encode("ascii"))
    return out.getvalue()


def reference_load_obj(data):
    """The reader load_obj replaced: str.split and one float/int per token."""
    if isinstance(data, bytes):
        data = data.decode("ascii")
    tokens = {"v": [], "f": []}
    for parts in map(str.split, data.splitlines()):
        if parts and parts[0] in tokens:
            if len(parts) < 4:
                raise ValueError(f"OBJ record needs 3 entries: {' '.join(parts)!r}")
            tokens[parts[0]] += parts[1:4]
    vertices = np.array(tokens["v"], dtype=float)
    faces = np.array([p.split("/", 1)[0] for p in tokens["f"]], dtype=np.int64) - 1
    return (vertices.reshape(-1, 3) if vertices.size else vertices,
            faces.reshape(-1, 3) if faces.size else faces)


def _loadtxt_obj_parse(text, tag, dtype):
    """Entries 1-3 of ``tag`` records (tag as column 0), (count, 3); None if one fails."""
    if tag == "f" and b"/" in text:
        text = re.sub(rb"/\S*", b"", text)
    try:
        return np.loadtxt(io.BytesIO(text), dtype=dtype, usecols=(1, 2, 3), ndmin=2)
    except ValueError:
        return None


def _loadtxt_obj_rows(data, starts, ends, kinds, tag, dtype):
    """Entries 1-3 of the ``tag`` lines (``starts`` to ``ends``) of ``data``, (count, 3)
    or (0,): each run of them is a slice, joined for one ``loadtxt``."""
    lines = np.concatenate(([False], kinds == ord(tag), [False]))
    edges = np.flatnonzero(np.diff(lines))
    if edges.size == 0:
        return np.zeros(0, dtype=dtype)
    text = b"".join([data[a:b] for a, b in zip(starts[edges[::2]], ends[edges[1::2] - 1])])
    rows = _loadtxt_obj_parse(text, tag, dtype)
    if rows is None or rows.shape[0] != np.count_nonzero(lines):
        # loadtxt reads line by line: name the first record that fails alone
        for line in np.flatnonzero(lines[1:-1]):
            record = data[starts[line]:ends[line]]
            alone = _loadtxt_obj_parse(record, tag, dtype)
            if alone is None or alone.shape[0] != 1:
                raise BadField(starts[line], f"bad OBJ {tag} record", record.strip())
    return rows


def _loadtxt_obj_block(data, start, stop):
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
    faces = _loadtxt_obj_rows(data, starts, ends, kinds, "f", np.int64) - 1
    if faces.size and faces.min() < 0:
        line = np.flatnonzero(kinds == ord("f"))[np.argmax(faces.min(axis=1) < 0)]
        raise BadField(starts[line], "OBJ f record index below 1",
                       data[starts[line]:ends[line]].strip())
    return _loadtxt_obj_rows(data, starts, ends, kinds, "v", np.float64), faces


def loadtxt_load_obj(data):
    """The reader load_obj replaced next: numpy's text reader on each block's
    runs of v and f lines, one record at a time to name a bad one."""
    blocks = read_blocks(*text_bytes(data), _loadtxt_obj_block)
    vertices, faces = (np.concatenate([b[k] for b in blocks if b[k].size] or [np.zeros(0, dtype)])
                       for k, dtype in enumerate((np.float64, np.int64)))
    if faces.size and faces.max() >= len(vertices):
        raise ValueError(f"OBJ f record index {faces.max() + 1} is beyond the "
                         f"{len(vertices)} v records")
    return vertices, faces


def reference_profile_csv(curve, ts):
    """The profile CSV writer before the residual column came from one
    heights call: two scalar adaptive height integrals per row."""
    ts = np.asarray(ts, dtype=float)
    pos = ts > 0.0
    hs = np.empty(ts.shape)
    hs[pos] = heights(curve, ts[pos])
    sl = np.empty(ts.shape)
    sl[pos] = curve.slopes(ts[pos])
    report = singularity_report(curve) if np.any(~pos) else None
    out = io.StringIO()
    out.write("t,f,f_prime,first_integral_residual\r\n")
    for i, t in enumerate(ts):
        if t == 0.0:
            row = (0.0, report.cone_vertex_height, report.limit_slope, 0.0)
        else:
            step = min(1e-5 * max(1.0, float(t)), 0.5 * float(t))
            try:
                residual = first_integral_residual(t, curve, fd_step=step)
            except SpacelikeViolation:
                residual = math.nan
            row = (t, hs[i], sl[i], residual)
        out.write(",".join(repr(float(v)) for v in row) + "\r\n")
    return out.getvalue().encode("ascii")


def bits(a):
    """int64 view, so that nan == nan and -0.0 != 0.0 under array_equal."""
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


SPECIAL = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -1e-310, 1.7976931348623157e308,
           0.1, 1.0 / 3.0, -2.5, 1e22, 123456789.0]


class TestSerialisersAgainstReference:
    def test_special_values_through_obj(self):
        rng = np.random.default_rng(3)
        vertices = rng.choice(np.array(SPECIAL), size=(40, 3))
        faces = rng.integers(0, 40, size=(25, 3))
        mesh = SurfaceMesh(vertices=vertices, faces=faces, ring_radii=np.zeros(0), n_theta=3)
        data = export_obj(mesh)
        assert data == reference_export_obj(mesh)
        verts, faces_back = load_obj(data)
        ref_verts, ref_faces = reference_load_obj(data)
        assert np.array_equal(bits(verts), bits(vertices))
        assert np.array_equal(bits(verts), bits(ref_verts))
        assert np.array_equal(faces_back, faces) and np.array_equal(faces_back, ref_faces)

    @pytest.mark.parametrize("t_range,spacing", [((0.0, 4.0), "uniform"),
                                                 ((0.5, 4.0), "log")])
    def test_sampled_mesh_bytes_and_arrays_match_reference(self, t_range, spacing):
        mesh = sample_surface(curve_of(1.0, 3.0), t_range, 17, 23, spacing=spacing)
        data = export_obj(mesh)
        assert data == reference_export_obj(mesh)
        for got, want in zip(load_obj(data), reference_load_obj(data)):
            assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_integer_vertices_are_written_as_floats(self):
        mesh = SurfaceMesh(vertices=np.array([[0, 1, 2], [3, -4, 5]]),
                           faces=np.array([[0, 1, 1]]), ring_radii=np.zeros(0), n_theta=3)
        assert export_obj(mesh) == reference_export_obj(mesh) == \
            b"v 0.0 1.0 2.0\nv 3.0 -4.0 5.0\nf 1 2 2\n"

    @pytest.mark.parametrize("text", [
        "v 1 2 3\n",  # a single record
        "v 1 2 3\nv 4 5 6\nf 1 2 1",  # no final newline
        "v 1 2 3",  # one line, no newline
        "  v 1 2 3\n\tv 4 5 6\n f 1 2 1\n",  # indented records
        "v 1 2 3 0.5\nv 4 5 6 # weight dropped, comment ignored\nf 1 2 1 2\n",
        "vt 0 0\nvn 0 0 1\nv 1 2 3\nf 1 1 1\nv 7 8 9\nf 2/1 1/1/1 2//1\n",  # interleaved
        "o name\ng group\ns 1\nusemtl m\nv nan -inf inf\nv -0.0 0.0 -0.0\n",
        "# only comments\n#v 1 2 3\n",
        "v 1 2 3\r\nf 1 1 1\r",  # CR before the end of data
    ])
    def test_parses_like_reference(self, text):
        for data in (text, text.encode("ascii")):
            got = load_obj(data)
            want = reference_load_obj(data)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert np.array_equal(bits(g) if g.dtype == float else g,
                                      bits(w) if w.dtype == float else w)

    @pytest.mark.parametrize("deep", [0, 100_000], ids=["shallow", "deep"])
    @pytest.mark.parametrize("block", [1, 16, _BLOCK])
    def test_every_line_indented_parses_like_reference(self, monkeypatch, block, deep):
        # each indented line's start moves to the block's next byte that is
        # not a space or tab, in one search, also where every sixth line is
        # indented by ``deep`` bytes; the last line is blank and has no line end
        monkeypatch.setattr(text_module, "_BLOCK", block)
        lines = ["v 1 2 3", "# c", "vn 0 0 1", "f 1/1 2//2 1/2/3", "", "v -0.0 nan inf",
                 "vt 0 0", "f 2 1 2 2", "v 4e-3\t5 6", "f\t1 1 1\r", "v7 8 9"]
        indents = [" \t" * (deep // 2) or " ", "\t", " \t ", "\t \t\t", "  \t  \t", "\t\t"]
        text = "\n".join(indents[k % len(indents)] + line
                         for k, line in enumerate(lines * 3)) + "\n \t\t "
        for data in (text, text.encode("ascii")):
            for g, w in zip(load_obj(data), reference_load_obj(data)):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert np.array_equal(bits(g) if g.dtype == float else g,
                                      bits(w) if w.dtype == float else w)

    @pytest.mark.parametrize("text", ["v\n", "v 1 2 3\nv\n", "v 1 2 3\nf\n",
                                      "v # comment only\n", "v 1 2 #3\n", "f 1 2\n",
                                      "v 1 x 3\n", "f 1.5 2 3\n"])
    def test_malformed_records_rejected_like_reference(self, text):
        with pytest.raises(ValueError):
            reference_load_obj(text)
        with pytest.raises(ValueError):
            load_obj(text)


def special_mesh(n_rows, seed=5):
    """A mesh of ``n_rows`` vertices and ``n_rows`` faces with SPECIAL coordinates."""
    rng = np.random.default_rng(seed)
    return SurfaceMesh(vertices=rng.choice(np.array(SPECIAL), size=(n_rows, 3)),
                       faces=rng.integers(0, max(n_rows, 1), size=(n_rows, 3)),
                       ring_radii=np.zeros(0), n_theta=3)


@pytest.fixture(scope="module")
def multi_block_obj():
    """OBJ text of two and a half reader blocks: v/vn/f records interleaved
    with indented records, comments and slash faces, CRLF line ends and no
    final newline."""
    rng = np.random.default_rng(11)
    n = 5 * _BLOCK // 32
    kinds = rng.integers(0, 6, n).tolist()
    coords = rng.choice(np.array([repr(v) for v in SPECIAL]), size=(n, 3)).tolist()
    # face indices within the file's own v records (kinds 0 and 4)
    index = rng.integers(1, kinds.count(0) + kinds.count(4) + 1, size=(n, 3)).tolist()
    forms = ["v {0} {1} {2}", "vn 0 0 1", "f {3}/{4} {4}//{5} {5}/1/{3}", "f {3} {4} {5} 7",
             "\tv {0}\t{1} {2} 0.5", "# {0} {1}"]
    text = "\r\n".join(forms[k].format(*c, *i) for k, c, i in zip(kinds, coords, index))
    assert len(text) > 2 * _BLOCK
    return text


class TestBlockSeams:
    @pytest.mark.parametrize("n_rows", [0, 1, _ROWS - 1, _ROWS, _ROWS + 1, 3 * _ROWS + 5])
    def test_export_obj_matches_reference(self, n_rows):
        mesh = special_mesh(n_rows)
        assert export_obj(mesh) == reference_export_obj(mesh)

    def test_load_obj_matches_reference_over_reader_blocks(self, multi_block_obj):
        text = multi_block_obj
        for got, want in zip(load_obj(text.encode("ascii")), reference_load_obj(text)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(bits(got) if got.dtype == float else got,
                                  bits(want) if want.dtype == float else want)

    @pytest.mark.parametrize("layout", ["alternating", "seam"])
    def test_load_obj_matches_reference_over_runs(self, layout):
        # alternating: every line is a run of its own, over three reader
        # blocks; seam: one v run that a block end cuts, then one f run
        rng = np.random.default_rng(13)
        n = _BLOCK // 32
        v = ["v %r %r %r" % tuple(row) for row in rng.normal(size=(n, 3)).tolist()]
        f = ["f %d %d %d" % tuple(row) for row in rng.integers(1, n + 1, size=(n, 3)).tolist()]
        lines = [line for pair in zip(v, f) for line in pair] if layout == "alternating" else v + f
        text = "\n".join(lines) + "\n"
        assert len(text) > 2 * _BLOCK and len("\n".join(v)) > _BLOCK
        for got, want in zip(load_obj(text.encode("ascii")), reference_load_obj(text)):
            assert got.dtype == want.dtype and got.shape == want.shape == (n, 3)
            assert np.array_equal(bits(got) if got.dtype == float else got,
                                  bits(want) if want.dtype == float else want)

    def test_face_index_below_one_in_a_later_block_rejected(self, multi_block_obj):
        with pytest.raises(ValueError, match="f 1 0 2"):
            load_obj(multi_block_obj + "\r\nf 1 0 2\r\n")

    def test_face_index_beyond_vertices_in_a_later_block_rejected(self, multi_block_obj):
        n_v = len(reference_load_obj(multi_block_obj)[0])
        with pytest.raises(ValueError, match=f"index {n_v + 1} is beyond the {n_v} v"):
            load_obj(multi_block_obj + f"\r\nf 1 {n_v + 1} 2\r\n")

    def test_bad_record_in_the_last_block_names_its_line(self, multi_block_obj):
        line = multi_block_obj.count("\n") + 2
        with pytest.raises(ValueError, match=f"at line {line}: b'v 1 x 3'$"):
            load_obj(multi_block_obj + "\r\nv 1 x 3\r\nv 1 2 3")

    @pytest.mark.parametrize("tail", ["\r\nv 1 2", "\r\nf 1/1 2/2\r\n", "\r\nv 1 x 3"])
    def test_malformed_record_in_the_last_block_rejected(self, multi_block_obj, tail):
        # the reference reads each line alone, so the tail is what it rejects
        with pytest.raises(ValueError):
            reference_load_obj(tail)
        with pytest.raises(ValueError):
            load_obj(multi_block_obj + tail)


# Pieces of OBJ lines that numpy's text reader reads in different ways,
# each list's first ``OBJ_PLAIN`` (line ends: 3) those of a record it
# accepts: every byte it splits on (ASCII whitespace, then latin-1's other
# whitespace, then CR and LF), float and int64 spellings it accepts or
# rejects, '#' and '/' in and between entries, and line ends.
OBJ_SPACES = [b" ", b"\t", b"\x0b", b"\x0c", b"  ", b" \t", b"\x1c", b"\x1d", b"\x1e", b"\x1f",
              b"\x85", b"\xa0", b"\r", b"\r\n", b"\n"]
OBJ_FLOATS = [b"1", b"-2.5", b"3.25", b"nan", b"-NaN", b"Infinity", b"-inf", b"-0", b".5", b"5.",
              b"1e400", b"1e-400", b"4.9e-324", b"0.1000000000000000055511", b"1_0", b"0x1",
              b"\xb2", b"\xe9", b"\x00", b"3\x00", b"\x01", b"\x1b", b"1\x1b", b"1/2", b"2#", b"#3",
              b"x", b"1e"]
OBJ_INTS = [b"1", b"2", b"3", b"+1", b"01", b"000000002", b"1/2", b"2//3", b"3/", b"1/#",
            b"1\x85/2", b"2/\x1c3", b"9223372036854775807", b"12345678", b"-0", b"-1", b"0",
            b"1.5", b"1e0", b"5_0", b"0x1", b"9223372036854775808", b"/2", b"/#2", b"2#",
            b"\xef3", b"\x00", b"2\x00", b"\x01", b"3\x0e"]
OBJ_ENDS = [b"\n", b"\r\n", b"\n\n", b"\r", b"\r\r\n", b"\n \t\n"]
OBJ_PLAIN = 12
OBJ_TAGS = [b"v", b"f", b"vn", b"vt", b"#", b"", b"o", b"v\x0b", b"f\x85"]


@st.composite
def obj_lines(draw):
    """OBJ-like bytes: v and f records and other lines built from the pieces
    above, some indented, with or without a BOM and a final line end.  About
    one line in five has one odd piece: a space, entry or line end from a
    whole list, a count of entries from 0 to 5, or a comment."""
    lines = []
    for _ in range(draw(st.integers(1, 10))):
        tag = draw(st.sampled_from(OBJ_TAGS[:2] * 6 + OBJ_TAGS))
        ints = tag.startswith(b"f")
        odd = draw(st.sampled_from([None] * 4 + ["space", "entry", "count", "end", "comment"]))
        count = draw(st.integers(0, 5) if odd == "count" else st.sampled_from([3, 3, 3, 4]))
        at = draw(st.integers(0, max(count - 1, 0)))
        spaces = OBJ_SPACES[:6 if ints else OBJ_PLAIN]  # a '/' cuts runs past latin-1 spaces
        entries = OBJ_INTS if ints else OBJ_FLOATS
        line = draw(st.sampled_from([b"", b"", b" ", b"\t", b" \t "])) + tag
        for k in range(count):
            line += draw(st.sampled_from(OBJ_SPACES if (odd, k) == ("space", at) else spaces))
            line += draw(st.sampled_from(entries if (odd, k) == ("entry", at) else
                                         entries[:OBJ_PLAIN]))
        if odd == "comment":
            line += draw(st.sampled_from([b" # c", b"#", b" #\r x", b"\r#"]))
        lines.append(line + draw(st.sampled_from(OBJ_ENDS if odd == "end" else OBJ_ENDS[:3])))
    data = draw(st.sampled_from([b"", b"\xef\xbb\xbf"])) + b"".join(lines)
    return data.rstrip(b"\n") if draw(st.booleans()) else data


def outcome(load, data):
    try:
        return load(data)
    except ValueError as exc:
        return str(exc)


class TestLoadObjAgainstLoadtxt:
    @settings(max_examples=400, deadline=None)
    @given(obj_lines(), st.sampled_from([16, 64, _BLOCK]))
    # a control that is no whitespace inside an entry, a CR inside a record,
    # a '#' inside the run a '/' cuts off, latin-1 spaces before that '/'
    @example(b"v 1 2 3\x00\nv 4\x0e5 6 7\n", _BLOCK)
    @example(b"v 1 2 3\nf 1 1 1\x1b\n", _BLOCK)
    @example(b"v 1 2 3\r4\n", _BLOCK)
    @example(b"v 1 2 3\nf 1/#x 1 1 # c\n", 16)
    @example(b"v 1 2 3\nf 1\x1c1/2 1 1\n", 16)
    @example(b"v\xa01\x852 3\x1f\r\nf\t1 1 1", 64)
    def test_parses_like_loadtxt(self, data, block):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(text_module, "_BLOCK", block)
            assert_same_outcome(outcome(load_obj, data), outcome(loadtxt_load_obj, data))


def _from_bits(word):
    """The float of the 64-bit pattern ``word``, as a 1-element array."""
    return np.array([word], dtype=np.uint64).view(np.float64)


# Groups of values for the writers: +-0.0 and +-inf, a nan of either sign
# bit and any payload, a subnormal of either sign, a float with its
# negation, and the (cos, sin) spoke table of n spokes.
WRITER_GROUPS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf]).map(lambda v: np.array([v])),
    st.tuples(st.booleans(), st.integers(1, 2**52 - 1)).map(
        lambda sp: _from_bits(sp[0] << 63 | 0x7FF0_0000_0000_0000 | sp[1])),
    st.tuples(st.booleans(), st.integers(1, 2**52 - 1)).map(
        lambda sm: _from_bits(sm[0] << 63 | sm[1])),
    st.floats(allow_nan=False).map(lambda x: np.array([x, -x])),
    st.integers(3, 64).map(lambda n: np.concatenate(mesh_module._spoke_table(n))),
)


@st.composite
def writer_values(draw):
    """The values of a few ``WRITER_GROUPS`` draws, shuffled."""
    groups = draw(st.lists(WRITER_GROUPS, max_size=30))
    values = np.concatenate(groups or [np.zeros(0)])
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(values)


class TestWriterAgainstStrReference:
    @settings(max_examples=300, deadline=None)
    @given(writer_values(), st.sampled_from([1, 7, _ROWS]))
    def test_bytes_match_str_reference(self, values, rows_per_block):
        texts, inverse = distinct_reprs(values)
        want, want_inverse = str_distinct_reprs(values)
        # one text per distinct signed value, each value's text as before
        assert len(texts) == len(want)
        assert texts[inverse].tolist() == [t.encode() for t in want[want_inverse].tolist()]
        # float cells, int cells and table texts picked as patch_to_csv picks them
        rows = values[:values.size // 3 * 3].reshape(-1, 3)
        ints = np.arange(rows.size).reshape(-1, 3) - 7
        pairs, want_pairs = (k[:k.size // 2 * 2].reshape(-1, 2) for k in (inverse, want_inverse))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(text_module, "_ROWS", rows_per_block)
            got = format_records("h\r\n", ("v %s %s %s\n", len(rows), rows.__getitem__),
                                 ("f %d %d %d\n", len(ints), ints.__getitem__),
                                 ("%s,%s\r\n", len(pairs), lambda r: texts[pairs[r]]))
            ref = str_format_records("h\r\n", ("v %s %s %s\n", len(rows), rows.__getitem__),
                                     ("f %d %d %d\n", len(ints), ints.__getitem__),
                                     ("%s,%s\r\n", len(pairs), lambda r: want[want_pairs[r]]))
        assert got == ref


def test_figure4_writes_one_repr_per_magnitude(figure4_mesh, monkeypatch):
    # 195,843 coordinates, 32,897 distinct values, 16,577 distinct
    # magnitudes; keyed on signed bits, export_obj ran repr 32,957 times
    # over its 4096-row blocks
    calls = []
    monkeypatch.setattr(text_module, "repr", lambda v: calls.append(v) or builtins.repr(v),
                        raising=False)
    texts, _ = distinct_reprs(figure4_mesh.vertices)
    assert (len(calls), len(texts)) == (16_577, 32_897)
    calls.clear()
    assert export_obj(figure4_mesh) == reference_export_obj(figure4_mesh)
    assert len(calls) == 16_637


@pytest.fixture(scope="module")
def figure4_mesh():
    """The mesh of ``lorentz-cmc figure 4 --nt 256 --ntheta 256``."""
    return sample_surface(curve_of(1.0, 3.0), (0.0, 4.0), 256, 256)


@pytest.fixture(scope="module")
def off_centre_patch():
    """A 257^2 patch placed as the profile_eval benchmark places one: centred
    on the radial band where |f'| <= 0.95 of (H, c) = (1, 3), symmetric in
    x2, with a lens masked out on its inner edge."""
    kappa = 0.95 / math.sqrt(1.0 - 0.95**2)
    root = math.sqrt(kappa**2 + 12.0)
    t_lo, t_hi = (root - kappa) / 2.0, (root + kappa) / 2.0
    rho0 = (t_lo + t_hi) / 2.0
    side = min(rho0 - t_lo, t_hi - rho0)
    x1 = np.linspace(rho0 - side / 2, rho0 + side / 2, 257)
    x2 = np.linspace(-side / 2, side / 2, 257)
    return patch_from_profile(curve_of(1.0, 3.0), x1, x2,
                              min_radius=math.hypot(rho0 - side / 2, side / 4))


def traced_peak(fn, *args):
    """Bytes allocated at the high-water mark of ``fn(*args)``, by tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_figure4_mesh_shares_mirrored_coordinates(figure4_mesh):
    # each of the 255 rings holds 129 distinct x, y values (0 and +-64
    # magnitudes: c and s of the 33 first-octant angles), 0 shared with the
    # apex; the spoke table from linspace angles gave 88,988
    xy = np.ascontiguousarray(figure4_mesh.vertices[:, :2])
    assert np.unique(xy.view(np.int64)).size <= 255 * 129 + 1


def test_load_obj_does_without_numpy_text_reader(figure4_mesh, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.loadtxt was called")

    data = export_obj(figure4_mesh)
    monkeypatch.setattr(np, "loadtxt", refuse)
    vertices, faces = load_obj(data)
    assert vertices.shape == (65281, 3) and faces.shape == (130304, 3)
    assert np.array_equal(bits(vertices), bits(figure4_mesh.vertices))
    assert np.array_equal(faces, figure4_mesh.faces)


class TestMemoryBounds:
    # the 6.5 MB OBJ of this mesh once took 38 MB to write and 27 MB to
    # read, and its Euler count 12.5 MB; the OBJ bounds are the measured
    # peaks (8.05 MB and 9.39 MB) plus about 10%.  Read without numpy's text
    # reader, and with the vertex rows joined and freed before the face
    # rows, the OBJ peaks at 8.29 MB
    def test_export_obj(self, figure4_mesh):
        assert traced_peak(export_obj, figure4_mesh) <= 8.9e6

    def test_load_obj(self, figure4_mesh):
        data = export_obj(figure4_mesh)
        assert traced_peak(load_obj, data) <= 10.3e6

    def test_sample_surface(self):
        # the 4.7 MB of vertices and faces of figure 4 at 256^2, written in
        # place: measured peak 4.85 MB (11.49 MB when the rings, the quads
        # and the apex fan were built apart and then joined)
        curve = curve_of(1.0, 3.0)
        assert traced_peak(sample_surface, curve, (0.0, 4.0), 256, 256) <= 7.0e6

    def test_euler_characteristic(self, figure4_mesh):
        assert traced_peak(euler_characteristic, figure4_mesh) <= 6e6

    def test_patch_to_csv(self, off_centre_patch):
        # the 3.7 MB CSV with one repr per distinct height of the whole patch;
        # measured peak 8.43 MB (7.47 MB when each 4096-row block took its own
        # reprs) plus about 10%; 7.89 MB with bytes texts, and 9.89 MB when
        # every magnitude's negative text was made whether used or not
        assert traced_peak(patch_to_csv, off_centre_patch) <= 9.3e6

    def test_patch_to_csv_of_negative_heights(self, off_centre_patch):
        # each height's magnitude occurs only negative: its text takes the
        # minus sign in place (measured peak 7.61 MB), where appending a
        # negative twin to every magnitude's text peaked at 9.52 MB
        patch = dataclasses.replace(off_centre_patch, values=off_centre_patch.values - 10.0)
        assert traced_peak(patch_to_csv, patch) <= 9.3e6

    def test_patch_from_csv(self, off_centre_patch):
        # numpy's text reader on the whole body peaked at 8.67 MB; one block
        # of fields at a time, the measured peak is 5.71 MB, plus about 10%
        data = patch_to_csv(off_centre_patch)
        assert traced_peak(patch_from_csv, data) <= 6.3e6


FIGURE_CURVES = [((0.0, 3.0), (0.0, 7.0)), ((0.1, -0.25), (0.0, 4.0)),
                 ((1.0, 3.0), (1.0, 4.0)), ((1.0, 3.0), (0.0, 4.0))]


class TestProfileCsvResidualColumn:
    @pytest.mark.parametrize("params,t_range", FIGURE_CURVES)
    def test_matches_per_row_reference(self, params, t_range):
        curve = curve_of(*params)
        ts = np.linspace(*t_range, 257)
        rows = [r.split(",") for r in export_profile_csv(curve, ts).decode().splitlines()]
        ref = [r.split(",") for r in reference_profile_csv(curve, ts).decode().splitlines()]
        assert rows[0] == ref[0] and len(rows) == len(ref)
        # t, f and f_prime keep their bytes; the residual moves within the
        # acceptance bound and is nan in exactly the same rows
        assert [r[:3] for r in rows] == [r[:3] for r in ref]
        got = np.array([float(r[3]) for r in rows[1:]])
        want = np.array([float(r[3]) for r in ref[1:]])
        assert np.array_equal(np.isnan(got), np.isnan(want))
        assert np.nanmax(np.abs(got)) < 1e-5
        assert np.nanmax(np.abs(got - want)) < 1e-5

    @pytest.mark.parametrize("params", [(1.0, 3.0), (0.5, -2.0), (0.1, -0.25), (0.0, 3.0),
                                        (1.0, 0.0), (-1.0, -3.0)])
    def test_one_row_equals_the_scalar_residual(self, params):
        # the scalar takes the same two heights in one call, so a one-row
        # CSV holds its value bit for bit, and nan exactly where it raises
        curve = curve_of(*params)
        for t in np.geomspace(1e-9, 4.0, 60).tolist():
            row = export_profile_csv(curve, [t]).decode().splitlines()[1].split(",")
            # below t = 2e-5 the CSV holds its step to t/2, where the scalar's
            # default step would reach the axis
            step = 1e-5 * max(1.0, t)
            kw = {} if step < 0.5 * t else {"fd_step": 0.5 * t}
            try:
                want = first_integral_residual(t, curve, **kw)
            except SpacelikeViolation:
                assert math.isnan(float(row[3])), t
            else:
                assert bits(float(row[3])) == bits(want), t

    @pytest.mark.parametrize("params", [(1.0, 3.0), (0.5, -2.0)])
    def test_no_finite_garbage_deep_in_a_conical_point(self, params):
        # quadrature noise over 2 step once wrote finite values up to 9.3 here
        ts = np.geomspace(1e-9, 4.0, 300)
        rows = export_profile_csv(curve_of(*params), ts).decode().splitlines()[1:]
        residual = np.array([float(r.split(",")[3]) for r in rows])
        finite = residual[np.isfinite(residual)]
        assert finite.size > 50
        assert np.max(np.abs(finite)) < 1e-5

    @pytest.mark.parametrize("quad_tol", [1e-15, 1e-13])
    @pytest.mark.parametrize("params", [(1.0, 3.0), (0.5, -2.0), (0.0, 3.0)])
    def test_tight_quad_tol_keeps_roundoff_out(self, params, quad_tol):
        # with the heights' error taken as quad_tol alone, quad_tol = 1e-15 let
        # their roundoff through as finite values up to 0.026, 0.039 and 0.087.
        # What stays finite next to the nan rows is the differenced slope's
        # roundoff and truncation, amplified by t (1 - f'^2)^(-3/2); a light-cone
        # rule does not bound it: up to 7.7e-4 at 1e-13, where quad_tol rules
        curve = profile_curve(SurfaceParams(*params), (1.0, 0.0), quad_tol=quad_tol)
        rows = export_profile_csv(curve, np.geomspace(1e-9, 4.0, 300)).decode().splitlines()
        residual = np.array([float(r.split(",")[3]) for r in rows[1:]])
        finite = residual[np.isfinite(residual)]
        assert finite.size > 50
        assert np.max(np.abs(finite)) < 0.02

    def test_quad_tol_below_roundoff_changes_no_byte(self):
        # a closed-form profile: the heights do not depend on quad_tol, and
        # neither does the nan rule once quad_tol is below the heights' roundoff
        ts = np.geomspace(1e-9, 4.0, 300)
        first, *rest = (export_profile_csv(profile_curve(SurfaceParams(0.0, 3.0), (1.0, 0.0),
                                                         quad_tol=tol), ts)
                        for tol in (1e-15, 1e-18, 1e-300))
        assert all(out == first for out in rest)

    def test_one_heights_call_for_the_residual_and_no_scalar_height(self, monkeypatch):
        calls = {"heights": [], "height": 0, "residual": 0}

        def counting_heights(curve, ts):
            calls["heights"].append(np.size(ts))
            return heights(curve, ts)

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(mesh_module, "heights", counting_heights)
        monkeypatch.setattr(core_module, "height", counting("height", core_module.height))
        monkeypatch.setattr(profile_module, "first_integral_residual",
                            counting("residual", profile_module.first_integral_residual))
        ts = np.linspace(0.0, 4.0, 257)
        export_profile_csv(curve_of(1.0, 3.0), ts)
        # one call on the 256 positive samples for the f column (its own call,
        # so that its bytes do not move), one on the t +- step grid for the
        # residual column
        assert calls["heights"] == [256, 2 * 256]
        assert calls["height"] == 0 and calls["residual"] == 0
