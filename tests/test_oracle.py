import csv
import io
import math

import numpy as np
import pytest

from lorentz_cmc import (
    GraphPatch,
    NotMonotone,
    SpacelikeViolation,
    SurfaceParams,
    mean_curvature_graph,
    mean_curvature_rotational,
    patch_from_csv,
    patch_from_function,
    patch_from_profile,
    patch_to_csv,
    profile_curve,
    variational_residual,
)


def curve_of(H, c, r=1.0, a=0.0, **kw):
    return profile_curve(SurfaceParams(H, c), (r, a), **kw)


def cap_patch(h, H=1.0, extent=1.0):
    n = int(round(2 * extent / h)) + 1
    xs = np.linspace(-extent, extent, n)
    fn = lambda X1, X2: (np.sqrt(1.0 + H * H * (X1**2 + X2**2)) - math.sqrt(2.0)) / H
    return patch_from_function(fn, xs, xs)


class TestGraphOracle:
    def test_constant_patch_has_zero_curvature(self):
        xs = np.linspace(-1.0, 1.0, 41)
        patch = patch_from_function(lambda X1, X2: np.full(X1.shape, 0.7), xs, xs)
        report = mean_curvature_graph(patch)
        assert report.H_mean == 0.0
        assert report.H_max_dev == 0.0
        assert report.spacelike_min_margin == 1.0

    @pytest.mark.parametrize("mode", ["nondivergence", "divergence"])
    def test_hyperbolic_cap_curvature(self, mode):
        report = mean_curvature_graph(cap_patch(1.0 / 64.0), mode=mode)
        assert report.H_mean == pytest.approx(1.0, abs=5e-4)
        assert report.spacelike_min_margin > 0.0

    def test_modes_agree_at_second_order(self):
        coarse = [
            abs(mean_curvature_graph(cap_patch(h), mode="nondivergence").H_mean
                - mean_curvature_graph(cap_patch(h), mode="divergence").H_mean)
            for h in (1.0 / 16.0, 1.0 / 32.0)
        ]
        # halving h should shrink the gap roughly fourfold
        assert coarse[1] < coarse[0] / 2.5

    def test_rotated_solved_profile(self):
        # keep clear of the conical point, where the graph's higher
        # derivatives blow up and inflate the O(h^2) constant
        curve = curve_of(1.0, 3.0)
        xs = np.linspace(-2.4, 2.4, 241)
        patch = patch_from_profile(curve, xs, xs, min_radius=0.8)
        report = mean_curvature_graph(patch)
        assert report.H_mean == pytest.approx(1.0, abs=2e-3)
        assert report.H_max_dev < 2e-2
        assert report.points_checked > 10000

    def test_graph_and_rotational_oracles_agree(self):
        curve = curve_of(1.0, 3.0)
        xs = np.linspace(-2.4, 2.4, 241)
        patch = patch_from_profile(curve, xs, xs, min_radius=0.8)
        graph_H = mean_curvature_graph(patch).H_mean
        rotational_H = np.mean([
            mean_curvature_rotational(t, curve, fd_step=1e-4)
            for t in np.linspace(0.9, 2.3, 8)
        ])
        assert graph_H == pytest.approx(rotational_H, abs=2e-3)

    def test_steep_graph_raises(self):
        xs = np.linspace(-1.0, 1.0, 21)
        patch = patch_from_function(lambda X1, X2: 1.2 * X1, xs, xs)
        with pytest.raises(SpacelikeViolation):
            mean_curvature_graph(patch)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            mean_curvature_graph(cap_patch(0.25), mode="spectral")

    def test_nonuniform_grid_rejected(self):
        xs = np.array([0.0, 0.1, 0.3])
        patch = patch_from_function(lambda X1, X2: X1 * 0.0, xs, xs)
        with pytest.raises(ValueError):
            mean_curvature_graph(patch)


class TestPatchCsv:
    def test_round_trip(self):
        patch = cap_patch(0.25, extent=0.5)
        again = patch_from_csv(patch_to_csv(patch))
        assert np.array_equal(again.x1, patch.x1)
        assert np.array_equal(again.x2, patch.x2)
        assert np.array_equal(again.values, patch.values)
        assert np.array_equal(again.mask, patch.mask)

    def test_masked_points_stay_masked(self):
        curve = curve_of(1.0, 3.0)
        xs = np.linspace(-1.5, 1.5, 13)
        patch = patch_from_profile(curve, xs, xs, min_radius=0.5)
        again = patch_from_csv(patch_to_csv(patch))
        assert again.mask.sum() == patch.mask.sum()
        report = mean_curvature_graph(again)
        assert math.isfinite(report.H_mean)

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError):
            patch_from_csv(b"a,b,c\r\n1,2,3\r\n")


def reference_patch_to_csv(patch):
    """The writer patch_to_csv replaced: one repr per value, one f-string per row."""
    i, j = np.nonzero(patch.mask)
    x1 = list(map(repr, np.asarray(patch.x1, dtype=float).tolist()))
    x2 = list(map(repr, np.asarray(patch.x2, dtype=float).tolist()))
    u = np.asarray(patch.values, dtype=float)[i, j].tolist()
    rows = [f"{x1[a]},{x2[b]},{v!r}\r\n" for a, b, v in zip(i.tolist(), j.tolist(), u)]
    return ("x1,x2,u\r\n" + "".join(rows)).encode("utf-8")


def reference_patch_from_csv(data):
    """The reader patch_from_csv replaced: csv.reader and one float per cell."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    reader = csv.reader(io.StringIO(data))
    header = next(reader)
    if [h.strip() for h in header] != ["x1", "x2", "u"]:
        raise ValueError(f"expected header x1,x2,u, got {header}")
    cells = []
    for x, y, u in reader:
        if x:
            cells += (x, y, u)
    if not cells:
        raise ValueError("empty patch CSV")
    x, y, u = np.array(cells, dtype=float).reshape(-1, 3).T
    xs, i = np.unique(x, return_inverse=True)
    ys, j = np.unique(y, return_inverse=True)
    values = np.zeros((xs.size, ys.size))
    mask = np.zeros((xs.size, ys.size), dtype=bool)
    values[i, j] = u
    mask[i, j] = True
    return GraphPatch(x1=xs, x2=ys, values=values, mask=mask)


def bits(a):
    """int64 view, so that nan == nan and -0.0 != 0.0 under array_equal."""
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def assert_same_patch(got, want):
    assert np.array_equal(bits(got.x1), bits(want.x1))
    assert np.array_equal(bits(got.x2), bits(want.x2))
    assert np.array_equal(bits(got.values), bits(want.values))
    assert np.array_equal(got.mask, want.mask)


class TestPatchCsvAgainstReference:
    def test_special_values_round_trip_exactly(self):
        x1 = np.array([-1.0, -0.0, 0.5, 1e300])
        x2 = np.array([-2.5, -0.0, 3.0])
        values = np.array([[-0.0, np.nan, np.inf],
                           [-np.inf, 0.0, 1e-310],
                           [5e-324, -1.7976931348623157e308, 0.1],
                           [1.0 / 3.0, -0.0, np.nan]])
        mask = np.ones(values.shape, dtype=bool)
        mask[1, 2] = False
        patch = GraphPatch(x1=x1, x2=x2, values=values, mask=mask)
        data = patch_to_csv(patch)
        assert data == reference_patch_to_csv(patch)
        again = patch_from_csv(data)
        assert_same_patch(again, reference_patch_from_csv(data))
        assert np.array_equal(bits(again.x1), bits(x1))
        assert np.array_equal(bits(again.values[mask]), bits(values[mask]))

    def test_profile_patch_bytes_and_values_match_reference(self):
        curve = curve_of(1.0, 3.0)
        xs = np.linspace(0.5, 2.5, 41)
        patch = patch_from_profile(curve, xs, xs - 1.5, min_radius=1.0)
        data = patch_to_csv(patch)
        assert data == reference_patch_to_csv(patch)
        assert_same_patch(patch_from_csv(data), reference_patch_from_csv(data))

    @pytest.mark.parametrize("data", [
        b'x1,x2,u\r\n"1.5",-2.0,"3.25"\r\n0.5,"-2.0",4.0\r\n',  # quoted fields
        b'"x1","x2","u"\r\n1.0,2.0,3.0\r\n',  # quoted header
        b"x1,x2,u\r\n1.0,2.0,3.0\r\n",  # a single row
        b"x1,x2,u\r\n1.0,2.0,3.0\r\n1.0,3.0,-0.0",  # no final newline
        b"x1,x2,u\n1.0,2.0,3.0\n2.0,2.0,nan\n",  # LF line ends
        "x1,x2,u\r\n1.0,2.0,inf\r\n2.0,3.0,-inf\r\n",  # text input
    ])
    def test_parses_like_reference(self, data):
        assert_same_patch(patch_from_csv(data), reference_patch_from_csv(data))

    @pytest.mark.parametrize("data", [
        b"x1,x2,u\r\n",  # no rows
        b"x1,x2,u\r\n1.0,2.0\r\n",  # short row
        b"x1,x2,u\r\n1.0,2.0,3.0,4.0\r\n",  # long row
        b"x1,x2,u\r\n1.0,2.0,3.0\r\n1.0,2.0\r\n",  # ragged rows
        b"x1,x2,u\r\n1.0,abc,3.0\r\n",  # not a number
        b"x1,x2\r\n1.0,2.0\r\n",  # short header
    ])
    def test_malformed_rejected_like_reference(self, data):
        with pytest.raises(ValueError):
            reference_patch_from_csv(data)
        with pytest.raises(ValueError):
            patch_from_csv(data)


class TestRotationalOracle:
    def test_recovers_H_from_exact_slope(self):
        est = mean_curvature_rotational(1.5, curve_of(1.0, 3.0), fd_step=1e-4)
        assert est == pytest.approx(1.0, abs=1e-6)

    def test_plane_curvature_is_zero(self):
        assert mean_curvature_rotational(2.0, curve_of(0.0, 0.0)) == 0.0

    def test_maximal_curvature_is_zero(self):
        est = mean_curvature_rotational(2.0, curve_of(0.0, 3.0), fd_step=1e-4)
        assert est == pytest.approx(0.0, abs=1e-6)

    def test_mirrored_curve_reports_negative_H(self):
        est = mean_curvature_rotational(1.5, curve_of(-1.0, -3.0), fd_step=1e-4)
        assert est == pytest.approx(-1.0, abs=1e-6)

    def test_crossing_axis_raises(self):
        with pytest.raises(SpacelikeViolation):
            mean_curvature_rotational(1e-5, curve_of(1.0, 3.0), fd_step=1e-4)

    @pytest.mark.parametrize("fd_step", [0.0, math.nan, math.inf, -1e-4])
    def test_step_must_be_finite_and_positive(self, fd_step):
        # a zero step raised ZeroDivisionError and a nan one returned nan
        with pytest.raises(ValueError, match="fd_step"):
            mean_curvature_rotational(2.0, curve_of(1.0, 3.0), fd_step=fd_step)

    def test_second_order_in_step(self):
        coarse = abs(mean_curvature_rotational(2.0, curve_of(0.5, -2.0), fd_step=1e-2) - 0.5)
        fine = abs(mean_curvature_rotational(2.0, curve_of(0.5, -2.0), fd_step=1e-3) - 0.5)
        assert fine < coarse / 20.0


class TestVariational:
    def test_rising_window_recovers_2c(self):
        # H=1, c=-3: slope positive everywhere, so any window is monotone
        check = variational_residual(curve_of(1.0, -3.0), (1.0, 2.0), n=1001)
        assert check.kappa_mean == pytest.approx(-6.0, abs=1e-5)
        assert check.max_deviation < 1e-4
        assert check.multiplier == 2.0

    def test_falling_maximal_window_recovers_2c(self):
        check = variational_residual(curve_of(0.0, 3.0), (1.0, 2.0), n=1001)
        assert check.kappa_mean == pytest.approx(6.0, abs=1e-5)

    def test_window_straddling_slope_zero_raises(self):
        # slope of (H=1, c=3) vanishes at sqrt(3)
        with pytest.raises(NotMonotone):
            variational_residual(curve_of(1.0, 3.0), (1.0, 2.0), n=201)

    def test_plane_raises(self):
        with pytest.raises(NotMonotone):
            variational_residual(curve_of(0.0, 0.0), (1.0, 2.0), n=101)

    def test_rising_branch_beyond_the_minimum(self):
        check = variational_residual(curve_of(1.0, 3.0), (2.0, 3.0), n=1001)
        assert check.kappa_mean == pytest.approx(6.0, abs=1e-4)

    def test_deviation_shrinks_at_second_order(self):
        curve = curve_of(1.0, -3.0)
        dev_half = variational_residual(curve, (1.0, 2.0), n=500).max_deviation
        dev_full = variational_residual(curve, (1.0, 2.0), n=1000).max_deviation
        assert dev_half / dev_full > 2.5

    def test_mirrored_curve_recovers_its_oriented_constant(self):
        curve = curve_of(-1.0, 3.0)  # canonical (1, -3), parity -1
        check = variational_residual(curve, (1.0, 2.0), n=801)
        assert check.kappa_mean == pytest.approx(2.0 * curve.first_integral, abs=1e-4)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            variational_residual(curve_of(1.0, -3.0), (2.0, 1.0), n=101)
        with pytest.raises(ValueError):
            variational_residual(curve_of(1.0, -3.0), (1.0, 2.0), n=3)
