import csv
import io
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lorentz_cmc import (
    CurvatureReport,
    GraphPatch,
    LorentzCMCError,
    NotMonotone,
    SpacelikeViolation,
    SurfaceParams,
    flux_numeric,
    mean_curvature_graph,
    mean_curvature_rotational,
    patch_from_csv,
    patch_from_profile,
    patch_to_csv,
    profile_curve,
    slope,
    variational_residual,
)
import lorentz_cmc._text as text_module
from lorentz_cmc._text import _BLOCK, _ROWS, _WORDS
from lorentz_cmc.oracle import _erode


def curve_of(H, c, r=1.0, a=0.0, **kw):
    return profile_curve(SurfaceParams(H, c), (r, a), **kw)


def patch_from_function(fn, x1, x2, mask=None):
    """Sample u = fn(X1, X2) (vectorized) on the lattice x1 x x2, all in-mask by default."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    X1, X2 = np.meshgrid(x1, x2, indexing="ij")
    values = np.asarray(fn(X1, X2), dtype=float)
    if mask is None:
        mask = np.ones(values.shape, dtype=bool)
    return GraphPatch(x1=x1, x2=x2, values=values, mask=np.asarray(mask, dtype=bool))


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

    @pytest.mark.parametrize("min_radius", [0.0, -1.0, math.nan, math.inf])
    def test_min_radius_must_be_finite_and_positive(self, min_radius):
        # 0 failed only on lattices holding the origin, nan masked every point
        xs = np.linspace(-1.0, 1.0, 9)
        with pytest.raises(ValueError, match="min_radius"):
            patch_from_profile(curve_of(1.0, 3.0), xs, xs, min_radius=min_radius)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("axis", ["x1", "x2"])
    def test_axes_must_be_finite(self, axis, value):
        # a nan row was masked, and patch_to_csv dropped it: 8 points read back, not 9
        axes = {"x1": np.linspace(-1.0, 1.0, 3), "x2": np.linspace(-1.0, 1.0, 3)}
        axes[axis][1] = value
        with pytest.raises(ValueError, match=f"^{axis} must be finite$"):
            patch_from_profile(curve_of(1.0, 3.0), **axes)

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

    @pytest.mark.parametrize("mode", ["nondivergence", "divergence"])
    def test_timelike_point_next_to_the_checked_set_raises(self, mode):
        # the first row is outside the checked set in both modes, but the
        # flux stencil divides by sqrt(margin) on the second row, which
        # differences the first; divergence mode returned a nan report
        xs = np.linspace(-1.0, 1.0, 17)
        values = 0.2 * np.broadcast_to(xs[:, None], (17, 17)).copy()
        values[0] = -10.0
        patch = GraphPatch(x1=xs, x2=xs, values=values, mask=np.ones((17, 17), bool))
        with pytest.raises(SpacelikeViolation, match="margin"):
            mean_curvature_graph(patch, mode)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            mean_curvature_graph(cap_patch(0.25), mode="spectral")

    def test_malformed_patch_rejected(self):
        xs = np.linspace(-1.0, 1.0, 5)
        with pytest.raises(ValueError, match="values must have shape"):
            GraphPatch(x1=xs, x2=xs[:4], values=np.zeros((5, 5)), mask=np.ones((5, 4), bool))
        with pytest.raises(ValueError, match="mask must match values"):
            GraphPatch(x1=xs, x2=xs, values=np.zeros((5, 5)), mask=np.ones((5, 4), bool))
        line = GraphPatch(x1=xs[:1], x2=xs, values=np.zeros((1, 5)), mask=np.ones((1, 5), bool))
        with pytest.raises(ValueError, match="at least 2 points per axis"):
            mean_curvature_graph(line)

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
    for row in reader:
        if row:
            x, y, u = row
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


def loadtxt_patch_from_csv(data):
    """The reader patch_from_csv replaced next: numpy's text reader on the body."""
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


def several_blocks_csv():
    """A patch CSV over two and a half reader blocks: n^2 rows of about 56
    bytes each, u spelled every accepted way, padded and quoted fields, blank
    LF and CRLF lines, and no final newline."""
    rng = np.random.default_rng(29)
    n = round(math.sqrt(2.5 * _BLOCK / 56))
    axis = [repr(v) for v in np.linspace(-3.0, 3.0, n).tolist()]
    spellings = ["Infinity", "-inf", "nan", "1e400", "-0", ".5", "1e-320", " 2.5\t", "\t-7 ",
                 '"3.25"', "0.1000000000000000055511151231257827"] + axis[:40]
    u = rng.choice(spellings, size=n * n).tolist()
    ends = rng.choice(["\r\n", "\n", "\n\n", "\r\n\r\n"], p=[0.6, 0.3, 0.05, 0.05],
                      size=n * n).tolist()
    rows = (f"{a},{b},{c}{e}" for (a, b), c, e in zip(
        ((a, b) for a in axis for b in axis), u, ends))
    return ("x1,x2,u\r\n" + "".join(rows)).rstrip().encode()


SEVERAL_BLOCKS_CSV = several_blocks_csv()


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

    def test_lattice_symmetric_about_the_axis_matches_reference(self):
        # each height recurs up to 8 times, in rows of different writer blocks
        xs = np.linspace(-2.0, 2.0, 257)
        patch = patch_from_profile(curve_of(1.0, 3.0), xs, xs)
        assert patch_to_csv(patch) == reference_patch_to_csv(patch)

    @pytest.mark.parametrize("n_rows", [0, 1, _ROWS - 1, _ROWS, _ROWS + 1, 3 * _ROWS + 5])
    def test_rows_across_writer_blocks_match_reference(self, n_rows):
        special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -1e-310,
                            1.7976931348623157e308, 0.1, 1.0 / 3.0, -2.5, 1e22])
        rng = np.random.default_rng(n_rows)
        x1, x2 = rng.choice(special, 111), rng.choice(special, 111)
        mask = np.zeros(111 * 111, dtype=bool)
        mask[rng.choice(mask.size, n_rows, replace=False)] = True
        patch = GraphPatch(x1=x1, x2=x2, values=rng.choice(special, (111, 111)),
                           mask=mask.reshape(111, 111))
        assert patch_to_csv(patch) == reference_patch_to_csv(patch)

    @pytest.mark.parametrize("data", [
        b'x1,x2,u\r\n"1.5",-2.0,"3.25"\r\n0.5,"-2.0",4.0\r\n',  # quoted fields
        b'"x1","x2","u"\r\n1.0,2.0,3.0\r\n',  # quoted header
        b"x1,x2,u\r\n1.0,2.0,3.0\r\n",  # a single row
        b"x1,x2,u\r\n1.0,2.0,3.0\r\n1.0,3.0,-0.0",  # no final newline
        b"x1,x2,u\n1.0,2.0,3.0\n2.0,2.0,nan\n",  # LF line ends
        "x1,x2,u\r\n1.0,2.0,inf\r\n2.0,3.0,-inf\r\n",  # text input
        b"x1,x2,u\r\n\r\n1.0,2.0,3.0\r\n\r\n\r\n2.0,2.0,4.0\r\n\r\n",  # blank CRLF lines
        b"x1,x2,u\n\n1.0,2.0,3.0\n\n2.0,2.0,4.0\n\n",  # blank LF lines
        b"x1,x2,u\r\n 1.0,\t2.0 , 3.0\t\r\n\t2.0 \t,2.0,\t 4.0\r\n",  # whitespace and tabs
        b"x1,x2,u\r\n-0,.5,Infinity\r\n1,.5,1e400\r\n1,-0,-INFINITY\r\n",  # spellings
        b"x1,x2,u\r\n1.0,2.0,0.1000000000000000055511151231257827\r\n",  # 36 bytes
        b"x1,x2,u\r\n1.0,2.0," + b" " * (8 * _WORDS) + b"3.0\r\n",  # over _WORDS words
        b'x1,x2,u\r\n"1.0" ,2.0,"3.0"\t\r\n',  # padding after the closing quote
        pytest.param(SEVERAL_BLOCKS_CSV, id="several_reader_blocks"),
    ])
    def test_parses_like_reference(self, data):
        assert_same_patch(patch_from_csv(data), reference_patch_from_csv(data))
        assert_same_patch(patch_from_csv(data), loadtxt_patch_from_csv(data))

    def test_several_blocks_csv_spans_several_blocks(self):
        assert 2 * _BLOCK < len(SEVERAL_BLOCKS_CSV) < 3 * _BLOCK

    @pytest.mark.parametrize("data", [
        b"x1,x2,u\r\n1_0,2.0,3.0\r\n",  # numpy's cast and float() read 10.0
        b"x1,x2,u\r\n1.0,2.0,1e1_0\r\n",
        b"x1,x2,u\r\n1.0,2.0,3.0\r\n \t\r\n",  # a whitespace-only line
        b"x1,x2,u\r\n1.0,,3.0\r\n",  # an empty field
        b"x1,x2,u\r\n1.0,2.0,\r\n",
        b"x1,x2,u\r\n1.0,2.0,3.0,\r\n",  # a trailing comma
        b"x1,x2,u\r\n1.0,2.0,3.0 # c\r\n",
        b"x1,x2,u\r\n1.0,2.0,0x10\r\n",
        b'x1,x2,u\r\n1.0, "2.0" ,3.0\r\n',  # a quoted field padded outside its quotes
        b'x1,x2,u\r\n1.0,"2,0",3.0\r\n',  # a comma inside quotes
        b'x1,x2,u\r\n1.0,2.0,3.0\r\n""\r\n',  # an empty quoted field alone on a line
        b"x1,x2,u\r\n1.0,2.0,3\x00\r\n",  # a NUL byte
        b"x1,x2,u\r\n1.0,2.0,3.0\r\r\n",  # a CR that ends no line
        b"x1,x2,u\r\n1.0,2.0,\xb2\r\n",
    ])
    def test_rejected_like_loadtxt(self, data):
        with pytest.raises(ValueError):
            loadtxt_patch_from_csv(data)
        with pytest.raises(ValueError):
            patch_from_csv(data)

    def test_blank_lines_alone_are_an_empty_patch(self):
        # no field at all reaches the float parser, which returns no values
        with pytest.raises(ValueError, match="empty patch CSV"):
            patch_from_csv(b"x1,x2,u\n\n\r\n")

    def test_cr_only_line_ends_raise_value_error(self):
        # the header's csv.reader raised _csv.Error, which is no ValueError
        with pytest.raises(ValueError, match="LF or CRLF"):
            patch_from_csv(b"x1,x2,u\r1.0,2.0,3.0\r")

    @pytest.mark.parametrize("data,line,text", [
        (b"x1,x2,u\r\n1.0,2.0,3.0\r\n\r\n1.0,abc,3.0\r\n", 4, b"abc"),
        (b"x1,x2,u\n1.0,2.0,3.0\n2.0,2.0,1_0", 3, b"1_0"),
        (b"x1,x2,u\n1.0,2.0,3.0\n2.0,\t2.0\xa0,x\n", 3, b"x"),
        (b"x1,x2,u\r\n1.0,2.0,3\x00\r\n", 2, b"3\x00"),
        (b"x1,x2,u\r\n1.0,2.0\r\n", 2, b"1.0,2.0"),
        (b"x1,x2,u\r\n1.0,2.0,3.0\r\n\n1.0,2.0,3.0,4.0", 4, b"1.0,2.0,3.0,4.0"),
        # a line end inside quotes still ends a line
        (b'x1,x2,u\n"1\n",2,3\n4,5,x\n', 4, b"x"),
        (b'x1,x2,u\r\n"1\r\n",2,3\r\n4,5,x\r\n', 4, b"x"),
        (b'x1,x2,u\n"1\n\n",2,3\n4,5\n', 5, b"4,5"),
    ])
    def test_bad_field_or_row_names_its_line(self, data, line, text):
        with pytest.raises(ValueError, match=f"at line {line}: {re.escape(repr(text))}$"):
            patch_from_csv(data)

    @pytest.mark.parametrize("block", [1, 40, _BLOCK])
    def test_bad_field_in_a_later_block_names_its_line(self, monkeypatch, block):
        monkeypatch.setattr(text_module, "_BLOCK", block)
        rows = [f"{k}.0,2.0,3.0" for k in range(40)]
        rows[29] = "29.0,2.0,3.O"
        data = "x1,x2,u\r\n" + "\r\n".join(rows)
        with pytest.raises(ValueError, match="at line 31: b'3.O'$"):
            patch_from_csv(data)
        rows[29] = "29.0,2.0,3.0"
        data = "x1,x2,u\r\n" + "\r\n\n".join(rows)
        assert_same_patch(patch_from_csv(data), loadtxt_patch_from_csv(data))

    @pytest.mark.parametrize("data,first,again", [
        (b"x1,x2,u\r\n1.0,2.0,3.0\r\n1.0,2.0,4.0\r\n", "(1.0, 2.0)", "(1.0, 2.0)"),
        (b"x1,x2,u\r\n0.0,2.0,3.0\r\n5.0,5.0,5.0\r\n-0.0,2.0,4.0\r\n", "(0.0, 2.0)",
         "(-0.0, 2.0)"),
    ])
    def test_lattice_point_named_twice_rejected(self, data, first, again):
        # numpy's text reader kept the last row's u and dropped the first
        assert loadtxt_patch_from_csv(data).mask.sum() == data.count(b"\n") - 2
        match = f"(x1, x2) = {first} and {again}"
        with pytest.raises(ValueError, match=re.escape(match)):
            patch_from_csv(data)

    def test_colliding_keys_give_the_same_bits(self, monkeypatch):
        # every key collides: each block's words mismatch, so it parses every field
        want = patch_from_csv(SEVERAL_BLOCKS_CSV)
        calls = []
        one_by_one = text_module._one_by_one
        monkeypatch.setattr(text_module, "_key", lambda words: np.zeros(words.shape[1], np.uint64))
        monkeypatch.setattr(text_module, "_one_by_one",
                            lambda *args: calls.append(1) or one_by_one(*args))
        assert_same_patch(patch_from_csv(SEVERAL_BLOCKS_CSV), want)
        assert len(calls) == 3

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(*[st.text(alphabet='0123456789.eE+-_ \t"infatyINFATY,x\xa0\x1c',
                                        max_size=7)] * 2), min_size=1, max_size=4),
           st.sampled_from(["\n", "\r\n"]))
    def test_random_fields_parse_like_loadtxt(self, rows, end):
        # x1 is each row's own, so no lattice point repeats
        data = ("x1,x2,u" + end + end.join(f"{k},{y},{u}" for k, (y, u) in enumerate(rows))
                ).encode("latin-1")
        try:
            want = loadtxt_patch_from_csv(data)
        except ValueError:
            with pytest.raises(ValueError):
                patch_from_csv(data)
        else:
            assert_same_patch(patch_from_csv(data), want)

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


BOM = b"\xef\xbb\xbf"


def patch_or_message(data):
    try:
        return patch_from_csv(data)
    except ValueError as exc:
        return str(exc)


def assert_same_outcome(got, want):
    assert type(got) is type(want), (got, want)
    if isinstance(want, str):
        assert got == want
    else:
        assert_same_patch(got, want)


class TestPatchCsvTextInput:
    @pytest.mark.parametrize("data", [
        b"x1,x2,u\r\n1.0,2.0,3.0\r\n",
        b'"x1","x2","u"\n1,2,3\n2,2,-0.0',
        b"x1,x2,u\n\n1,2,3\n\n",
        b"x1,x2,u\r\n1.0,2.0,3.0\r\n\r\n1.0,abc,3.0\r\n",  # line 4 named
        b"x1,x2,u\n1.0,2.0\n",  # line 2 named
        b"x1,x2,u\n",
        b"x1,x2\n1,2\n",
    ])
    def test_leading_bom_is_skipped(self, data):
        # the header read as ['\ufeffx1', 'x2', 'u'] and raised
        want = patch_or_message(data)
        for with_bom in (BOM + data, "\ufeff" + data.decode("ascii")):
            assert_same_outcome(patch_or_message(with_bom), want)

    def test_bom_example_reads_its_row(self):
        assert_same_patch(patch_from_csv(BOM + b"x1,x2,u\n1,2,3\n"),
                          GraphPatch(np.array([1.0]), np.array([2.0]), np.array([[3.0]]),
                                     np.array([[True]])))

    @pytest.mark.parametrize("data,match", [
        (BOM + BOM + b"x1,x2,u\n1,2,3\n", "expected header"),
        (BOM + b"x1,x2,u\n" + BOM + b"1,2,3\n", "at line 2: "),
    ])
    def test_only_one_leading_bom_is_skipped(self, data, match):
        with pytest.raises(ValueError, match=match):
            patch_from_csv(data)

    @pytest.mark.parametrize("text", ["x1,x2,u\n1,2,3\n", "x1,x2,u\r\n1,2,\u221e\r\n",
                                      "x1,x2,u\n1,2,\xe9\n", "x1,x2,\xfc\n1,2,3\n"])
    def test_str_reads_as_its_utf8_bytes(self, text):
        assert_same_outcome(patch_or_message(text), patch_or_message(text.encode("utf-8")))


def reference_mean_curvature_graph(patch, mode="nondivergence"):
    """The graph oracle as two full branches, one per mode, each with its
    own differencing, erosion, margin check and report."""
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


def random_patch(seed, n=65):
    """A smooth spacelike graph on an n x n lattice with random holes.

    The mask cuts a disk (an axis puncture) and a few rectangles; the
    masked values are nan or arbitrary, as neither may reach a checked
    stencil.
    """
    rng = np.random.default_rng(seed)
    xs = np.linspace(-1.0, 1.0, n) * rng.uniform(0.5, 2.0)
    ys = np.linspace(-1.0, 1.0, n) * rng.uniform(0.5, 2.0) + rng.uniform(-1.0, 1.0)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    k = rng.uniform(0.5, 4.0, size=2)
    amp = rng.uniform(0.0, 0.15)
    a, b = rng.uniform(-0.3, 0.3, size=2)
    values = amp * np.sin(k[0] * X + k[1] * Y) + a * X + b * Y \
        + rng.uniform(-0.1, 0.1) * (X**2 + Y**2)
    mask = np.hypot(X - rng.uniform(-1, 1), Y - ys.mean()) >= rng.uniform(0.0, 0.6)
    for _ in range(rng.integers(0, 4)):
        i, j = rng.integers(0, n, size=2)
        mask[i:i + rng.integers(1, 12), j:j + rng.integers(1, 12)] = False
    fill = rng.choice([np.nan, 0.0, 1e3])
    values[~mask] = fill
    return GraphPatch(x1=xs, x2=ys, values=values, mask=mask)


def assert_same_report(got, want):
    assert got.points_checked == want.points_checked
    for name in ("H_mean", "H_max_dev", "spacelike_min_margin"):
        assert bits(getattr(got, name)) == bits(getattr(want, name)), name


def outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, SpacelikeViolation) as exc:
        return type(exc)


def assert_like_reference(patch, mode):
    """Same report bit for bit, or the same exception type.

    One case differs by design: where the flux stencil of divergence mode
    reads a timelike margin next to the checked points, the reference
    returns a nan report and the oracle raises SpacelikeViolation.
    """
    got = outcome(mean_curvature_graph, patch, mode)
    want = outcome(reference_mean_curvature_graph, patch, mode)
    if isinstance(want, type):
        assert got is want
    elif got is SpacelikeViolation and mode == "divergence" and math.isnan(want.H_mean):
        assert want.spacelike_min_margin > 0.0
    else:
        assert_same_report(got, want)


MODES = ["nondivergence", "divergence"]


class TestGraphOracleAgainstReference:
    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), mode=st.sampled_from(MODES))
    def test_random_masked_patches_bitwise(self, seed, mode):
        assert_like_reference(random_patch(seed), mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_profile_patch_around_the_axis_bitwise(self, mode):
        xs = np.linspace(-2.0, 2.0, 65)
        patch = patch_from_profile(curve_of(1.0, 3.0), xs, xs, min_radius=0.6)
        assert_same_report(mean_curvature_graph(patch, mode),
                           reference_mean_curvature_graph(patch, mode))

    @pytest.mark.parametrize("mode", MODES)
    def test_steep_patch_raises_like_reference(self, mode):
        xs = np.linspace(-1.0, 1.0, 17)
        patch = patch_from_function(lambda X1, X2: 0.6 * X1 + 0.9 * X2, xs, xs)
        for fn in (mean_curvature_graph, reference_mean_curvature_graph):
            with pytest.raises(SpacelikeViolation, match="margin"):
                fn(patch, mode)

    @pytest.mark.parametrize("mode", MODES)
    def test_steep_only_where_masked_is_checked_like_reference(self, mode):
        xs = np.linspace(-1.0, 1.0, 33)
        steep = np.where(np.arange(33)[:, None] < 8, 3.0, 0.2)
        mask = np.broadcast_to(np.arange(33)[:, None] >= 8, (33, 33))
        patch = patch_from_function(lambda X1, X2: steep * X1, xs, xs, mask=mask)
        assert_same_report(mean_curvature_graph(patch, mode),
                           reference_mean_curvature_graph(patch, mode))

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n,keep", [(17, False), (2, True)])
    def test_nothing_left_raises_like_reference(self, mode, n, keep):
        xs = np.linspace(-1.0, 1.0, n)
        mask = np.full((n, n), keep)
        patch = patch_from_function(lambda X1, X2: 0.1 * X1, xs, xs, mask=mask)
        for fn in (mean_curvature_graph, reference_mean_curvature_graph):
            with pytest.raises(ValueError, match="no interior points"):
                fn(patch, mode)

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_small_patches_like_reference(self, mode, n):
        # a 4 x 4 patch has interior points for one stencil width only
        assert_like_reference(cap_patch(2.0 / (n - 1)), mode)

    def test_unknown_mode_raises_like_reference(self):
        patch = cap_patch(0.25)
        for fn in (mean_curvature_graph, reference_mean_curvature_graph):
            with pytest.raises(ValueError, match="unknown mode"):
                fn(patch, "laplacian")


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

    @pytest.mark.parametrize("H,c", [(1.0, 3.0), (-1.0, -3.0)], ids=["canonical", "mirrored"])
    @pytest.mark.parametrize("window,n", [((1.0, 2.0), 201), ((1.0, 2.0), 5),
                                          ((1.0, math.nextafter(math.sqrt(3.0), 2.0)), 5)])
    def test_window_straddling_slope_zero_raises(self, H, c, window, n):
        # the slope of (1, 3) vanishes at sqrt(3), that of its mirror too;
        # the sampled slopes alone see it, even one ulp inside the window
        with pytest.raises(NotMonotone):
            variational_residual(curve_of(H, c), window, n=n)

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

    def test_light_cone_window_raises(self):
        # the cap's slope rounds to 1 near t = 1e8, so the differenced
        # inverse slope is 1 and the Beltrami quantity divides by 0
        with pytest.raises(SpacelikeViolation, match=r"\|g'\| <= 1"):
            variational_residual(curve_of(1.0, 0.0), (1e8, 2e8), n=101)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            variational_residual(curve_of(1.0, -3.0), (2.0, 1.0), n=101)
        with pytest.raises(ValueError):
            variational_residual(curve_of(1.0, -3.0), (1.0, 2.0), n=3)


EPS = sys.float_info.epsilon
signed_decades = st.builds(lambda sign, e: sign * 10.0 ** e,
                           st.sampled_from([-1.0, 1.0]), st.floats(-8.0, 8.0))


class TestLightCone:
    """In float64 the slope rounds to +-1 far from any real light cone: on
    (1, 0) at t = 1e8, and on (1e-8, 1e8) at t = 1.  The oracles once formed
    1 - s^2 there and raised ZeroDivisionError."""

    @staticmethod
    def _computed(call):
        try:
            return call()
        except (LorentzCMCError, ValueError):
            return None

    @settings(max_examples=500, deadline=None)
    @given(H=signed_decades, c=signed_decades, log_t=st.floats(-8.0, 8.0))
    def test_finite_or_raises_and_unchanged_off_the_cone(self, H, c, log_t):
        t = 10.0 ** log_t
        params = SurfaceParams(H, c)
        curve = profile_curve(params, (t, 0.0))
        s = slope(t, params)
        assert -1.0 <= s <= 1.0
        flux = self._computed(lambda: flux_numeric(t, curve))
        H_rot = self._computed(lambda: mean_curvature_rotational(t, curve))
        assert math.isfinite(flux.flux) and math.isfinite(flux.conormal_term)
        assert H_rot is None or math.isfinite(H_rot)
        if abs(s) >= 1.0 - 1e-8:
            return
        # the earlier formulas, whose roundoff grows as 1 / (1 - s^2)
        one_m = (1.0 - s) * (1.0 + s)
        conormal = -s / math.sqrt(one_m) * (2.0 * math.pi * t)
        assert abs(flux.conormal_term - conormal) <= 8.0 * EPS * abs(conormal) / one_m
        if H_rot is not None:
            step = 1e-5 * max(1.0, t)
            f2 = (curve.slope(t + step) - curve.slope(t - step)) / (2.0 * step)
            one_m = 1.0 - s * s
            old = (t * f2 + one_m * s) / (2.0 * t * one_m**1.5)
            scale = abs(old) + (abs(t * f2) + one_m * abs(s)) / (2.0 * t * one_m**1.5)
            assert abs(H_rot - old) <= 8.0 * EPS * scale / one_m

    @pytest.mark.parametrize("H,c,t", [(1.0, 0.0, 1e8), (1e-8, 1e8, 1.0), (1.0, 3.0, 1e155),
                                       (-1.0, -3.0, 1e200), (1.0, 3.0, 1e300)])
    def test_mean_curvature_where_the_slope_rounds_to_one(self, H, c, t):
        # both differenced slopes round to the same +-1, so f'' reads 0: the
        # value was 0.5 and -5.0e7 against H = 1 and 1e-8; where H t^2
        # overflows the slope was nan and the curvature divided by 0
        curve = curve_of(H, c)
        assert abs(curve.slope(t)) == 1.0
        with pytest.raises(SpacelikeViolation, match="cannot be differenced"):
            mean_curvature_rotational(t, curve)
