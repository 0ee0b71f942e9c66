"""Golden sha256 hashes of the OBJ and CSV bytes the library writes, and
of the solver's results.

README promises byte-deterministic output; these hashes pin the actual
bytes, so a rewrite of a serialiser or sampler that changes one byte fails
here.  The solver hash pins every bit of ``solve_c``'s results on the
light-cone grid and the wide ring pairs of ``test_bvp``, so a rewrite of
the shooting loop that moves one root, residual or work count fails here.
They were recorded with numpy 2.4 on x86-64 Linux: a platform whose
libm or numpy SIMD kernels round sin/cos differently can shift the last
digit of a coordinate.  Change a hash only for a deliberate change of
format or of results, and record it in CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from lorentz_cmc import (PlateauProblem, RingPair, SurfaceParams, patch_from_profile,
                         patch_to_csv, profile_curve, solve_c, solve_two_ring, threshold_H0,
                         validate_rings)
from lorentz_cmc.cli import EXIT_OK, main
from test_bvp import _light_cone_grid, _wide_ring_pairs

# figure id -> sha256 of figure<id>_profile.csv (257 samples, both sizes).
# Figures 2-4 were re-pinned when the residual column moved from two scalar
# height integrals per row to one heights call on the t +- step grid; their
# t, f, f_prime columns kept their bytes (figure 1 has a closed form and
# kept all of them).  Figures 2 and 4, with every OBJ and CSV of theirs that
# starts at the axis, were re-pinned when the apex and the t = 0 row came to
# be singularity_report's cone_vertex_height: only that v line and that row
# moved, by 1 ulp (figure 2) and 2 ulp (figure 4).
FIGURE_CSV = {
    1: "b657ed7c77b10d24e1a874390d7d3a346d6a35e8f59dac2a424fd58583a1b30b",
    2: "04a95c156a6abcf0942b220aae3ba82a2f8d02b9c01010fb2ee3db3e851601d8",
    3: "32a1dae763ff1f7cca40ad0114869e55fb374eaf19744261545b21df02767d90",
    4: "1787a95aec5db8f6cef2ae1d638d8686b75041d7b26fc44dc18c5ff780df535b",
}

# (figure id, size flags) -> sha256 of figure<id>_surface.obj
FIGURE_OBJ = {
    (1, ()): "6bc89d8668dad8a041a6e8a7d558348f4dc997de96f71489ea9e10333cd1d10d",
    (2, ()): "9113b3988dd804e138d7db6056066bd405a4269490ac9f800210049ab669956b",
    (3, ()): "df1801a7712bb22689ebf42459fb86a78f3755845147c4bdb4deb8d5c0205b72",
    (4, ()): "f15b5fd881bfcb857721a5a992256029dd53a950648e3cce3b008229236733aa",
    (1, ("--nt", "5", "--ntheta", "7")):
        "385363ab406e127ea3e094cf2ae8d5aa610fc9e4843e4906a5d1e130b5a7f374",
    (2, ("--nt", "5", "--ntheta", "7")):
        "4087b9b216307d2891eb5228c915c87ac34776e75222e3dce217ed4314a3bb11",
    (3, ("--nt", "5", "--ntheta", "7")):
        "97351ec94f64bfdde358d6cbc7e9ae4f50700affec4835918b7fafc5e9cea7b3",
    (4, ("--nt", "5", "--ntheta", "7")):
        "d7081ca248e4b5ccc0124164247d0923c9ba1ae95b60b23b6583b44115dbe8b6",
    # 65281 v and 130560 f records: many writer and reader blocks
    (4, ("--nt", "256", "--ntheta", "256")):
        "7fbbfdb5d877614350af26d1ea3ce83c7f0a66ab20495c0d245606040ffa257d",
}

# figure4_profile.csv at --samples 12293 (three writer blocks and five rows)
MULTI_BLOCK_CSV = "2c10b3c2777102a10fef411f4dd0b9488979e528edb9ff09865205d786ee4af3"

LOG_MESH_OBJ = "f2de2770da985c16d81d02312ff027c4893169a9c7e645cefaeaac36057f36d0"
HOLED_PATCH_CSV = "5699f500a884436a4f320b90afa7cdee38d67e75fac4bfb9307f381d2f0715ce"

# (c, residual, H0, regime, the four SolveDiagnostics fields, curve.quad_tol)
# of the 360 light-cone grid solves, then the 400 wide ring pair solves;
# re-pinned when rise's conjugate-pair regime moved to float arithmetic
# (309 records moved, c by at most 3.7e-10 relative; CHANGES.md), and when
# the search's bisections moved to asinh(c / r) where g is flat (265 records
# moved, c by at most 3.0e-10 max(u, |c|), no regime; CHANGES.md), and when
# g(0) came first wherever the barrier bracket holds 0, clipping the bracket
# there (305 records moved, c by at most 3.7e-10 max(u, |c|), no regime), and
# when g came to shoot on the rise b - a alone, from height 0 (the 360 grid
# records kept their bits; c moved in 173 wide pair records, by at most
# 8.6e-14 max(1, |c|), no regime)
SOLVER_RESULTS = "da24222229c1d8a34539fed856a784c8a9a383c3a1672ae2ad7338738aac44e5"


def sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("fig,sizes", sorted(FIGURE_OBJ))
def test_figure_bytes(tmp_path, capsys, fig, sizes):
    assert main(["figure", str(fig), "--out-dir", str(tmp_path), *sizes]) == EXIT_OK
    capsys.readouterr()
    assert sha256((tmp_path / f"figure{fig}_profile.csv").read_bytes()) == FIGURE_CSV[fig]
    assert sha256((tmp_path / f"figure{fig}_surface.obj").read_bytes()) == \
        FIGURE_OBJ[fig, sizes]


def test_multi_block_profile_csv_bytes(tmp_path, capsys):
    assert main(["figure", "4", "--out-dir", str(tmp_path), "--samples", "12293",
                 "--nt", "2", "--ntheta", "3"]) == EXIT_OK
    capsys.readouterr()
    assert sha256((tmp_path / "figure4_profile.csv").read_bytes()) == MULTI_BLOCK_CSV


def test_log_spaced_annulus_mesh_bytes(tmp_path, capsys):
    out = tmp_path / "annulus.obj"
    assert main(["mesh", "--H", "1", "--c", "3", "--t0", "0.5", "--t1", "4",
                 "--nt", "9", "--ntheta", "11", "--t-spacing", "log",
                 "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert sha256(out.read_bytes()) == LOG_MESH_OBJ


def test_patch_with_masked_hole_bytes():
    curve = profile_curve(SurfaceParams(1.0, 3.0), (1.0, 0.0))
    xs = np.linspace(-2.0, 2.0, 17)
    patch = patch_from_profile(curve, xs, xs, min_radius=0.75)
    assert np.count_nonzero(~patch.mask) == 25
    assert sha256(patch_to_csv(patch)) == HOLED_PATCH_CSV


def _solver_record(sol):
    d = sol.diagnostics
    return (sol.c.hex(), sol.residual.hex(), sol.H0.hex(), sol.regime.value, d.g_evals,
            d.interpolation_steps, d.bisection_fallbacks, d.final_bracket_width.hex(),
            sol.curve.quad_tol.hex())


def _solutions():
    """The 360 light-cone grid solves, then the 400 wide ring pair solves."""
    for R, ratio, k, h in _light_cone_grid():
        r = R / ratio
        rings = validate_rings(RingPair(r=r, R=R, a=0.0, b=k * (R - r)))
        yield solve_c(PlateauProblem(rings, h * threshold_H0(rings)))
    for case in _wide_ring_pairs():
        yield solve_two_ring(*case)


def test_solver_result_bits():
    records = [_solver_record(sol) for sol in _solutions()]
    assert len(records) == 760
    assert sha256("\n".join(map(repr, records)).encode()) == SOLVER_RESULTS


def test_solver_work_counts():
    # g evaluations over the same 760 solves, which repeat exactly: 6109 in
    # all and at most 34 in one, against 8883 and 82 while every bisection
    # halved c itself (steep, wide rings took decades of halvings), 6382
    # while the bracket took both barrier ends where it held 0, and 6110
    # while g formed a + rise - b
    evals = [sol.diagnostics.g_evals for sol in _solutions()]
    assert len(evals) == 760
    assert sum(evals) <= 6109
    assert max(evals) <= 34
