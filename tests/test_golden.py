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

# (figure id, size flags) -> sha256 of figure<id>_surface.obj.  These and
# LOG_MESH_OBJ were re-pinned when the spoke table came from first-octant
# angles with exact sign flips and swaps: x and y moved by at most (in eps t)
# 2.95, 3.02, 2.95, 3.02 (figures 1-4 at 64 x 64), 0.95, 0.88, 1.00, 0.88
# (at 5 x 7), 3.02 (figure 4 at 256 x 256) and 1.77 (the log mesh); the
# about 1e-16 t at the cardinal spokes became 0.0, and z and faces kept
# every bit
FIGURE_OBJ = {
    (1, ()): "af4fcd55b67d13e3779715f951e7d4d00b0b6bd1bc4440f85b2447a7b3a1cd69",
    (2, ()): "f5aeef1eadf25245cf3efe91ca26e2d5074e90013d05f419201c7ac88255af42",
    (3, ()): "830d50a451dc6de954811e0da716d14d66230b64157ab71c3e655c57f03e0cef",
    (4, ()): "ec0a32eaaa55e0b9c64d121595b042be6a9659040f3ce476b2585a82524c2c4a",
    (1, ("--nt", "5", "--ntheta", "7")):
        "a6ab18802c500ce392c5d9957f4912a1fe321d2ae6076bd4dc528bc6c479d909",
    (2, ("--nt", "5", "--ntheta", "7")):
        "14387751fc41ed7b687ac4ebf5faa52073e6bed4ef8d433af9f572d4625d43f8",
    (3, ("--nt", "5", "--ntheta", "7")):
        "e6b56367c50eaf8d745b34cc5a1affd89ad1dac18d5b8a38eaf79b7a6efa3180",
    (4, ("--nt", "5", "--ntheta", "7")):
        "6bb0ead7a59a786bd1ed0e36eb719e8a79e7dddc0127f9c62760c9db73f280f1",
    # 65281 v and 130560 f records: many writer and reader blocks
    (4, ("--nt", "256", "--ntheta", "256")):
        "4aaa09c4c8b5124624b9f32e389b28a43e00f1a63dd78404a8412f4e6d88c16f",
}

# figure4_profile.csv at --samples 12293 (three writer blocks and five rows)
MULTI_BLOCK_CSV = "2c10b3c2777102a10fef411f4dd0b9488979e528edb9ff09865205d786ee4af3"

LOG_MESH_OBJ = "a1ff0403967b175f4e9e5d37ecc6c1835b66d9a79e5a69fa499c24da95a0db88"
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
