"""Golden sha256 hashes of the OBJ and CSV bytes the library writes, and
of the solver's results.

README promises byte-deterministic output; these hashes pin the actual
bytes, so a rewrite of a serialiser or sampler that changes one byte fails
here.  The solver hash pins every bit of ``solve_c``'s results on the
light-cone grid and the wide ring pairs of ``test_bvp``, so a rewrite of
the shooting loop that moves one root, residual or work count fails here.
They were recorded with numpy 2.4 and glibc on x86-64 Linux, and hold
with any BLAS kernel and with numpy's dispatched SIMD features disabled
(``test_dispatch``): the panel sums take no BLAS and the catenoid's heights
take ``math.asinh``.  A platform whose libm, or whose numpy sin/cos,
rounds differently can still shift the last digit of a coordinate.
Change a hash only for a deliberate change of format or of results, and
record it in CHANGES.md.
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
# moved, by 1 ulp (figure 2) and 2 ulp (figure 4).  All four, every OBJ
# but figure 2's at 5 x 7, MULTI_BLOCK_CSV, LOG_MESH_OBJ and
# HOLED_PATCH_CSV were re-pinned when the Kronrod sums came to run in node
# order and the catenoid's array heights to take math.asinh: f and z moved
# by at most 8.9e-16, the residual column by at most 7.5e-9, and t,
# f_prime, x, y and faces kept every bit (CHANGES.md lists each case).
FIGURE_CSV = {
    1: "4b0472d3d2ba1ae0dc96276f502b3680fa16f6a5160b4093153cb07e8f0b5f87",
    2: "b7a4f93df48bae593f737fb9b6740abe82e9feb46a9dd54234d6036b664d07c9",
    3: "8b00d4ee9f811b355dfd5e8bf7da995ff3d2b0ad804db66c7e0f970f6fd68e4a",
    4: "5b8f638c56ad7ddddd922c7bad92ee3dc2d133b3da64d860c80d1664d823f33f",
}

# (figure id, size flags) -> sha256 of figure<id>_surface.obj.  These and
# LOG_MESH_OBJ were re-pinned when the spoke table came from first-octant
# angles with exact sign flips and swaps: x and y moved by at most (in eps t)
# 2.95, 3.02, 2.95, 3.02 (figures 1-4 at 64 x 64), 0.95, 0.88, 1.00, 0.88
# (at 5 x 7), 3.02 (figure 4 at 256 x 256) and 1.77 (the log mesh); the
# about 1e-16 t at the cardinal spokes became 0.0, and z and faces kept
# every bit
FIGURE_OBJ = {
    (1, ()): "a84afac64650d4c4e4cf2d4995f5a2680c5d9f9027ff0e1df362c15381d74cf2",
    (2, ()): "ddf269ee860253c852e45fff5bf5272359407107fc526c0c44e1ad2b02d01de9",
    (3, ()): "fa8df448d4fc58e2f49b3afc43ea20026f73ba3febcc3b4afe75b9e15123097a",
    (4, ()): "0b60393b91b75e9b918752a192c541ee3ab8198ef4ba3e42366a6f030e941df0",
    (1, ("--nt", "5", "--ntheta", "7")):
        "2fc5f897b552050c1be626282667ca4413c8004e2f706524675f1585328cdd63",
    (2, ("--nt", "5", "--ntheta", "7")):
        "14387751fc41ed7b687ac4ebf5faa52073e6bed4ef8d433af9f572d4625d43f8",
    (3, ("--nt", "5", "--ntheta", "7")):
        "efc13ad7946488c1faca380e038dd25d800cbf849e078a95d6e63f40fddc8880",
    # re-pinned when heights took height's engine on the segments whose panel
    # misses its tolerance: z moved on 3 rings (21 v lines), against a 40-digit
    # quadrature t = 2: +1 ulp (gap 5.1e-17 -> 1.1e-16), t = 3: -1 ulp
    # (7.8e-17 -> 2.2e-17), t = 4: -1 ulp (2.3e-16 -> 1.0e-17)
    (4, ("--nt", "5", "--ntheta", "7")):
        "5c691bd568a71979d419874d29c9cac268585c33ba6239f9098dd2bb6156b239",
    # 65281 v and 130560 f records: many writer and reader blocks
    (4, ("--nt", "256", "--ntheta", "256")):
        "9dc0094b30718159643415bb8757c6b6501df8da1549524a112b490969b8ca71",
}

# figure4_profile.csv at --samples 12293 (three writer blocks and five rows)
MULTI_BLOCK_CSV = "56c88d0676efd2ae67461d8207738db527a5d52c998b9898852be8e237c34faa"

# re-pinned as figure 4 at 5 x 7 was: z moved on 2 rings (22 v lines), against
# a 40-digit quadrature t = 2.3784142300054416: +16 ulp (gap -9.2e-17 ->
# 1.3e-16), t = 3.084421650815881: +4 ulp (-1.2e-16 -> 1.0e-16)
LOG_MESH_OBJ = "38d8363df8da12d7908b86d9afb54c26817db934fd9f3fe27ba3491efab03a9c"
HOLED_PATCH_CSV = "fbb26c66999d6e8ba1d10c9507411c10f55df8e2ba6cbbad8ddf700f94d3267b"

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
