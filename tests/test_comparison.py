"""The comparison principle: an oracle for the two-ring Plateau problem that
never uses the first integral.

For the Lorentzian mean-curvature operator, ordered boundary data and
ordered mean curvature give ordered solutions (Bartnik & Simon, Comm. Math.
Phys. 87 (1982) 131-152).  For the solved profiles through f(r) = a,
f(R) = b that reads: with rising data (b > a) a larger H gives a lower
profile, and a larger b a higher one; falling data is the mirror
x3 -> -x3, so there a larger H gives a higher profile, and a larger b still
a higher one.  Only solved heights are compared, at 39 interior radii.
"""

import numpy as np

from lorentz_cmc import RingPair, heights, solve_two_ring, threshold_H0, validate_rings

FRACTIONS = np.arange(1, 40) / 40.0  # the interior radii, as r + f (R - r)


def _profile(r, R, a, b, H, solve=solve_two_ring):
    return heights(solve(r, R, a, b, H).curve, r + (R - r) * FRACTIONS)


def _ring_pairs(n, seed):
    """n draws of (r, R, a, b, b2, H, H2) with b2 beyond b from a and
    0 <= H <= H2: R in 1e-3..1e3, R/r in 1.02..1e3, slopes up to 1 - 1e-6,
    H up to 3 H0, with H = 0, H = H0 or H2 = H0 in three draws of four.
    Odd draws fall (b < a)."""
    rng = np.random.default_rng(seed)
    for i in range(n):
        R = 10.0 ** rng.uniform(-3.0, 3.0)
        r = R / 10.0 ** rng.uniform(0.01, 3.0)
        a = rng.uniform(-1.0, 1.0) * R
        q, q2 = np.sort(1.0 - 10.0 ** rng.uniform(-6.0, 0.0, 2) if i % 4 < 2
                        else rng.uniform(0.0, 0.99, 2))
        h0 = threshold_H0(validate_rings(RingPair(r, R, 0.0, q * (R - r))))
        H, H2 = np.sort(h0 * rng.uniform(0.0, 3.0, 2))
        H, H2 = ((0.0, H2), (h0, max(H2, h0)), (min(H, h0), h0), (H, H2))[i % 8 // 2]
        s = -1.0 if i % 2 else 1.0
        yield r, R, a, a + s * q * (R - r), a + s * q2 * (R - r), float(H), float(H2)


def _order_gaps(case, solve=solve_two_ring):
    """The largest breach of each order, in units of 1e-8 (R - r): the
    larger H against the smaller, and the smaller b against the larger.
    A gap above 1 breaks the order."""
    r, R, a, b, b2, H, H2 = case
    s = 1.0 if b >= a else -1.0
    unit = 1e-8 * (R - r)
    base = _profile(r, R, a, b, H, solve)
    by_H = s * (_profile(r, R, a, b, H2, solve) - base)
    by_b = s * (base - _profile(r, R, a, b2, H, solve))
    return by_H.max() / unit, by_b.max() / unit


def test_ordered_data_give_ordered_profiles():
    breaches = [(case, gaps) for case in _ring_pairs(400, 1982)
                if max(gaps := _order_gaps(case)) > 1.0]
    assert breaches == []


def test_a_planted_fault_breaks_the_order():
    # H2 = H (1 + 5e-4), and the smaller-H solve runs at H x 1.001: its
    # profile falls below (rising data) or rises above (falling data) that
    # of H2, on every moderate draw among the property's first 200
    tried = caught = 0
    for r, R, a, b, b2, H, _ in _ring_pairs(200, 1982):
        if H == 0.0 or abs(b - a) > 0.99 * (R - r):
            continue
        case = (r, R, a, b, b2, H, H * (1.0 + 5e-4))

        def faulty(r, R, a, b, H_solved, H=H):
            return solve_two_ring(r, R, a, b, H_solved * (1.001 if H_solved == H else 1.0))

        assert max(_order_gaps(case)) <= 1.0
        tried += 1
        caught += _order_gaps(case, faulty)[0] > 1.0
    assert caught == tried == 128
