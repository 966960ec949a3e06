import math
import time

import numpy as np
import pytest

from bnmatch import (
    GenSpec,
    cubic_solve,
    gen_circle,
    gen_cluster3,
    gen_valtr,
    generate,
    oracle_solve,
    solve,
    validate_convex_ccw,
)
from bnmatch.errors import OddCountError, TooFewError
from bnmatch.generators import MODES
from conftest import exact_turns, winding

approx = pytest.approx


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n", [4, 6, 8, 10, 12, 14, 16, 30])
def test_validity_and_determinism(mode, n):
    for seed in (0, 1, 2, 17):
        P = generate(GenSpec(n, mode, seed))
        assert P.n == n
        # revalidation from raw coordinates must succeed byte-identically
        Q = validate_convex_ccw(P.coords())
        assert Q.coords() == P.coords()
        assert set(exact_turns(P.coords())) == {1} and winding(P) == 1
        again = generate(GenSpec(n, mode, seed))
        assert again.coords() == P.coords()


@pytest.mark.parametrize("mode", MODES)
def test_seeds_differ(mode):
    a = generate(GenSpec(12, mode, 0)).coords()
    b = generate(GenSpec(12, mode, 1)).coords()
    assert a != b


def test_triple_cross_check_circle_seed1():
    P = gen_circle(6, 1)
    rep = solve(P)
    cv, _ = cubic_solve(P)
    ov, _ = oracle_solve(P)
    assert rep.value == approx(ov, rel=1e-9)
    assert cv == approx(ov, rel=1e-9)


def test_bad_arguments():
    with pytest.raises(OddCountError):
        gen_circle(7, 0)
    with pytest.raises(TooFewError):
        gen_valtr(2, 0)
    with pytest.raises(ValueError):
        gen_cluster3(12, 0, spread=0.5)
    with pytest.raises(ValueError):
        generate(GenSpec(8, "hexgrid", 0))


@pytest.mark.parametrize("spread", [math.nan, -math.inf, math.inf, 0.0, -0.0, 0.2000001])
def test_cluster3_spread_outside_range_rejected(spread):
    # NaN passed the old two-sided test "spread <= 0 or spread > 0.2"
    with pytest.raises(ValueError, match=r"spread must be in \(0, 0.2\]"):
        gen_cluster3(8, 0, spread=spread)


@pytest.mark.parametrize("n, spread", [
    (64, 1e-12), (64, 1e-14),  # every draw rounds to a non-convex polygon
    (8, 1e-16), (8, 5e-324),   # the corner cut rounds to a point
    (1024, 1e-9),
])
def test_cluster3_collapse_is_a_named_error(n, spread):
    with pytest.raises(ValueError, match=f"cluster3 points collapse at spread {spread} for n = {n}"):
        gen_cluster3(n, 1, spread=spread)


def test_cluster3_small_spread_still_valid():
    P = gen_cluster3(64, 1, spread=1e-9)
    assert P.n == 64


def test_circle_keeps_a_first_draw_with_margin():
    # a draw whose gaps all exceed 1e-6 rad is used as drawn
    for n, seed in ((6, 0), (256, 1), (1024, 1)):
        ang = np.sort(np.random.default_rng(seed).uniform(0.0, 2 * math.pi, n))
        assert min(np.diff(ang).min(), 2 * math.pi - (ang[-1] - ang[0])) > 1e-6
        P = gen_circle(n, seed)
        assert P.xs.tobytes() == np.cos(ang).tobytes()
        assert P.ys.tobytes() == np.sin(ang).tobytes()


@pytest.mark.parametrize("n,seed", [(6, 275), (1024, 0), (12000, 1)])
def test_circle_spreads_a_close_draw(n, seed):
    # each of these draws has a gap <= 1e-6; redrawing would not end at n = 12000
    t0 = time.perf_counter()
    P = gen_circle(n, seed)
    assert time.perf_counter() - t0 < 1.0
    ang = np.sort(np.arctan2(P.ys, P.xs))
    gaps = np.append(np.diff(ang), 2 * math.pi - (ang[-1] - ang[0]))
    assert P.n == n and gaps.min() >= 1e-6 * (1 - 1e-6)


def test_circle_points_on_unit_circle():
    P = gen_circle(16, 9)
    for x, y in P.coords():
        assert x * x + y * y == approx(1.0, rel=1e-12)


def test_cluster3_three_cascade_sweep():
    # the adversarial generator should hit the three-cascade structure
    # for most seeds once all three corners are full
    hits = 0
    for seed in range(10):
        P = gen_cluster3(12, seed)
        if solve(P).structure == "three-cascade":
            hits += 1
    assert hits >= 8


def test_cluster3_spread_scales_cluster_width():
    tight = gen_cluster3(12, 4, spread=0.02)
    wide = gen_cluster3(12, 4, spread=0.1)

    def max_pair_gap(P):
        # largest consecutive gap stays the inter-cluster one
        pts = P.coords()
        return max(
            math.dist(pts[i], pts[(i + 1) % len(pts)]) for i in range(len(pts))
        )

    def min_span(P):
        pts = P.coords()
        return min(
            math.dist(pts[i], pts[(i + 1) % len(pts)]) for i in range(len(pts))
        )

    assert min_span(tight) < min_span(wide)
    assert max_pair_gap(tight) > max_pair_gap(wide) > 1.0
