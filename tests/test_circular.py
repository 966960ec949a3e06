import math

import pytest
from hypothesis import given, strategies as st

from bnmatch import arc_size, gen_circle, segments_cross
from bnmatch.errors import SharedEndpointError


@pytest.mark.parametrize(
    "i,j,n,expect",
    [(0, 3, 6, 4), (5, 2, 6, 4), (2, 2, 6, 1), (0, 5, 6, 6), (3, 2, 6, 6)],
)
def test_arc_size(i, j, n, expect):
    assert arc_size(i, j, n) == expect


@pytest.mark.parametrize(
    "i,j,n,expect",
    [(0, 3, 6, True), (0, 2, 6, False), (5, 2, 6, True), (1, 1, 8, False)],
)
def test_feasible(i, j, n, expect):
    # a perfect matching can hold (i, j) iff the arc <i, j> has even size
    assert (arc_size(i, j, n) % 2 == 0) is expect


def test_segments_cross_examples():
    assert segments_cross(0, 2, 1, 3, 4) is True
    assert segments_cross(0, 1, 2, 3, 4) is False
    assert segments_cross(0, 3, 1, 2, 6) is False  # nested


def test_segments_cross_shared_endpoint():
    with pytest.raises(SharedEndpointError):
        segments_cross(0, 2, 2, 5, 8)


idx = st.integers(min_value=0, max_value=29)


@given(n=st.integers(min_value=2, max_value=30), i=idx, j=idx)
def test_complementary_arc_sizes(n, i, j):
    i %= n
    j %= n
    if j == (i - 1) % n:  # <i, i-1> is the full cycle, not a complement
        return
    assert arc_size(i, j, n) + arc_size((j + 1) % n, (i - 1) % n, n) == n


@given(n=st.integers(min_value=4, max_value=30), picks=st.permutations(range(30)))
def test_segments_cross_symmetry(n, picks):
    a, b, c, d = [p % n for p in picks[:4]]
    if len({a, b, c, d}) < 4:
        return
    r = segments_cross(a, b, c, d, n)
    assert segments_cross(b, a, c, d, n) is r
    assert segments_cross(a, b, d, c, n) is r
    assert segments_cross(c, d, a, b, n) is r


def _coord_cross(p1, p2, p3, p4) -> bool:
    # proper-intersection test via orientations (oracle for convex position)
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(p3, p4, p1)
    d2 = orient(p3, p4, p2)
    d3 = orient(p1, p2, p3)
    d4 = orient(p1, p2, p4)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def test_segments_cross_matches_coordinates():
    import random

    rnd = random.Random(417)
    for seed in range(20):
        P = gen_circle(12, seed)
        pts = P.coords()
        for _ in range(120):
            a, b, c, d = rnd.sample(range(12), 4)
            assert segments_cross(a, b, c, d, 12) == _coord_cross(
                pts[a], pts[b], pts[c], pts[d]
            ), (seed, a, b, c, d)
