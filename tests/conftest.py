import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from bnmatch import dp_core, gen_cluster3, validate_convex_ccw
from bnmatch.errors import BadIndexError

DEG = math.pi / 180.0

SQ4_COORDS = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
HEX6_COORDS = [(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)]
# unit-circle points at 0, 10, 20 and 180 degrees
SKEW4_COORDS = [(math.cos(a * DEG), math.sin(a * DEG)) for a in (0, 10, 20, 180)]

# bottleneck of SKEW4 is the chord from 20 to 180 degrees: 2*cos(10 deg)
SKEW4_VALUE = 2.0 * math.cos(10 * DEG)


def canonical_pairs(pairs) -> tuple[tuple[int, int], ...]:
    """Order-independent form: sorted (min, max) pairs, for comparisons."""
    return tuple(sorted((min(a, b), max(a, b)) for a, b in pairs))


def _check_index(P, i: int) -> None:
    if not 0 <= i < P.n:
        raise BadIndexError(f"index {i} outside [0, {P.n})")


def turning_angle(P, i: int, j: int) -> float:
    """Cumulative exterior angle along the arc <i, j>: the tests' reference.

    The ccw rotation taking edge direction i -> i+1 onto edge direction
    j-1 -> j, i.e. the sum of exterior angles at the vertices strictly
    inside the arc. turning_angle(P, i, i+1) == 0. Result in [0, 2*pi).
    """
    _check_index(P, i)
    _check_index(P, j)
    if i == j:
        raise BadIndexError("turning angle needs two distinct indices")
    n = P.n
    a = (i + 1) % n
    steps = (j - i - 1) % n
    cum = P._ext_cum2
    return float(cum[a + steps] - cum[a])


def sq_dist(P, i: int, j: int) -> float:
    """Squared distance between vertices i and j of P: the tests' reference."""
    _check_index(P, i)
    _check_index(P, j)
    dx = P.xs[j] - P.xs[i]
    dy = P.ys[j] - P.ys[i]
    return float(dx * dx + dy * dy)


def segments_cross(a: int, b: int, c: int, d: int, n: int) -> bool:
    """Do chords (a, b) and (c, d) of a strictly convex n-gon properly cross?

    The reference crossing test, for four distinct ends: the segments cross
    iff exactly one of c, d lies strictly inside the arc a, a+1, ..., b.
    """
    span = (b - a) % n
    return (0 < (c - a) % n < span) != (0 < (d - a) % n < span)


def parabola_cap(n: int) -> list[tuple[float, float]]:
    """n points (x, x^2) at evenly spaced x in [-1, 1], ccw: a quarter of
    the arcs of even size below n are necessary."""
    x = np.linspace(-1.0, 1.0, n)
    return list(zip(x.tolist(), (x * x).tolist()))


def two_arcs(n: int) -> list[tuple[float, float]]:
    """n/2 points evenly spaced on each of two opposite arcs of the unit
    circle, one radian wide, ccw: an eighth of the arcs of even size below
    n are necessary."""
    t = np.linspace(-0.5, 0.5, n // 2)
    t = np.concatenate((t, t + math.pi))
    return list(zip(np.cos(t).tolist(), np.sin(t).tolist()))


def regular(n: int) -> list[tuple[float, float]]:
    """The regular n-gon, ccw from (1, 0): with 6 | n its arcs of n/3 + 2
    vertices turn by 2*pi/3 up to rounding, the edge of the candidate
    angle test, but tie everywhere, so it has no necessary arc."""
    a = 2 * math.pi * np.arange(n) / n
    return list(zip(np.cos(a).tolist(), np.sin(a).tolist()))


def equiangular(n: int, seed: int = 0) -> list[tuple[float, float]]:
    """An n-gon, 6 | n, whose edge t points at angle 2*pi*t/n, so every
    exterior angle is 2*pi/n up to rounding, as in the regular n-gon.

    Edges 0 and n/3 have lengths 1 and 1/2, edges n/2 and 5n/6 close the
    polygon, and the others are short, of seeded random lengths in
    [0.1/n, 0.2/n]. The arcs from edge 0 to edge n/3 and from edge n/2
    to edge 5n/6 (n/3 + 2 vertices each) turn by 2*pi/3 up to rounding and
    are candidates (n = 6 .. 120, seed 0), so the last row that can hold a
    candidate holds them.
    """
    u = np.exp(2j * math.pi * np.arange(n) / n)
    lengths = np.random.default_rng(seed).uniform(0.1 / n, 0.2 / n, n)
    t = n // 6
    lengths[[0, 2 * t, 3 * t, 5 * t]] = 0.0
    rest = (lengths * u).sum()
    # 1*u[0] + 0.5*u[2t] + x*u[3t] + y*u[5t] + rest == 0
    y = 0.5 + 2 * rest.imag / math.sqrt(3)
    x = 1.0 + rest.real + rest.imag / math.sqrt(3)
    lengths[[0, 2 * t, 3 * t, 5 * t]] = 1.0, 0.5, x, y
    z = np.concatenate(([0], np.cumsum(lengths * u)[:-1]))
    return list(zip(z.real.tolist(), z.imag.tolist()))


@st.composite
def convex_polygons(draw):
    """Points on an ellipse at angles with random positive gaps: strictly convex."""
    gaps = draw(st.lists(st.integers(1, 1000), min_size=4, max_size=80))
    if len(gaps) % 2:
        gaps.pop()
    squash = draw(st.floats(0.05, 1.0))
    total, angles, acc = sum(gaps), [], 0
    for g in gaps:
        angles.append(2 * math.pi * acc / total)
        acc += g
    return [(math.cos(a), squash * math.sin(a)) for a in angles]


@st.composite
def cluster_rings(draw):
    """K tight clusters of points around a circle, n even."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=3, max_size=8))
    if sum(sizes) % 2:
        sizes[0] += 1
    spread = draw(st.floats(1e-4, 0.05))
    jitter = draw(st.floats(0.0, 0.3))
    angles = []
    for c, size in enumerate(sizes):
        center = 2 * math.pi * (c + jitter * (c % 2)) / len(sizes)
        angles += [center + spread * t for t in range(size)]
    return [(math.cos(a), math.sin(a)) for a in angles]


even_sizes = st.integers(2, 40).map(lambda h: 2 * h)
# cluster3 draws, the family with candidates, at random sizes, seeds and spreads
cluster3_polygons = st.builds(
    lambda n, seed, spread: gen_cluster3(n, seed, spread).coords(),
    even_sizes, st.integers(0, 2**32 - 1), st.floats(0.01, 0.2),
)
# strictly convex coordinate lists, n = 4 ... 80, |x|, |y| <= 2
random_polygons = st.one_of(
    convex_polygons(), cluster_rings(), cluster3_polygons,
    st.builds(parabola_cap, even_sizes), st.builds(two_arcs, even_sizes),
    st.builds(equiangular, st.integers(1, 13).map(lambda h: 6 * h), st.integers(0, 2**32 - 1)),
)


def forced_stride(stride: int):
    """Context manager: tables built inside it keep every stride-th value row.

    dp_core.checkpoint_stride alone picks the stride, so it is the one seam.
    """
    return mock.patch.object(dp_core, "checkpoint_stride", lambda n: stride)


@pytest.fixture
def sq4():
    return validate_convex_ccw(SQ4_COORDS)


@pytest.fixture
def hex6():
    return validate_convex_ccw(HEX6_COORDS)


@pytest.fixture
def skew4():
    return validate_convex_ccw(SKEW4_COORDS)


# the same examples on every run, and nothing written into the checkout:
# no example database, and hypothesis's cache of constants parsed from the
# source goes to the temp directory
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY", os.path.join(tempfile.gettempdir(), "bnmatch-hypothesis")
)
