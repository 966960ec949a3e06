import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from bnmatch import dp_core, gen_cluster3, validate_convex_ccw

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


def segments_cross(a: int, b: int, c: int, d: int, n: int) -> bool:
    """Do chords (a, b) and (c, d) of a strictly convex n-gon properly cross?

    The reference crossing test, for four distinct ends: the segments cross
    iff exactly one of c, d lies strictly inside the arc a, a+1, ..., b.
    """
    span = (b - a) % n
    return (0 < (c - a) % n < span) != (0 < (d - a) % n < span)


def dense_necessary(T) -> np.ndarray:
    """The table's necessity flags unpacked: entry [k, s] is the flag of the
    arc (s, 2k), False in every row the table does not keep."""
    out = np.zeros((T.n // 2 + 1, T.n), dtype=bool)
    out[T.necessary_rows] = np.unpackbits(T.necessary, axis=1, count=T.n)
    return out


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
