import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings

from bnmatch import dp_core, validate_convex_ccw

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


def dense_choice(T) -> np.ndarray:
    """The table's move tags unpacked: entry [k, s] is the tag of the arc (s, 2k)."""
    k = np.arange(T.n // 2 + 1)
    shifts = (2 * (k & 3)).astype(np.uint8)[:, None]
    return (T.choice[k >> 2] >> shifts) & 3


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
