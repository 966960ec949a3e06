"""Convex-position validation, turning angles and polarity regions.

All length comparisons throughout the package are done on squared distances
(min/max are preserved under squaring); square roots are taken only when a
length is reported. Angle boundary tests use an absolute tolerance of 1e-9
radians, distance-equality tests a relative tolerance of 1e-9 on lengths
(applied as 2e-9 on squared values).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DegenerateSegmentError,
    DuplicatePointError,
    NonFiniteError,
    NotCcwError,
    NotStrictlyConvexError,
    OddCountError,
    TooFewError,
)

ANGLE_TOL = 1e-9          # radians, absolute
SQ_REL_TOL = 2e-9         # relative, on squared distances (~1e-9 on lengths)

TWO_PI = 2.0 * math.pi
CANDIDATE_ANGLE = 2.0 * math.pi / 3.0
ANGLE_SLACK = 1e-9  # widening the candidate angle test can only add candidates


@dataclass(frozen=True, eq=False)
class ConvexPointSet:
    """An even-sized, strictly convex, counterclockwise point sequence.

    ``xs``, ``ys`` and ``ext`` are read-only float64 arrays of length n.
    ``ext[t]`` is the exterior angle at vertex t (the ccw turn from edge
    t-1 -> t to edge t -> t+1); ``ext_prefix[t]`` is the sum of exterior
    angles at vertices 0 .. t-1, so ``ext_prefix[n]`` is the full 2*pi turn.
    Instances are immutable; construct them via :func:`validate_convex_ccw`.
    """

    xs: np.ndarray
    ys: np.ndarray
    ext: np.ndarray
    # prefix sums of exterior angles tiled twice: O(1) wraparound sums
    _ext_cum2: np.ndarray

    @property
    def n(self) -> int:
        return len(self.xs)

    @property
    def ext_prefix(self) -> np.ndarray:
        return self._ext_cum2[: self.n + 1]

    def coords(self) -> list[tuple[float, float]]:
        return list(zip(self.xs.tolist(), self.ys.tolist()))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def check_finite(xs: np.ndarray, ys: np.ndarray) -> None:
    """Raises NonFiniteError naming the first point with an inf or nan coordinate."""
    finite = np.isfinite(xs) & np.isfinite(ys)
    if not finite.all():
        t = int(np.argmax(~finite))
        raise NonFiniteError(f"({float(xs[t])}, {float(ys[t])})")


def validate_convex_ccw(points: Sequence | Iterable) -> ConvexPointSet:
    """Validate a point sequence as strictly convex, ccw and even-sized.

    ``points`` is an (n, 2) array or any iterable of (x, y) pairs, which is
    listed once and converted by one ``np.fromiter`` pass over its
    flattened rows; rows of any other length, or without one, raise
    ValueError. Raises TooFewError, OddCountError, NonFiniteError,
    DuplicatePointError, NotCcwError (all turns clockwise) or
    NotStrictlyConvexError (collinear triple, mixed turns, or total turning
    angle differing from 2*pi).
    """
    if isinstance(points, np.ndarray):
        xy = np.array(points, dtype=np.float64)
        if xy.size == 0:
            xy = xy.reshape(0, 2)
        if xy.ndim != 2 or xy.shape[1] != 2:
            raise ValueError(f"expected (x, y) rows, got shape {xy.shape}")
    else:
        rows = list(points)
        try:
            lengths = set(map(len, rows))
        except TypeError as e:
            raise ValueError(f"expected (x, y) rows: {e}") from None
        if lengths - {2}:
            raise ValueError(f"expected (x, y) rows, got rows of length {sorted(lengths - {2})}")
        xy = np.fromiter(chain.from_iterable(rows), np.float64, 2 * len(rows)).reshape(-1, 2)
    n = len(xy)
    if n < 2:
        raise TooFewError(f"need at least 2 points, got {n}")
    if n % 2 != 0:
        raise OddCountError(f"point count must be even, got {n}")
    xs, ys = xy.T.copy()
    check_finite(xs, ys)
    # + 0.0 folds -0.0 into 0.0; a stable sort keeps equal points in index
    # order, so the first repeated point is the smallest later index
    kx, ky = xs + 0.0, ys + 0.0
    order = np.lexsort((ky, kx))
    kx, ky = kx[order], ky[order]
    repeat = (kx[1:] == kx[:-1]) & (ky[1:] == ky[:-1])
    if repeat.any():
        t = int(order[1:][repeat].min())
        raise DuplicatePointError(f"({float(xs[t])}, {float(ys[t])})")

    if n == 2:
        # a 2-gon: both "turns" are half-circle reversals
        ext = np.array([math.pi, math.pi])
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # silent, as in float math
            w = np.concatenate((xs[-1:], xs, xs[:1]))  # neighbours as slices; one copy alive
            ux, vx = xs - w[:-2], w[2:] - xs
            w = np.concatenate((ys[-1:], ys, ys[:1]))
            uy, vy = ys - w[:-2], w[2:] - ys
            crosses = ux * vy - uy * vx
            dots = ux * vx + uy * vy
            del w, ux, uy, vx, vy
        flat = crosses == 0.0
        if flat.any():
            raise NotStrictlyConvexError(f"collinear triple at vertex {int(np.argmax(flat))}")
        right = crosses < 0.0
        if right.all():
            raise NotCcwError("all turns are clockwise")
        if right.any():
            raise NotStrictlyConvexError(f"right turn at vertex {int(np.argmax(right))}")
        # math.atan2, not np.arctan2: the two differ in the last bit on rare inputs
        ext = np.fromiter(map(math.atan2, crosses.tolist(), dots.tolist()), np.float64, n)

    cum2 = np.zeros(2 * n + 1)
    np.cumsum(np.concatenate((ext, ext)), out=cum2[1:])
    if not abs(cum2[n] - TWO_PI) <= ANGLE_TOL:
        # all-left-turn but multiply wound vertex orderings end up here, and
        # so do overflowed cross products, whose NaN turns fail any comparison
        raise NotStrictlyConvexError(
            f"total turning angle {cum2[n]:.12f} != 2*pi"
        )
    return ConvexPointSet(
        xs=_read_only(xs), ys=_read_only(ys), ext=_read_only(ext),
        _ext_cum2=_read_only(cum2),
    )


def arc_turns(P: ConvexPointSet, m, starts: np.ndarray) -> np.ndarray:
    """Turning angle of the arcs of ``m`` vertices (2 <= m <= n, one size
    for all or one per start) that begin at ``starts``.

    Entry t is the ccw rotation taking edge direction s -> s+1 onto edge
    direction s+m-2 -> s+m-1, for s = starts[t]: the sum of the exterior
    angles at the m - 2 vertices strictly inside the arc, in [0, 2*pi).
    """
    a = (starts + 1) % P.n
    cum = P._ext_cum2
    return cum[a + (m - 2)] - cum[a]


def candidate_reach(P: ConvexPointSet) -> np.ndarray:
    """For each start s, the largest k < n/2 whose arc of 2k vertices from
    s turns by at most CANDIDATE_ANGLE + ANGLE_SLACK, as ``arc_turns``
    computes it (0 if n = 2): the one home of the candidate angle rule.

    With a = s + 1, the arc to vertex x + 1 turns by cum[x] - cum[a], which
    never falls as x grows (positive angles, monotone rounding). A search
    for cum[a] + bound finds the last x that passes up to the rounding of
    that sum; the loop moves each x by one towards it until the exact test
    settles. cum[a + n] - cum[a] = 2*pi keeps x + 1 inside cum.
    """
    n, cum, bound = P.n, P._ext_cum2, CANDIDATE_ANGLE + ANGLE_SLACK
    a = np.arange(1, n + 1) % n
    x = np.searchsorted(cum, cum[a] + bound, side="right") - 1
    while (step := (cum[x + 1] - cum[a] <= bound) * 1 - (cum[x] - cum[a] > bound)).any():
        x += step
    return np.minimum((x - a) // 2 + 1, n // 2 - 1)


class PolarityRegion(Enum):
    """Where a point sits relative to a directed segment's polarity areas.

    For a directed segment vi -> vj of length d, points strictly on the
    right side and inside the circular cap from which the segment subtends
    an angle of at least pi/3 split into three areas: NEGATIVE (farther
    than d from vj, hugging vi), POSITIVE (farther than d from vi, hugging
    vj) and NEUTRAL (within d of both). Points on the left, on the line,
    or right but outside the cap get their own labels.
    """

    LEFT_OF_LINE = "left-of-line"
    ON_LINE = "on-line"
    OUTSIDE_CAP = "outside-cap"
    NEGATIVE = "negative"
    POSITIVE = "positive"
    NEUTRAL = "neutral"


def classify_polarity_region(vi, vj, p) -> PolarityRegion:
    """Classify p against the polarity areas of the directed segment vi -> vj.

    The cap is the region right of the line and inside the circle through
    vi and vj of radius d/sqrt(3) centered right of the line. Distance ties
    (equal to d within tolerance) classify as NEUTRAL; points on the cap
    boundary count as inside. Each point is an (x, y) pair, read as Python
    floats.
    """
    (xi, yi), (xj, yj), (px, py) = (map(float, q) for q in (vi, vj, p))
    ex, ey = xj - xi, yj - yi
    dd = ex * ex + ey * ey
    if dd == 0.0:
        raise DegenerateSegmentError("vi == vj")
    cross = ex * (py - yi) - ey * (px - xi)
    # |cross| = d * (perpendicular distance); relative test on that product
    if abs(cross) <= 1e-9 * dd:
        return PolarityRegion.ON_LINE
    if cross > 0.0:
        return PolarityRegion.LEFT_OF_LINE
    d = math.sqrt(dd)
    # cap circle: radius d/sqrt(3), center right of the line at the
    # inscribed-angle position for pi/3
    cx = (xi + xj) / 2.0 + ey / (2.0 * math.sqrt(3.0))
    cy = (yi + yj) / 2.0 - ex / (2.0 * math.sqrt(3.0))
    rr = dd / 3.0
    pcx, pcy = px - cx, py - cy
    if pcx * pcx + pcy * pcy > rr * (1.0 + SQ_REL_TOL):
        return PolarityRegion.OUTSIDE_CAP
    dix, diy = px - xi, py - yi
    djx, djy = px - xj, py - yj
    di2 = dix * dix + diy * diy
    dj2 = djx * djx + djy * djy
    if di2 > dd * (1.0 + SQ_REL_TOL):
        return PolarityRegion.POSITIVE
    if dj2 > dd * (1.0 + SQ_REL_TOL):
        return PolarityRegion.NEGATIVE
    return PolarityRegion.NEUTRAL
