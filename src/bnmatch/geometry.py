"""Convex-position validation.

All length comparisons throughout the package are done on squared distances
(min/max are preserved under squaring); square roots are taken only when a
length is reported. Convexity is decided from exact orientation signs, with
no angle and no tolerance: a float filter settles almost every sign, and
exact rational arithmetic the rest.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DuplicatePointError,
    NonFiniteError,
    NotCcwError,
    NotStrictlyConvexError,
    OddCountError,
    TooFewError,
)

# Shewchuk's bound on a rounded cross product l - r of rounded differences,
# (3 + 16 eps) eps (|l| + |r|) with eps = 2^-53 ("Adaptive precision
# floating-point arithmetic and fast robust geometric predicates", DCG
# 1997), plus 2^-1072 for underflow; the kernel's candidate rule uses it too
_SIGN_ERR = (3.0 + 16.0 * 2.0**-53) * 2.0**-53
_SIGN_TINY = 2.0**-1072


@dataclass(frozen=True, eq=False)
class ConvexPointSet:
    """An even-sized, strictly convex, counterclockwise point sequence.

    ``xs`` and ``ys`` are read-only float64 arrays of length n. Instances
    are immutable; construct them via :func:`validate_convex_ccw`.
    """

    xs: np.ndarray
    ys: np.ndarray

    @property
    def n(self) -> int:
        return len(self.xs)

    def coords(self) -> list[tuple[float, float]]:
        return list(zip(self.xs.tolist(), self.ys.tolist()))


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
    NotStrictlyConvexError (collinear triple, mixed turns, or all left
    turns around more than once), each decided exactly for the input's
    floats: a turn's sign from one NumPy pass where it clears Shewchuk's
    bound, else from ``fractions.Fraction``. With all turns left, the edges
    go around once iff exactly one edge in the lower half-plane (dy < 0, or
    dy = 0 > dx) is followed by one in the upper, which exact signs decide.
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

    if n > 2:
        with np.errstate(over="ignore", invalid="ignore"):  # silent, as in float math
            w = np.concatenate((xs[-1:], xs, xs[:1]))  # neighbours as slices; one copy alive
            ux, vx = xs - w[:-2], w[2:] - xs
            w = np.concatenate((ys[-1:], ys, ys[:1]))
            uy, vy = ys - w[:-2], w[2:] - ys
            del w
            dl, dr = ux * vy, uy * vx  # Shewchuk's detleft and detright
            del ux, uy
            turn = dl - dr
            bound = np.abs(dl, out=dl)  # in place: validation's peak memory is here
            bound += np.abs(dr, out=dr)
            bound *= _SIGN_ERR
            bound += _SIGN_TINY
            # false for NaN and for an infinite bound: not finite is unsure
            sure = np.abs(turn) > bound
            del dl, dr, bound
        # the exact signs, in rationals; a sure turn is never 0, so the
        # first unsure one that is 0 is the first collinear triple
        for t in np.flatnonzero(~sure).tolist():
            (ax, ay), (bx, by), (cx, cy) = ((Fraction(xs[v]), Fraction(ys[v]))
                                            for v in (t - 1, t, (t + 1) % n))
            cross = (bx - ax) * (cy - by) - (by - ay) * (cx - bx)
            if cross == 0:
                raise NotStrictlyConvexError(f"collinear triple at vertex {t}")
            turn[t] = 1.0 if cross > 0 else -1.0
        right = turn < 0.0
        if right.all():
            raise NotCcwError("all turns are clockwise")
        if right.any():
            raise NotStrictlyConvexError(f"right turn at vertex {int(np.argmax(right))}")
        # (vx[t], vy[t]) is the edge t -> t + 1; count the lower ones
        # followed by an upper one, the last edge's by the first
        lower = (vy < 0.0) | ((vy == 0.0) & (vx < 0.0))
        winds = int(np.count_nonzero(lower[:-1] > lower[1:])) + int(lower[-1] > lower[0])
        if winds != 1:
            raise NotStrictlyConvexError(f"the edges wind {winds} times around, not once")
    xs.flags.writeable = ys.flags.writeable = False
    return ConvexPointSet(xs=xs, ys=ys)
