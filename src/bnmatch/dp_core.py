"""Interval subproblem table over circular arcs, with reconstruction.

The table answers, for every arc <start, start+size-1> of even size, the
best bottleneck value (squared) of a matching of exactly those points whose
diagonals form a single nested chain, together with which of the three
recurrence moves achieved it and whether the closing pair was forced.

Indexing is (start, size) rather than endpoint pairs so that the full-circle
entries (size n) are first class; an interval of size 0 contributes 0.

Values are checkpointed (Hirschberg 1975, Griewank 1992: recompute instead
of store). The fill keeps the value rows of sizes 0, 2s, 4s, ... for a
stride s, plus the full-circle row. Row r0 + d at start t depends only on
row r0 at starts t .. t + 2d, so any other value is replayed from the
checkpoint row below it on a window of at most 2s - 1 starts, with the
fill's own float operations, and comes out bit for bit as the fill computed
it. Stride 1 keeps every row. ``checkpoint_stride`` alone picks s from n;
from n = 1024 on it is isqrt(n/2): values then take 8n(sqrt(n/2) + 2)
bytes instead of 4n(n + 2), and replaying a column of n/2 values costs
about n * sqrt(n/2) entry updates.

The move tags are two bits each (0 pair, 1 left, 2 right), four rows to a
byte: a quarter byte per entry, read only by ``reconstruct``. The necessity
flags, a byte each, are read only for candidate diagonals, whose arcs turn
by at most 2*pi/3, so they are kept for the rows 0 .. kmax that hold such
arcs: on circle, valtr and cluster3 polygons kmax is 0.34 to 0.41 of n/2,
so the flags take about 0.35 to 0.4 bytes per entry.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadDomainError
from .geometry import ANGLE_SLACK, CANDIDATE_ANGLE, ConvexPointSet, arc_turns

# recurrence moves, in tie-break priority order
USE_PAIR = 0        # close the pair (start, start+size-1), recurse inside
USE_LEFT_EDGE = 1   # take edge (start, start+1), recurse on the rest
USE_RIGHT_EDGE = 2  # take edge (start+size-2, start+size-1), recurse on the rest

_NECESSARY_REL_TOL = 1e-9

# dense value rows up to this many bytes (n <= 1022). The cutoff is not
# tuned: between n = 256 and 1536, solve ran 3-12% faster at stride
# isqrt(n/2) on valtr (no candidates) and 16-58% slower on cluster3 (three
# candidates, whose replays are numpy calls on a few entries each); from
# n = 8192 on, the saved pages win on both
_DENSE_VALUES_BYTES = 4 << 20


def checkpoint_stride(n: int) -> int:
    """The table's stride: 1 while the dense value rows fit, else isqrt(n/2)."""
    half = n // 2
    if 8 * n * (half + 1) <= _DENSE_VALUES_BYTES:
        return 1
    return math.isqrt(half)


@dataclass(frozen=True)
class SubproblemTable:
    """Values, choice tags and necessity flags for all even-size arcs.

    Row k covers arcs of size 2k, indexed by start; row 0 is the
    empty-interval convention. The move tag of the arc (s, 2k) is
    ``(choice[k >> 2, s] >> 2*(k & 3)) & 3``, one of USE_PAIR, USE_LEFT_EDGE
    and USE_RIGHT_EDGE. ``necessary[k, s]`` is True iff closing the pair
    strictly beat both edge moves, i.e. every optimal matching of that
    constrained subproblem contains the closing pair; it has the rows
    k = 0 .. kmax only, kmax being the last row below n/2 in which some arc
    turns by at most CANDIDATE_ANGLE + ANGLE_SLACK. ``S`` holds the value
    rows k = 0, stride, 2*stride, ... and, last, the full-circle row
    k = n/2; read any value with ``value`` or ``arc_values``; a replay needs
    the coordinates ``xs`` and ``ys`` and the fill's squared edge lengths
    ``edge2``.
    """

    n: int
    stride: int
    S: np.ndarray          # float64, the kept value rows, each of length n
    choice: np.ndarray     # uint8, shape (n//2 // 4 + 1, n): 2-bit tags, 4 rows a byte
    necessary: np.ndarray  # bool, shape (kmax + 1, n)
    xs: np.ndarray
    ys: np.ndarray
    edge2: np.ndarray      # float64, d2(s, s+1) for every start s

    def _check(self, start: int, size: int) -> None:
        if not 0 <= start < self.n:
            raise BadDomainError(f"start {start} outside [0, {self.n})")
        if size % 2 != 0 or not 0 <= size <= self.n:
            raise BadDomainError(f"size {size} not even in [0, {self.n}]")

    def value(self, start: int, size: int) -> float:
        """Value of the arc of ``size`` starting at ``start``, bit for bit
        the stride-1 table's."""
        self._check(start, size)
        k = size // 2
        d = k % self.stride
        first, _ = self._replay(np.array([k - d]), np.array([start]), d)
        return float(first[0, d])

    def arc_values(self, start: int, end: int, kmax: int) -> tuple[np.ndarray, np.ndarray]:
        """Values of the arcs of sizes 0, 2, ..., 2*kmax (kmax <= n/2) that
        start at ``start``, and of those that end at ``end``.

        Entry k of the first array is the value of the arc of size 2k
        starting at ``start``; of the second, that of the arc of size 2k
        ending at ``end``. Each comes from one replay with one window per
        block of ``stride`` rows, left-aligned at the start or right-aligned
        at the end; both take O(n) entries.
        """
        steps = min(self.stride - 1, kmax)
        r0 = np.arange(0, kmax + 1, self.stride)
        first, _ = self._replay(r0, np.full(r0.size, start), steps)
        _, last = self._replay(r0, (end - 2 * r0 - 2 * steps + 1) % self.n, steps)
        return first.ravel()[:kmax + 1], last.ravel()[:kmax + 1]

    def _replay(
        self, r0: np.ndarray, s0: np.ndarray, steps: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Rows r0 .. r0+steps over the windows of starts s0 .. s0 + 2*steps.

        ``r0`` are checkpoint rows (multiples of the stride) and steps <= n/2.
        Row r0 + d is known at the window's first 2*(steps - d) + 1 starts;
        entry [w, d] of the two results is its value at the first and at
        the last of them. The float operations are the fill's, in its order;
        indices past n wrap.
        """
        n = self.n
        width = 2 * steps + 1
        starts = (s0[:, None] + np.arange(width)) % n
        cur = self.S[(r0 // self.stride)[:, None], starts]
        first = np.empty((r0.size, steps + 1))
        last = np.empty((r0.size, steps + 1))
        first[:, 0], last[:, 0] = cur[:, 0], cur[:, -1]
        x0, y0, e0 = self.xs[starts], self.ys[starts], self.edge2[starts]
        far0 = starts + 2 * r0[:, None]  # the arc of row r0+d ends at far0 + 2d - 1
        for d in range(1, steps + 1):
            w = width - 2 * d
            far = far0[:, :w] + (2 * d - 1)
            dx = np.take(self.xs, far, mode="wrap") - x0[:, :w]
            dy = np.take(self.ys, far, mode="wrap") - y0[:, :w]
            pair = np.maximum(cur[:, 1:w + 1], dx * dx + dy * dy)
            left = np.maximum(cur[:, 2:], e0[:, :w])
            right = np.maximum(cur[:, :w], np.take(self.edge2, far - 1, mode="wrap"))
            cur = np.minimum(pair, np.minimum(left, right))
            first[:, d], last[:, d] = cur[:, 0], cur[:, -1]
        return first, last


def _last_candidate_row(P: ConvexPointSet) -> int:
    """The largest k < n/2 at which some arc of size 2k turns by at most
    CANDIDATE_ANGLE + ANGLE_SLACK, or 0 if there is no such k (n = 2).

    The smallest turn over all arcs of size 2k never falls as k grows (the
    exterior angles are positive and their prefix sums rounded
    monotonically), so a binary search over k finds it; the size-2 arcs
    turn by 0, so the answer is at least 1 from n = 4 on.
    """
    lo, hi = 0, P.n // 2  # the answer is in [lo, hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if arc_turns(P, 2 * mid).min() <= CANDIDATE_ANGLE + ANGLE_SLACK:
            lo = mid
        else:
            hi = mid
    return lo


def build_subproblem_table(P: ConvexPointSet) -> SubproblemTable:
    """Fill the table for all (start, even size) in O(n^2) time.

    For an arc of size m starting at s, with d2 the squared distances:

        pair  = max(S(s+1, m-2), d2(s, s+m-1))
        left  = max(S(s+2, m-2), d2(s, s+1))
        right = max(S(s,   m-2), d2(s+m-2, s+m-1))
        S(s, m) = min(pair, left, right)

    Each size is computed for all starts at once; ties pick the earliest
    move in (pair, left, right) order. The pair move is flagged necessary
    only when it wins by more than a relative 1e-9.

    The value rows kept are sizes 2k with k % stride == 0, for the stride
    ``checkpoint_stride(n)`` picks, and the full circle: 8 bytes per entry
    at stride 1 and about 8n * sqrt(n/2) bytes in all at stride
    isqrt(n/2). The move tag of row k is the two bits p << r, with p for
    min(left, right) < pair and r for right < left, at bits 2*(k & 3) of
    ``choice[k >> 2]``: a quarter byte per entry. Necessity flags are kept,
    one byte each, for rows 0 .. kmax only, kmax being the last row below
    n/2 with an arc that turns by at most CANDIDATE_ANGLE + ANGLE_SLACK;
    the rows above it hold no candidate, and the fill skips their test.

    The coordinates are kept twice over as complex numbers (length 2n), the
    edge lengths likewise as floats, and the latest row in one buffer of
    length n+2 that repeats its first two entries at the end, so every
    cyclic shift above is a slice view. Each row is computed with ``out=``
    ufuncs into reused temporaries, that buffer (overwriting the previous
    row once the three moves have read it) and the row's own slots of
    ``choice`` and ``necessary``, so the loop allocates nothing. d2 is one
    complex subtraction, one in-place square of its float view and one add
    of the view's real and imaginary halves: the float operations of
    dx*dx + dy*dy. Those and the rest (min(pair, min(left, right)),
    other * (1 - 1e-9)) are the recurrence's own, in its order, so all
    three tables equal a direct transcription bit for bit, ties included.
    """
    n = P.n
    half = n // 2
    stride = checkpoint_stride(n)
    kmax = _last_candidate_row(P)
    S = np.zeros((half // stride + 1 + (half % stride != 0), n))
    choice = np.zeros((half // 4 + 1, n), dtype=np.uint8)
    necessary = np.zeros((kmax + 1, n), dtype=bool)

    z2 = np.empty(2 * n, dtype=np.complex128)
    z2.real[:n], z2.imag[:n] = P.xs, P.ys
    z2[n:] = z2[:n]
    z = z2[:n]
    diff = np.empty(n, dtype=np.complex128)
    diff_xy = diff.view(np.float64)  # dx, dy interleaved
    a = np.empty(n)
    b = np.empty(n)
    r = np.empty(n, dtype=np.uint8)
    p = np.empty(n, dtype=np.uint8)
    buf = np.empty(n + 2)  # the latest row, then its entries 0 and 1 again
    row = buf[:n]

    def sq_dist_to(off: int, out: np.ndarray) -> np.ndarray:
        """d2(s, s+off) for every s into ``out``."""
        np.subtract(z2[off:off + n], z, out=diff)
        np.multiply(diff_xy, diff_xy, out=diff_xy)
        return np.add(diff_xy[0::2], diff_xy[1::2], out=out)

    def finish_row(k: int) -> None:
        """Repeat row k's first entries after it; keep it if a checkpoint."""
        buf[n:] = row[:2]
        if k % stride == 0:
            S[k // stride] = row
        elif k == half:
            S[-1] = row

    edge2 = sq_dist_to(1, np.empty(n))
    edge2_twice = np.concatenate((edge2, edge2))
    row[:] = edge2
    finish_row(1)
    # size 2: all three moves coincide, so the pair is never forced; its
    # tag is 0, the pair

    keep = 1.0 - _NECESSARY_REL_TOL
    for k in range(2, half + 1):
        m = 2 * k
        tags, shift = choice[k >> 2], 2 * (k & 3)
        pair = np.maximum(buf[1:n + 1], sq_dist_to(m - 1, a), out=a)
        left = np.maximum(buf[2:], edge2, out=b)
        # the last read of row k-1, which row k overwrites in place from here
        right = np.maximum(row, edge2_twice[m - 2:m - 2 + n], out=row)
        np.less(right, left, out=r)                     # 1 iff right beats left
        other = np.minimum(left, right, out=row)
        np.less(other, pair, out=p)                     # 1 iff the pair loses
        if shift:                                       # p << r: 0 pair, 1 left, 2 right
            np.add(r, shift, out=r)
            np.left_shift(p, r, out=p)
            np.bitwise_or(tags, p, out=tags)
        else:  # the first row of its byte: nothing to keep
            np.left_shift(p, r, out=tags)
        if k <= kmax:
            np.multiply(other, keep, out=b)
            np.less(pair, b, out=necessary[k])
        np.minimum(pair, other, out=row)
        finish_row(k)

    return SubproblemTable(
        n=n, stride=stride, S=S, choice=choice, necessary=necessary,
        xs=P.xs, ys=P.ys, edge2=edge2,
    )


def one_cascade_optimum(T: SubproblemTable) -> tuple[float, int]:
    """Best full-circle entry: (squared value, achieving start).

    Ties go to the smallest start.
    """
    row = T.S[-1]
    s = int(np.argmin(row))
    return float(row[s]), s


def reconstruct(T: SubproblemTable, start: int, size: int) -> list[tuple[int, int]]:
    """Expand choice tags into the size/2 pairs of the stored optimum.

    The pairs cover exactly the arc <start, start+size-1> and their longest
    squared length equals T.value(start, size) bit for bit (the table stores
    actual pair distances, selected by min/max only). Runs in O(size).
    """
    T._check(start, size)
    n = T.n
    pairs: list[tuple[int, int]] = []
    s, m = start, size
    while m > 0:
        k = m // 2
        c = (T.choice[k >> 2, s] >> 2 * (k & 3)) & 3
        if c == USE_PAIR:
            pairs.append((s, (s + m - 1) % n))
            s = (s + 1) % n
        elif c == USE_LEFT_EDGE:
            pairs.append((s, (s + 1) % n))
            s = (s + 2) % n
        else:
            pairs.append(((s + m - 2) % n, (s + m - 1) % n))
        m -= 2
    return pairs
