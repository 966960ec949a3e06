"""Interval subproblem table over circular arcs, with reconstruction.

The table answers, for every arc <start, start+size-1> of even size, the
best bottleneck value (squared) of a matching of exactly those points whose
diagonals form a single nested chain, and whether the closing pair was
forced.

Indexing is (start, size) rather than endpoint pairs so that the full-circle
entries (size n) are first class; an interval of size 0 contributes 0.

Values are checkpointed (Hirschberg 1975, Griewank 1992: recompute instead
of store). The fill keeps the value rows of sizes 0, 2s, 4s, ... for a
stride s, plus the full-circle row. Row r0 + d at start t depends only on
row r0 at starts t .. t + 2d, so any other value is replayed from the
checkpoint row below it on a window of at most 2s - 1 starts, with the
fill's own float operations, and comes out bit for bit as the fill computed
it. Stride 1 keeps every row. ``checkpoint_stride`` alone picks s from n;
from n = 2048 on it is isqrt(2n): values then take about 8n(sqrt(n/8) + 2)
bytes instead of 4n(n + 2) (2.2 MB at n = 8192, 135 MB at 131072), and
replaying a column of n/2 values costs about n * s / 2 = n * sqrt(n/2)
entry updates. A replay reads its squared lengths through strided views
of the coordinates and edges, copying only a window that wraps past n.

No move is stored: ``reconstruct`` recomputes each move of its walk from
the values, replaying one block of rows at a time, in O(size * stride)
time and O(n + stride^2) = O(n) scratch. Of the necessary arcs, the table
keeps the (k, start) of the candidates only, those that turn by at most
2*pi/3 (``candidate_reach``): none on circle and valtr polygons of
n = 256 .. 8192 (seed 1), three on cluster3, about n/15 on a parabola
cap. It also keeps each candidate's value, its base, which the fill has
at hand where it flags the arc: 8 bytes a candidate, and no base is
replayed. So the table holds no quadratic field.

The fill works on real float64 arrays only: the coordinates are one
(2, 2n) array, x and y each twice over, so d2 to every start at once is
three ufunc calls on contiguous slices. Its row loop touches that array
(32 bytes a point), one (2, n) buffer that takes d2 and then, in its two
halves, the pair and left moves (16), the squared edge lengths once and
twice over (8 + 16), the latest row (8), the necessity factors (8), the
starts sorted by reach (8) and a boolean row: about 98 bytes a point
beside the kept rows at n = 8192. ``edge2`` stays an array of its
own rather than a view of its doubled copy, which filled n = 16384 about
28% slower.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import BadDomainError
from .geometry import ConvexPointSet, candidate_reach

_NECESSARY_REL_TOL = 1e-9

# dense value rows up to this many bytes (n <= 2046). With every move
# replayed by reconstruct, solve at stride isqrt(2n) took 1.16x the
# stride-1 time on valtr and 1.45x on cluster3 (three candidate replays)
# at n = 2048, 1.06x and 1.29x at 3072, and 0.98x and 1.10x at 4096
_DENSE_VALUES_BYTES = 16 << 20

# rows whose replay terms _block computes at once: its scratch is about
# 2 * _CHUNK * (2 * stride + 1) floats beside the rows it returns
_CHUNK = 32


def checkpoint_stride(n: int) -> int:
    """The table's stride: 1 while the dense value rows fit, else isqrt(2n).

    At stride s the table keeps at most n/(2s) + 2 value rows of n
    floats, about 8n(sqrt(n/8) + 2) bytes, and a block of s replayed rows
    holds about s^2 = 2n entries.
    """
    if 8 * n * (n // 2 + 1) <= _DENSE_VALUES_BYTES:
        return 1
    return math.isqrt(2 * n)


@dataclass(frozen=True)
class SubproblemTable:
    """Values of all even-size arcs and the candidate arcs among them.

    Row k covers arcs of size 2k, indexed by start; row 0 is the
    empty-interval convention. No move tags are stored: ``choice`` is an
    empty (0, n) array, kept only so that code summing the table's fields'
    ``nbytes`` (the benchmark's table_bytes) still runs; it can go with the
    next change to the benchmark. An arc is necessary iff closing the pair
    strictly beat both edge moves, i.e. every optimal matching of that
    constrained subproblem contains the closing pair. ``necessary`` holds
    the (k, start) of every necessary arc (start, 2k) with 2 <= k <=
    ``candidate_reach(P)[start]``, a diagonal whose arc turns by at most
    2*pi/3 (+ slack): the candidates, by increasing k, then start.
    ``bases[c]`` is the value of the arc ``necessary[c]``, bit for bit the
    stride-1 table's. ``S`` holds the value rows k = 0, stride, 2*stride,
    ... and, last, the full-circle row k = n/2: 2.2 MB at n = 8192, where
    the stride is 128. Read any other value with ``arc_values``; a replay
    needs the coordinates ``xs`` and ``ys`` and the fill's squared edge
    lengths ``edge2``.
    """

    n: int
    stride: int
    S: np.ndarray          # float64, the kept value rows, each of length n
    choice: np.ndarray     # uint8, shape (0, n): empty, see above
    necessary: np.ndarray  # intp, shape (c, 2): the (k, start) of each candidate arc
    bases: np.ndarray      # float64, shape (c,): the value of each candidate arc
    xs: np.ndarray
    ys: np.ndarray
    edge2: np.ndarray      # float64, d2(s, s+1) for every start s

    def arc_values(self, start: int, end: int, kmax: int) -> tuple[np.ndarray, np.ndarray]:
        """Values of the arcs of sizes 0, 2, ..., 2*kmax (kmax <= n/2) that
        start at ``start``, and of those that end at ``end``.

        Entry k of the first array is the value of the arc of size 2k
        starting at ``start``; of the second, that of the arc of size 2k
        ending at ``end``. Each comes from one replay with one window per
        block of ``stride`` rows, left-aligned at the start or right-aligned
        at the end; both take O(n) entries, about n * stride / 2 entry
        updates and O(n) scratch. At stride 1 both are read from ``S``.
        """
        if self.stride == 1:
            k = np.arange(kmax + 1)
            return self.S[k, start], self.S[k, (end - 2 * k + 1) % self.n]
        steps = min(self.stride - 1, kmax)
        first, _ = self._replay(start, 0, kmax, steps)
        _, last = self._replay(end - 2 * steps + 1, -2 * self.stride, kmax, steps)
        return first.ravel()[:kmax + 1], last.ravel()[:kmax + 1]

    @staticmethod
    def _rows(cur: np.ndarray, e_left: np.ndarray, terms):
        """Replay the rows above ``cur``, a checkpoint row over windows of
        consecutive starts along its last axis, with ``e_left`` the squared
        lengths of the edges (t, t+1) at those starts.

        Each row is known at two starts fewer than the row below it.
        ``terms`` gives, for d = 1, 2, ..., the squared lengths of the
        closing pair and of the right edge of the arcs of row r0 + d, at
        least at the starts where that row is known. Yields ``cur``, then
        one row per item of ``terms``: the one copy of the recurrence
        outside the fill, with its float operations in its order.
        """
        yield cur
        for d2, e_right in terms:
            w = cur.shape[-1] - 2
            pair = np.maximum(cur[..., 1:w + 1], d2[..., :w])
            left = np.maximum(cur[..., 2:], e_left[..., :w])
            right = np.maximum(cur[..., :w], e_right[..., :w])
            cur = np.minimum(pair, np.minimum(left, right))
            yield cur

    @staticmethod
    def _sq_dist(xe: np.ndarray, ye: np.ndarray, x0: np.ndarray, y0: np.ndarray) -> np.ndarray:
        """d2 from the points (x0, y0) to the points (xe, ye), with the
        fill's float operations."""
        dx, dy = np.subtract(xe, x0), np.subtract(ye, y0)
        dx *= dx
        dy *= dy
        dx += dy
        return dx

    @np.errstate(over="ignore")
    def _replay(
        self, s0: int, shift: int, kmax: int, steps: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Rows r0 .. r0+steps for each checkpoint r0 = b * stride <= kmax,
        on the window of starts s0 + shift*b .. s0 + shift*b + 2*steps.

        steps < stride, and steps <= n/2. Row r0 + d is known at the
        window's first 2*(steps - d) + 1 starts; entry [b, d] of the two
        results is its value at the first and at the last of them. The
        arcs' ends advance by shift + 2*stride from one window to the
        next, so each row's terms are read through strided views, and
        the scratch stays a few times the windows' size; indices past n
        wrap.
        """
        n, stride = self.n, self.stride
        width = 2 * steps + 1
        b = np.arange(kmax // stride + 1)[:, None]
        starts = (s0 + shift * b + np.arange(width)) % n
        x0, y0 = self.xs[starts], self.ys[starts]
        # the arc of row b*stride + d at entry t of window b ends at
        # s0 - 1 + 2d + (shift + 2*stride)*b + t
        shape, step = (steps + 1, b.size, width), (2, shift + 2 * stride, 1)
        xe, ye = (_wrapped(a, s0 - 1, shape, step) for a in (self.xs, self.ys))
        ee = _wrapped(self.edge2, s0 - 2, shape, step)

        def terms():
            for d in range(1, steps + 1):
                w = width - 2 * d
                yield (self._sq_dist(xe[d, :, :w], ye[d, :, :w], x0[:, :w], y0[:, :w]),
                       ee[d, :, :w])

        first = np.empty((b.size, steps + 1))
        last = np.empty((b.size, steps + 1))
        for d, cur in enumerate(self._rows(self.S[b, starts], self.edge2[starts], terms())):
            first[:, d], last[:, d] = cur[:, 0], cur[:, -1]
        return first, last

    @np.errstate(over="ignore")
    def _block(self, r0: int, s: int, height: int) -> list[np.ndarray]:
        """Rows r0 .. r0+height-1 replayed from checkpoint r0: entry t of
        row r0 + d is its value at start s + t, for t <= 2(height - d).

        The terms of _CHUNK rows are computed at once, from strided views
        of the coordinates and edges, so the scratch beyond the rows
        returned (about height^2 entries) is O(height * _CHUNK).
        """
        width = 2 * height + 1
        x0, y0, e_left, cur = (_wrapped(a, s, (width,), (1,))
                               for a in (self.xs, self.ys, self.edge2, self.S[r0 // self.stride]))
        # the arc of row r0 + d at entry t ends at s + 2(r0 + d) - 1 + t
        shape, step = (height, width), (2, 1)
        xe, ye = (_wrapped(a, s + 2 * r0 - 1, shape, step) for a in (self.xs, self.ys))
        ee = _wrapped(self.edge2, s + 2 * r0 - 2, shape, step)

        def terms():
            for d in range(1, height, _CHUNK):
                rows, w = slice(d, d + _CHUNK), width - 2 * d
                yield from zip(self._sq_dist(xe[rows, :w], ye[rows, :w], x0[:w], y0[:w]),
                               ee[rows, :w])

        return list(self._rows(cur, e_left, terms()))


def _wrapped(
    a: np.ndarray, first: int, shape: tuple[int, ...], step: tuple[int, ...]
) -> np.ndarray:
    """The array v with v[i, j, ...] = a[(first + step[0]*i + step[1]*j +
    ...) % len(a)], for steps >= 0: a strided view of ``a``, or of a copy
    of the entries it spans where they wrap past its end. Its entries
    overlap, so it is only read."""
    n = a.size
    first %= n
    size = sum((m - 1) * t for m, t in zip(shape, step)) + 1
    base = a[first:first + size] if first + size <= n else np.take(
        a, np.arange(first, first + size), mode="wrap")
    return np.ndarray(shape, a.dtype, base, 0, tuple(t * a.itemsize for t in step))


# a d2 past the float range is inf, as in float math (solve names it), and
# an inf value times a zeroed keep is nan, which flags nothing
@np.errstate(over="ignore", invalid="ignore")
def build_subproblem_table(P: ConvexPointSet) -> SubproblemTable:
    """Fill the table for all (start, even size) in O(n^2) time.

    For an arc of size m starting at s, with d2 the squared distances:

        pair  = max(S(s+1, m-2), d2(s, s+m-1))
        left  = max(S(s+2, m-2), d2(s, s+1))
        right = max(S(s,   m-2), d2(s+m-2, s+m-1))
        S(s, m) = min(pair, left, right)

    Each size is computed for all starts at once; ties pick the earliest
    move in (pair, left, right) order. The pair move is necessary only when
    it wins by more than a relative 1e-9. That is tested only in the rows
    k <= max(``candidate_reach(P)``) and, at a start s, only while k <=
    reach[s]: past that the pair would have to beat 0, which it never does,
    so each arc the test flags is a candidate. There the row's value is
    the pair's, and the fill stores it with the arc's (k, start).

    The value rows kept are sizes 2k with k % stride == 0, for the stride
    ``checkpoint_stride(n)`` picks, and the full circle: 8 bytes per entry
    at stride 1 and about 8n * sqrt(n/8) bytes in all at stride
    isqrt(2n). No move is stored; ``reconstruct`` recomputes the moves it
    follows.

    The coordinates are kept twice over in one (2, 2n) float64 array, x
    above y, the edge lengths likewise, and the latest row in one buffer of
    length n+2 that repeats its first two entries at the end, so every
    cyclic shift above is a slice view; the views that do not move with k
    are made once, before the loop. Each row is computed with ``out=``
    ufuncs into one reused (2, n) buffer and that row buffer, so the loop
    allocates only the kept (k, start) pairs and their values. d2 is three
    calls on contiguous (2, n) blocks, written in the loop: subtract,
    square in place, add the y half into the x half, the float operations
    of dx*dx + dy*dy. The pair move then overwrites d2 in the x half, the
    left move the y half, and other * (1 - 1e-9) the left move once
    ``other`` has read it; right and ``other`` overwrite the previous row
    once the three moves have read it. Those operations are the
    recurrence's own, in its order, so the values, flags and bases equal
    a direct transcription bit for bit.

    The scratch is about 98 bytes a point beside the kept rows (see the
    module docstring), and ``S`` is allocated only after
    ``candidate_reach`` has returned. Measured layouts: ``edge2`` as a
    view of its doubled copy filled n = 16384 about 28% slower, padding
    the (2, n) buffer's rows slowed small n by about 8%, and the starts
    sorted by reach as 32-bit ints, a cast at every use, slowed small
    fills by about 4%.
    """
    n = P.n
    half = n // 2
    stride = checkpoint_stride(n)
    necessary = [np.empty((0, 2), dtype=np.intp)]  # the (k, start) pairs of each row
    bases = [np.empty(0)]  # their values
    reach = candidate_reach(P)
    kmax = int(reach.max())  # no row above it holds a candidate
    by_reach = np.argsort(reach)
    below = array("i", np.searchsorted(reach, np.arange(kmax + 1), sorter=by_reach).tolist())  # reach < k
    del reach  # n words the loop does not need
    keep = np.full(n, 1.0 - _NECESSARY_REL_TOL)  # zeroed at a start once k passes its reach
    S = np.zeros((half // stride + 1 + (half % stride != 0), n))

    # ufuncs as locals, out= by position where allowed: at small n lookups and keywords show
    sub, mul, add, maximum, minimum = np.subtract, np.multiply, np.add, np.maximum, np.minimum
    xy2 = np.empty((2, 2 * n))  # x and y, each twice over
    xy2[0, :n], xy2[1, :n] = P.xs, P.ys
    xy2[:, n:] = xy2[:, :n]
    xy = xy2[:, :n]
    dx, dy = dxy = np.empty((2, n))  # d2, then the pair move in dx and the left move in dy
    p = np.empty(n, dtype=bool)
    buf = np.empty(n + 2)  # the latest row, then its entries 0 and 1 again
    # its fixed views: the row, the row from s+1 and s+2, the repeat, its source
    row, row1, row2, tail, head = buf[:n], buf[1:n + 1], buf[2:], buf[n:], buf[:2]

    sub(xy2[:, 1:n + 1], xy, dxy)
    mul(dxy, dxy, dxy)
    edge2 = add(dx, dy)  # d2(s, s+1), as the rows compute d2
    edge2_twice = np.concatenate((edge2, edge2))
    row[:], tail[:] = edge2, edge2[:2]
    if stride == 1:
        S[1] = row
    # size 2: all three moves coincide, so the pair is never forced

    for k in range(2, half + 1):
        m = 2 * k
        sub(xy2[:, m - 1:m - 1 + n], xy, dxy)  # d2(s, s+m-1) into dx
        mul(dxy, dxy, dxy)
        pair = maximum(row1, add(dx, dy, dx), out=dx)
        left = maximum(row2, edge2, out=dy)
        # the last read of row k-1, which row k overwrites in place from here
        right = maximum(row, edge2_twice[m - 2:m - 2 + n], out=row)
        other = minimum(left, right, out=row)
        if k <= kmax:
            if below[k] > below[k - 1]:
                keep[by_reach[below[k - 1]:below[k]]] = 0.0
            if np.count_nonzero(np.less(pair, mul(other, keep, dy), p)):
                starts = np.flatnonzero(p)
                necessary.append(np.column_stack((np.full(starts.size, k), starts)))
                bases.append(pair[starts])  # the row's value wherever the pair is forced
        minimum(pair, other, out=row)
        tail[:] = head
        if k % stride == 0:
            S[k // stride] = row
        elif k == half:
            S[-1] = row

    return SubproblemTable(
        n=n, stride=stride, S=S, choice=np.zeros((0, n), dtype=np.uint8),
        necessary=np.concatenate(necessary), bases=np.concatenate(bases),
        xs=P.xs, ys=P.ys, edge2=edge2,
    )


def one_cascade_optimum(T: SubproblemTable) -> tuple[float, int]:
    """Best full-circle entry: (squared value, achieving start).

    Ties go to the smallest start.
    """
    row = T.S[-1]
    s = int(np.argmin(row))
    return float(row[s]), s


def reconstruct(T: SubproblemTable, start: int, size: int) -> np.ndarray:
    """The size/2 pairs of the table's optimum for the arc <start, start+size-1>,
    as a (size/2, 2) intp array in the order the walk takes them.

    The pairs cover exactly the arc and their longest squared length equals
    the table's value of the arc bit for bit (the table holds actual pair
    distances, selected by min/max only). Each move is the one the fill's
    recurrence picks, from the fill's floats and in its tie order: the pair
    unless min(left, right) < pair, else the left edge unless right < left.

    No moves are stored. At stride 1 the walk reads the rows below it from
    ``S``. Otherwise it goes down one block of rows at a time: from the
    arc (s, 2k), the moves of rows r0+1 .. k, for the checkpoint r0 below
    k, need rows r0 .. k-1 only at starts s .. s + 2(k - r0), which one
    replay from row r0 gives. One block is alive at a time: the walk drops
    a block's rows before it replays the next. That is O(size * stride)
    time and O(n + stride^2) scratch, O(n) at stride isqrt(2n): the block's
    rows, about stride^2 floats, and its terms, computed _CHUNK rows at a
    time. The walk lists one block's ends as Python ints, then moves them
    into an array of machine ints, 16 bytes a pair: no tuple is built, and
    no int outlives its block.
    """
    n, stride = T.n, T.stride
    if not 0 <= start < n:
        raise BadDomainError(f"start {start} outside [0, {n})")
    if size % 2 != 0 or not 0 <= size <= n:
        raise BadDomainError(f"size {size} not even in [0, {n}]")
    x, y, e = T.xs.item, T.ys.item, T.edge2.item
    ends = array("q")  # the pairs' ends, two by two, of the blocks walked
    s, k = start, size // 2
    while k > 0:
        # rows[d] is row r0 + d, its entry t (mod n) the value at start s0 + t
        if stride == 1:
            r0, s0, rows = 0, 0, T.S
        else:
            r0, s0 = (k - 1) // stride * stride, s
            rows = T._block(r0, s, k - r0)
        block: list[int] = []
        put = block.append
        for kk in range(k, r0, -1):
            at, u = rows[kk - 1 - r0].item, s - s0
            j = (s + 2 * kk - 1) % n
            dx, dy = x(j) - x(s), y(j) - y(s)
            # max(a, b) without a call: a unless b > a
            a, b = at((u + 1) % n), dx * dx + dy * dy
            pair = b if b > a else a
            a, b = at((u + 2) % n), e(s)
            left = b if b > a else a
            a, b = at(u % n), e(j - 1)
            right = b if b > a else a
            if not (left < pair or right < pair):
                put(s)
                put(j)
                s = (s + 1) % n
            elif not right < left:
                put(s)
                put((s + 1) % n)
                s = (s + 2) % n
            else:
                put((j - 1) % n)
                put(j)
        ends.fromlist(block)
        del rows  # the block, before the next one is replayed
        k = r0
    return np.array(ends, dtype=np.intp).reshape(-1, 2)
