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
from n = 2048 on it is isqrt(n/2): values then take 8n(sqrt(n/2) + 2)
bytes instead of 4n(n + 2), and replaying a column of n/2 values costs
about n * sqrt(n/2) entry updates.

No move is stored: ``reconstruct`` recomputes each move of its walk from
the values, replaying one block of rows at a time, in O(size * stride)
time and O(n + stride^2) scratch. The necessity flags are read only for
diagonals, so they are kept, one bit each, for the rows 2 <= k < n/2 that
hold at least one: on circle, valtr and cluster3 polygons of n = 256 ..
8192 points, 4 to 9 rows do. So the table holds no quadratic field.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadDomainError
from .geometry import ConvexPointSet

_NECESSARY_REL_TOL = 1e-9

# dense value rows up to this many bytes (n <= 2046). With every move
# replayed by reconstruct, solve at stride isqrt(n/2) ran 12-22% slower
# than at stride 1 on valtr and 30-69% slower on cluster3 (three candidate
# replays) at n = 768 .. 2048; at 3072 valtr broke even and cluster3 was 15%
# slower, and from 4096 (valtr) and 6144 (cluster3) on the stride won
_DENSE_VALUES_BYTES = 16 << 20


def checkpoint_stride(n: int) -> int:
    """The table's stride: 1 while the dense value rows fit, else isqrt(n/2)."""
    half = n // 2
    if 8 * n * (half + 1) <= _DENSE_VALUES_BYTES:
        return 1
    return math.isqrt(half)


@dataclass(frozen=True)
class SubproblemTable:
    """Values and necessity flags for all even-size arcs.

    Row k covers arcs of size 2k, indexed by start; row 0 is the
    empty-interval convention. No move tags are stored: ``choice`` is an
    empty (0, n) array, kept only so that code summing the table's fields'
    ``nbytes`` (the benchmark's table_bytes) still runs; it can go with the
    next change to the benchmark. An arc is necessary iff closing the pair
    strictly beat both edge moves, i.e. every optimal matching of that
    constrained subproblem contains the closing pair. Only the rows
    2 <= k < n/2 with a necessary arc are kept, by increasing k: bit s of
    ``np.unpackbits(necessary[r])`` flags the arc (s, 2*necessary_rows[r]).
    ``S`` holds the value rows k = 0, stride, 2*stride, ... and, last, the
    full-circle row k = n/2; read any value with ``value`` or ``arc_values``;
    a replay needs the coordinates ``xs`` and ``ys`` and the fill's squared
    edge lengths ``edge2``.
    """

    n: int
    stride: int
    S: np.ndarray          # float64, the kept value rows, each of length n
    choice: np.ndarray     # uint8, shape (0, n): empty, see above
    necessary: np.ndarray  # uint8, shape (rows, ceil(n/8)): the kept rows' flags, packed
    necessary_rows: np.ndarray  # int, the k of each kept row
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

    def _rows(self, r0, starts: np.ndarray, terms):
        """Replay the rows r0, r0+1, ... over the windows ``starts``.

        ``r0`` are checkpoint rows (multiples of the stride), shaped to
        broadcast against ``starts``, whose last axis runs along a window
        of consecutive starts. Each row is known at two starts fewer than
        the row below it. ``terms`` gives, for d = 1, 2, ..., the squared
        lengths of the closing pair and of the right edge of the arcs of
        row r0 + d, at least at the starts where that row is known. Yields
        row r0, then one row per item of ``terms``: the one copy of the
        recurrence outside the fill, with its float operations in its order.
        """
        cur = self.S[r0 // self.stride, starts]
        e_left = self.edge2[starts]
        yield cur
        for d2, e_right in terms:
            w = cur.shape[-1] - 2
            pair = np.maximum(cur[..., 1:w + 1], d2[..., :w])
            left = np.maximum(cur[..., 2:], e_left[..., :w])
            right = np.maximum(cur[..., :w], e_right[..., :w])
            cur = np.minimum(pair, np.minimum(left, right))
            yield cur

    def _sq_dist(self, x0: np.ndarray, y0: np.ndarray, far: np.ndarray) -> np.ndarray:
        """d2 from the points (x0, y0) to the points ``far`` (indices wrap),
        with the fill's float operations."""
        dx = np.take(self.xs, far, mode="wrap") - x0
        dy = np.take(self.ys, far, mode="wrap") - y0
        return dx * dx + dy * dy

    def _replay(
        self, r0: np.ndarray, s0: np.ndarray, steps: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Rows r0 .. r0+steps over the windows of starts s0 .. s0 + 2*steps.

        ``r0`` are checkpoint rows (multiples of the stride) and steps <= n/2.
        Row r0 + d is known at the window's first 2*(steps - d) + 1 starts;
        entry [w, d] of the two results is its value at the first and at
        the last of them. The terms are computed row by row, so the scratch
        stays a few times the windows' size; indices past n wrap.
        """
        width = 2 * steps + 1
        starts = (s0[:, None] + np.arange(width)) % self.n
        x0, y0 = self.xs[starts], self.ys[starts]
        far0 = starts + 2 * r0[:, None] - 1  # the arc of row r0+d ends at far0 + 2d

        def terms():
            for d in range(1, steps + 1):
                w = width - 2 * d
                far = far0[:, :w] + 2 * d
                yield (self._sq_dist(x0[:, :w], y0[:, :w], far),
                       np.take(self.edge2, far - 1, mode="wrap"))

        first = np.empty((r0.size, steps + 1))
        last = np.empty((r0.size, steps + 1))
        for d, cur in enumerate(self._rows(r0[:, None], starts, terms())):
            first[:, d], last[:, d] = cur[:, 0], cur[:, -1]
        return first, last

    def _block(self, r0: int, s: int, height: int) -> list[np.ndarray]:
        """Rows r0 .. r0+height-1 replayed from checkpoint r0: entry t of
        row r0 + d is its value at start s + t, for t <= 2(height - d)."""
        width = 2 * height + 1
        starts = (s + np.arange(width)) % self.n
        # every row's terms at once, at every start of the window
        far = starts + (2 * np.arange(r0 + 1, r0 + height) - 1)[:, None]
        terms = zip(self._sq_dist(self.xs[starts], self.ys[starts], far),
                    np.take(self.edge2, far - 1, mode="wrap"))
        return list(self._rows(r0, starts, terms))


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
    isqrt(n/2). No move is stored; ``reconstruct`` recomputes the moves it
    follows. A row 2 <= k < n/2 is kept, packed to a necessity bit per
    start, only if some arc in it is necessary.

    The coordinates are kept twice over as complex numbers (length 2n), the
    edge lengths likewise as floats, and the latest row in one buffer of
    length n+2 that repeats its first two entries at the end, so every
    cyclic shift above is a slice view. Each row is computed with ``out=``
    ufuncs into reused temporaries and that buffer (overwriting the
    previous row once the three moves have read it), so the loop allocates
    only the kept necessity rows. d2 is one complex subtraction, one
    in-place square of its float view and one add of the view's real and
    imaginary halves: the float operations of
    dx*dx + dy*dy. Those and the rest (min(pair, min(left, right)),
    other * (1 - 1e-9)) are the recurrence's own, in its order, so the
    values and flags equal a direct transcription bit for bit.
    """
    n = P.n
    half = n // 2
    stride = checkpoint_stride(n)
    S = np.zeros((half // stride + 1 + (half % stride != 0), n))
    necessary, necessary_rows = [], []  # the kept flag rows, packed, and their k

    z2 = np.empty(2 * n, dtype=np.complex128)
    z2.real[:n], z2.imag[:n] = P.xs, P.ys
    z2[n:] = z2[:n]
    z = z2[:n]
    diff = np.empty(n, dtype=np.complex128)
    diff_xy = diff.view(np.float64)  # dx, dy interleaved
    a = np.empty(n)
    b = np.empty(n)
    p = np.empty(n, dtype=bool)
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
    # size 2: all three moves coincide, so the pair is never forced

    keep = 1.0 - _NECESSARY_REL_TOL
    for k in range(2, half + 1):
        m = 2 * k
        pair = np.maximum(buf[1:n + 1], sq_dist_to(m - 1, a), out=a)
        left = np.maximum(buf[2:], edge2, out=b)
        # the last read of row k-1, which row k overwrites in place from here
        right = np.maximum(row, edge2_twice[m - 2:m - 2 + n], out=row)
        other = np.minimum(left, right, out=row)
        if k < half:
            np.multiply(other, keep, out=b)
            if np.count_nonzero(np.less(pair, b, out=p)):
                necessary.append(np.packbits(p))
                necessary_rows.append(k)
        np.minimum(pair, other, out=row)
        finish_row(k)

    return SubproblemTable(
        n=n, stride=stride, S=S, choice=np.zeros((0, n), dtype=np.uint8),
        necessary=np.array(necessary, dtype=np.uint8).reshape(len(necessary_rows), (n + 7) // 8),
        necessary_rows=np.array(necessary_rows, dtype=np.intp),
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
    """The size/2 pairs of the table's optimum for the arc <start, start+size-1>.

    The pairs cover exactly the arc and their longest squared length equals
    T.value(start, size) bit for bit (the table holds actual pair
    distances, selected by min/max only). Each move is the one the fill's
    recurrence picks, from the fill's floats and in its tie order: the pair
    unless min(left, right) < pair, else the left edge unless right < left.

    No moves are stored. At stride 1 the walk reads the rows below it from
    ``S``. Otherwise it goes down one block of rows at a time: from the
    arc (s, 2k), the moves of rows r0+1 .. k, for the checkpoint r0 below
    k, need rows r0 .. k-1 only at starts s .. s + 2(k - r0), which one
    replay from row r0 gives. That is O(size * stride) time and
    O(n + stride^2) scratch.
    """
    T._check(start, size)
    n, stride = T.n, T.stride
    x, y, e = T.xs.item, T.ys.item, T.edge2.item
    pairs: list[tuple[int, int]] = []
    s, k = start, size // 2
    while k > 0:
        # rows[d] is row r0 + d, its entry t (mod n) the value at start s0 + t
        if stride == 1:
            r0, s0, rows = 0, 0, T.S
        else:
            r0, s0 = (k - 1) // stride * stride, s
            rows = T._block(r0, s, k - r0)
        for kk in range(k, r0, -1):
            prev, u = rows[kk - 1 - r0], s - s0
            j = (s + 2 * kk - 1) % n
            dx, dy = x(j) - x(s), y(j) - y(s)
            pair = max(prev.item((u + 1) % n), dx * dx + dy * dy)
            left = max(prev.item((u + 2) % n), e(s))
            right = max(prev.item(u % n), e(j - 1))
            if not (left < pair or right < pair):
                pairs.append((s, j))
                s = (s + 1) % n
            elif not right < left:
                pairs.append((s, (s + 1) % n))
                s = (s + 2) % n
            else:
                pairs.append(((j - 1) % n, j))
        k = r0
    return pairs

