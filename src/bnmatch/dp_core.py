"""Interval subproblem table over circular arcs, with reconstruction.

The table answers, for every arc <start, start+size-1> of even size, the
best bottleneck value (squared) of a matching of exactly those points whose
diagonals form a single nested chain, together with which of the three
recurrence moves achieved it and whether the closing pair was forced.

Indexing is (start, size) rather than endpoint pairs so that the full-circle
entries (size n) are first class; an interval of size 0 contributes 0.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BadDomainError
from .geometry import ConvexPointSet

# recurrence moves, in tie-break priority order
USE_PAIR = 0        # close the pair (start, start+size-1), recurse inside
USE_LEFT_EDGE = 1   # take edge (start, start+1), recurse on the rest
USE_RIGHT_EDGE = 2  # take edge (start+size-2, start+size-1), recurse on the rest

_NECESSARY_REL_TOL = 1e-9


@dataclass(frozen=True)
class SubproblemTable:
    """Values, choice tags and necessity flags for all even-size arcs.

    Row k of each array covers arcs of size 2k, indexed by start; row 0 is
    the empty-interval convention (all zeros). ``necessary[k, s]`` is True
    iff closing the pair strictly beat both edge moves, i.e. every optimal
    matching of that constrained subproblem contains the closing pair.
    """

    n: int
    S: np.ndarray          # float64, shape (n//2 + 1, n)
    choice: np.ndarray     # uint8, same shape
    necessary: np.ndarray  # bool, same shape

    def _check(self, start: int, size: int) -> None:
        if not 0 <= start < self.n:
            raise BadDomainError(f"start {start} outside [0, {self.n})")
        if size % 2 != 0 or not 0 <= size <= self.n:
            raise BadDomainError(f"size {size} not even in [0, {self.n}]")

    def value(self, start: int, size: int) -> float:
        self._check(start, size)
        return float(self.S[size // 2, start])

    def choice_at(self, start: int, size: int) -> int:
        self._check(start, size)
        if size == 0:
            raise BadDomainError("empty interval has no choice")
        return int(self.choice[size // 2, start])

    def necessary_at(self, start: int, size: int) -> bool:
        self._check(start, size)
        if size == 0:
            return False
        return bool(self.necessary[size // 2, start])


def build_subproblem_table(P: ConvexPointSet) -> SubproblemTable:
    """Fill the table for all (start, even size) in O(n^2) time and space.

    For an arc of size m starting at s, with d2 the squared distances:

        pair  = max(S(s+1, m-2), d2(s, s+m-1))
        left  = max(S(s+2, m-2), d2(s, s+1))
        right = max(S(s,   m-2), d2(s+m-2, s+m-1))
        S(s, m) = min(pair, left, right)

    Each size is computed for all starts at once; ties pick the earliest
    move in (pair, left, right) order. The pair move is flagged necessary
    only when it wins by more than a relative 1e-9.

    The coordinates and edge lengths are kept twice over (length 2n) and the
    previous row with its first two entries repeated (length n+2), so every
    cyclic shift above is a slice view. Each row is computed with ``out=``
    ufuncs into two reused float64 temporaries and the row's own slots of
    ``S``, ``choice`` and ``necessary``, so the loop allocates nothing. The
    float operations and their order are those of the recurrence as written
    (dx*dx + dy*dy, min(pair, min(left, right)), other * (1 - 1e-9)), so all
    three tables equal a direct transcription bit for bit, ties included.
    """
    n = P.n
    half = n // 2
    S = np.zeros((half + 1, n))
    choice = np.zeros((half + 1, n), dtype=np.uint8)
    necessary = np.zeros((half + 1, n), dtype=bool)

    xs2 = np.concatenate((P.xs, P.xs))
    ys2 = np.concatenate((P.ys, P.ys))
    xs, ys = xs2[:n], ys2[:n]
    a = np.empty(n)
    b = np.empty(n)
    prev = np.empty(n + 2)  # S row k-1, then its entries 0 and 1 again

    def sq_dist_to(off: int, out: np.ndarray) -> np.ndarray:
        """d2(s, s+off) for every s into ``out``; clobbers ``b``."""
        np.subtract(xs2[off:off + n], xs, out=out)
        np.subtract(ys2[off:off + n], ys, out=b)
        np.multiply(out, out, out=out)
        np.multiply(b, b, out=b)
        return np.add(out, b, out=out)

    edge2_twice = np.empty(2 * n)
    edge2 = sq_dist_to(1, edge2_twice[:n])
    edge2_twice[n:] = edge2
    S[1] = edge2
    # size 2: all three moves coincide, so the pair is never forced

    keep = 1.0 - _NECESSARY_REL_TOL
    for k in range(2, half + 1):
        m = 2 * k
        prev[:n] = S[k - 1]
        prev[n:] = prev[:2]
        row, tag, nec = S[k], choice[k], necessary[k]
        pair = np.maximum(prev[1:n + 1], sq_dist_to(m - 1, a), out=a)
        left = np.maximum(prev[2:], edge2, out=b)
        right = np.maximum(prev[:n], edge2_twice[m - 2:m - 2 + n], out=row)
        np.less(right, left, out=tag)                   # 1 iff right beats left
        other = np.minimum(left, right, out=row)
        np.less(other, pair, out=nec)                   # pair loses
        np.add(tag, 1, out=tag)
        np.multiply(tag, nec, out=tag)                  # 0 pair, 1 left, 2 right
        np.multiply(other, keep, out=b)
        np.less(pair, b, out=nec)
        np.minimum(pair, other, out=row)

    return SubproblemTable(n=n, S=S, choice=choice, necessary=necessary)


def one_cascade_optimum(T: SubproblemTable) -> tuple[float, int]:
    """Best full-circle entry: (squared value, achieving start).

    Ties go to the smallest start.
    """
    row = T.S[T.n // 2]
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
        c = T.choice[m // 2, s]
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
