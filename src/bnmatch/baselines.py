"""Ground-truth engines: a cubic interval DP and exhaustive enumeration.

Both are deliberately independent of the quadratic solver's machinery: the
cubic DP uses plain linear (non-wraparound) indexing in pure Python loops
(so its measured runtime scales honestly), and the oracle enumerates every
non-crossing perfect matching outright.
"""
from __future__ import annotations

import math
from functools import lru_cache

from .errors import OddCountError, TooLargeError
from .geometry import ConvexPointSet
from .structure import Matching

ORACLE_MAX_N = 20


def _sq_dist_matrix(P: ConvexPointSet) -> list[list[float]]:
    xs = P.xs.tolist()
    ys = P.ys.tolist()
    n = P.n
    out = []
    for i in range(n):
        xi, yi = xs[i], ys[i]
        row = []
        for j in range(n):
            dx = xs[j] - xi
            dy = ys[j] - yi
            row.append(dx * dx + dy * dy)
        out.append(row)
    return out


def _fill_cubic(P: ConvexPointSet) -> tuple[list[list[float]], list[list[float]]]:
    n = P.n
    D = _sq_dist_matrix(P)
    # one padding row so b[k+1][j] reads 0 when k == j; unset cells stay 0
    b = [[0.0] * n for _ in range(n + 1)]
    for span in range(1, n, 2):
        for i in range(n - span):
            j = i + span
            Di = D[i]
            bi1 = b[i + 1]
            best = math.inf
            for k in range(i + 1, j + 1, 2):
                v = Di[k]
                left = bi1[k - 1]
                if left > v:
                    v = left
                right = b[k + 1][j]
                if right > v:
                    v = right
                if v < best:
                    best = v
            b[i][j] = best
    return D, b


def cubic_solve(P: ConvexPointSet) -> tuple[float, Matching]:
    """O(n^3) dynamic program over linear intervals.

    Every non-crossing matching splits at point 0, so the answer is the
    entry for the whole range 0..n-1; no circular indexing is needed.
    For each interval, point i is matched to some k of opposite parity,
    splitting the rest into the two sub-intervals beside (i, k); the
    matching is rebuilt by retracing the smallest achieving k per split.
    """
    n = P.n
    D, b = _fill_cubic(P)

    pairs: list[tuple[int, int]] = []

    def retrace(i: int, j: int) -> None:
        while i < j:
            target = b[i][j]
            Di = D[i]
            bi1 = b[i + 1]
            for k in range(i + 1, j + 1, 2):
                v = max(Di[k], bi1[k - 1], b[k + 1][j])
                if v == target:
                    pairs.append((i, k))
                    retrace(i + 1, k - 1)
                    i = k + 1
                    break
            else:  # pragma: no cover - table self-inconsistency
                raise AssertionError("retrace found no achieving split")

    retrace(0, n - 1)
    return math.sqrt(b[0][n - 1]), Matching(n, tuple(pairs))


@lru_cache(maxsize=None)
def _matchings_of_size(m: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All non-crossing perfect matchings of points 0..m-1 (m even)."""
    if m == 0:
        return ((),)
    out = []
    for k in range(1, m, 2):
        inner = _matchings_of_size(k - 1)
        outer = _matchings_of_size(m - k - 1)
        for left in inner:
            left_s = tuple((a + 1, b + 1) for a, b in left)
            head = ((0, k),) + left_s
            for right in outer:
                out.append(head + tuple((a + k + 1, b + k + 1) for a, b in right))
    return tuple(out)


def _guard(n: int) -> None:
    if n % 2 != 0:
        raise OddCountError(f"{n}")
    if n > ORACLE_MAX_N:
        raise TooLargeError(f"oracle enumeration capped at n={ORACLE_MAX_N}, got {n}")


def oracle_solve(P: ConvexPointSet) -> tuple[float, list[Matching]]:
    """Exhaustive minimum plus every matching achieving it: those whose
    float squared bottleneck equals the minimum, in enumeration order.
    """
    n = P.n
    _guard(n)
    D = _sq_dist_matrix(P)
    matchings = _matchings_of_size(n)
    scores = []
    for m in matchings:
        mx = 0.0
        for a, b in m:
            d = D[a][b]
            if d > mx:
                mx = d
        scores.append(mx)
    best = min(scores)
    return math.sqrt(best), [Matching(n, m) for m, mx in zip(matchings, scores) if mx == best]
