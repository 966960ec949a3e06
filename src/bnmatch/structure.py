"""Matching validation and structural analysis.

A non-crossing matching's diagonals cut the polygon into faces; faces
bounded by exactly two diagonals chain those diagonals together, and the
maximal chains ("cascades") plus the count of 3-bounded faces describe
the matching's shape. Chords of a convex polygon are non-crossing exactly
when their index intervals (min, max) are laminar, so one stack sweep
both checks crossing-freeness and builds the nesting forest; the faces,
cascades and 3-bounded count follow from the forest's parent links.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BadIndexError, InvalidMatchingError
from .geometry import ConvexPointSet


def _index(v) -> int:
    """A point index from a Python or NumPy integer (no bool) or integral float."""
    if type(v) is int:
        return v
    if isinstance(v, np.integer) or isinstance(v, (float, np.floating)) and v.is_integer():
        return int(v)
    raise BadIndexError(f"not an integer: {v!r}")


@dataclass(frozen=True)
class Matching:
    """n/2 index pairs over n points; validity is checked separately."""

    n: int
    pairs: tuple[tuple[int, int], ...]

    @staticmethod
    def of(n: int, pairs) -> "Matching":
        """Raises BadIndexError for an index that is not an integer."""
        return Matching(n, tuple((_index(a), _index(b)) for a, b in pairs))


def is_edge(a: int, b: int, n: int) -> bool:
    return (b - a) % n == 1 or (a - b) % n == 1


def classify_pairs(M: Matching) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Split pairs into (edges, diagonals): adjacent mod n vs the rest."""
    edges, diagonals = [], []
    for a, b in M.pairs:
        (edges if is_edge(a, b, M.n) else diagonals).append((a, b))
    return edges, diagonals


@dataclass(frozen=True)
class MatchingReport:
    perfect: bool
    non_crossing: bool
    value: float
    longest_pair: tuple[int, int] | None


def _nesting(pairs) -> tuple[list[tuple[int, int]], list[int] | None]:
    """Sort chords as intervals (lo, hi) and find their nesting forest.

    Returns the sorted keys (lo, -hi), in which an interval follows all
    intervals containing it, and each interval's parent: the index of the
    innermost interval containing it, or -1. The parents are None when two
    intervals properly interleave; intervals sharing an end never do.
    """
    keys = sorted([(a, -b) if a < b else (b, -a) for a, b in pairs])
    parents = [-1] * len(keys)
    stack: list[tuple[int, int]] = []  # (hi, index) of open intervals, innermost last
    for t, (lo, neg_hi) in enumerate(keys):
        while stack and stack[-1][0] <= lo:
            stack.pop()
        if stack:
            if -neg_hi > stack[-1][0]:
                return keys, None
            parents[t] = stack[-1][1]
        stack.append((-neg_hi, t))
    return keys, parents


def verify_matching(P: ConvexPointSet, M: Matching) -> MatchingReport:
    """Check coverage and crossing-freeness; never raises on bad input.

    The reported value is sqrt of the max squared pair length, computed by
    the same arithmetic the solver uses, so exact equality against solver
    output is meaningful.
    """
    n = P.n
    indices_ok = M.n == n and all(  # a bool, float or str index is out of range
        (type(a) is int or isinstance(a, np.integer))
        and (type(b) is int or isinstance(b, np.integer))
        and 0 <= a < n and 0 <= b < n and a != b for a, b in M.pairs
    )
    if not indices_ok:
        return MatchingReport(False, False, math.nan, None)

    # n/2 pairs over n distinct ends cover every point once
    perfect = len(M.pairs) == n // 2 and len({v for pair in M.pairs for v in pair}) == n
    non_crossing = _nesting(M.pairs)[1] is not None

    if not M.pairs:
        return MatchingReport(perfect, non_crossing, math.nan, None)
    a, b = np.array(M.pairs).T
    dx = P.xs[b] - P.xs[a]
    dy = P.ys[b] - P.ys[a]
    d2 = dx * dx + dy * dy
    k = int(np.argmax(d2))  # the first longest pair
    return MatchingReport(perfect, non_crossing, math.sqrt(d2[k]), tuple(M.pairs[k]))


@dataclass(frozen=True)
class CascadeDecomposition:
    cascades: tuple[tuple[tuple[int, int], ...], ...]
    three_bounded_count: int
    # the diagonals in (min, max) order and their parents in the nesting forest
    _diagonals: tuple[tuple[int, int], ...]
    _parents: tuple[int, ...]

    @property
    def cascade_count(self) -> int:
        return len(self.cascades)

    @property
    def structure(self) -> str:
        """three-cascade with 3 or more cascades, else one-cascade. With any
        diagonal the count is 1 + the sum of (degree - 1) over the faces of
        degree >= 3 in the tree of faces and diagonals, so it is never 2."""
        return "three-cascade" if self.cascade_count >= 3 else "one-cascade"

    @property
    def regions(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Each face's bounding diagonals: the face just inside each
        diagonal, in (min, max) order of the diagonals, then the outer face."""
        faces = [[d] for d in self._diagonals] + [[]]
        for d, p in zip(self._diagonals, self._parents):
            faces[p].append(d)
        return tuple(map(tuple, faces))


def cascade_decomposition(P: ConvexPointSet, M: Matching) -> CascadeDecomposition:
    """Cut the polygon along the matching's diagonals and group them.

    Cutting along the d diagonals (edges are not cut) yields d+1 faces:
    one per diagonal (the face just inside it, bounded by the diagonal and
    its immediate children in the nesting forest) plus the outer face
    bounded by the forest roots. Diagonals joined through 2-bounded faces
    form one cascade; an all-edges matching has no cascades.

    Raises InvalidMatchingError unless M is perfect and non-crossing.
    """
    rep = verify_matching(P, M)
    if not (rep.perfect and rep.non_crossing):
        raise InvalidMatchingError("need a perfect non-crossing matching")
    return _decompose_verified(M)


def _decompose_verified(M: Matching) -> CascadeDecomposition:
    """cascade_decomposition for an M the caller has already verified.

    M's ends are distinct, so the sweep's order is (min, max) order.
    """
    keys, parents = _nesting(classify_pairs(M)[1])
    diagonals = [(lo, -neg_hi) for lo, neg_hi in keys]
    sizes = [1] * len(diagonals) + [0]  # diagonals per face; sizes[-1]: outer
    for p in parents:
        sizes[p] += 1
    cascade_of: list[list[tuple[int, int]]] = []
    cascades = []
    for t, p in enumerate(parents):
        first = p if p >= 0 else 0  # a face's first diagonal; root 0 is first
        if sizes[p] == 2 and t != first:  # a 2-bounded face joins the two
            cascade_of.append(cascade_of[first])
        else:
            cascade_of.append([])
            cascades.append(cascade_of[t])
        cascade_of[t].append(diagonals[t])
    return CascadeDecomposition(
        tuple(map(tuple, cascades)), sizes.count(3), tuple(diagonals), tuple(parents)
    )
