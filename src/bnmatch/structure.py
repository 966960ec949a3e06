"""Matching validation and structural analysis.

A non-crossing matching's diagonals cut the polygon into faces; faces
bounded by exactly two diagonals chain those diagonals together, and the
maximal chains ("cascades") plus the count of 3-bounded faces describe
the matching's shape. Chords of a convex polygon are non-crossing exactly
when their index intervals (min, max) are laminar. An edge crosses
nothing: (t, t+1) has no end strictly inside it, and (0, n-1) contains
every other end. So one stack sweep over the diagonals alone checks
crossing-freeness and builds their nesting forest, and the cascades and
3-bounded count follow from the forest's parent links. The pass that
builds the diagonals' sort keys skips the edges, so no separate list of
edges or diagonals is made.

The type pass runs only in ``verify_matching``, on pairs from outside;
``solve`` and ``bnmatch verify`` hand the ints they made (the walk's intp
array, the parse's ints) to ``_verify``, the checks every path shares.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import BadIndexError, InvalidMatchingError, check_bottleneck
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


@dataclass(frozen=True)
class MatchingReport:
    perfect: bool
    non_crossing: bool
    value: float
    longest_pair: tuple[int, int] | None
    # the cascades of a perfect non-crossing matching, else None
    decomposition: CascadeDecomposition | None

    def failed_check(self, claim: float) -> str | None:
        """The first check a claimed bottleneck fails, else None: "perfect",
        "nonCrossing", check_bottleneck on ``value``, against which no claim
        can be checked, then "value" unless ``claim`` equals it bit for bit."""
        if not self.perfect:
            return "perfect"
        if not self.non_crossing:
            return "nonCrossing"
        check_bottleneck(self.value)
        return "value" if claim != self.value else None  # also a nan claim


def _nesting(pairs, n: int) -> tuple[list[tuple[int, int]], list[int] | None]:
    """Sort the diagonals among ``pairs`` as intervals (lo, hi) and find
    their nesting forest; edges, adjacent mod n either way round, are
    skipped in the same pass.

    Returns the sorted keys (lo, -hi), in which an interval follows all
    intervals containing it, and each interval's parent: the index of the
    innermost interval containing it, or -1. The parents are None when two
    intervals properly interleave; intervals sharing an end never do.
    """
    adjacent = (1, n - 1)
    keys = sorted([(a, -b) if a < b else (b, -a) for a, b in pairs if (b - a) % n not in adjacent])
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
    output is meaningful. A perfect non-crossing matching also gets its
    cascade decomposition, from the same sweep that checked it. An index
    that is no Python or NumPy integer (a bool, float, str or None), or a
    pair that is not two ends, gets the report of one out of range.
    """
    # each pass runs in C; a pair without a length raises TypeError
    try:
        ends = list(chain.from_iterable(M.pairs))
        typed = M.n == P.n and set(map(len, M.pairs)) <= {2} and all(
            t is int or issubclass(t, np.integer) for t in set(map(type, ends)))
    except TypeError:
        typed = False
    return _verify(P, M.pairs, ends) if typed else _REJECTED


_REJECTED = MatchingReport(False, False, math.nan, None, None)


def _verify(P: ConvexPointSet, pairs, ends) -> MatchingReport:
    """verify_matching past its type pass, on ``pairs`` of two ints each
    and their ends in order: an intp array, or ints that may lie past the
    intp range. An end out of range or a pair of one end twice is rejected."""
    n = P.n
    try:
        ends = np.asarray(ends, np.intp)
    except OverflowError:
        return _REJECTED
    if len(ends) and ends.view(np.uintp).max() >= n:  # a negative end too
        return _REJECTED
    covered = np.zeros(n, dtype=bool)
    covered[ends] = True
    # n/2 pairs over n distinct ends cover every point once, and then no
    # pair joins an end to itself
    perfect = len(pairs) == n // 2 and bool(covered.all())
    if not perfect and (ends[::2] == ends[1::2]).any():
        return _REJECTED
    value, longest_pair = math.nan, None
    if pairs:
        with np.errstate(over="ignore"):  # inf past the float range, as in the fill
            x, y = P.xs[ends], P.ys[ends]
            dx, dy = x[1::2] - x[::2], y[1::2] - y[::2]
            d2 = dx * dx + dy * dy
        k = int(d2.argmax())  # the first longest pair
        value, longest_pair = math.sqrt(d2[k]), tuple(pairs[k])

    keys, parents = _nesting(pairs, n)
    non_crossing = parents is not None
    decomposition = _decompose(keys, parents) if perfect and non_crossing else None
    return MatchingReport(perfect, non_crossing, value, longest_pair, decomposition)


@dataclass(frozen=True)
class CascadeDecomposition:
    cascades: tuple[tuple[tuple[int, int], ...], ...]
    three_bounded_count: int

    @property
    def cascade_count(self) -> int:
        return len(self.cascades)

    @property
    def structure(self) -> str:
        """three-cascade with 3 or more cascades, else one-cascade. With any
        diagonal the count is 1 + the sum of (degree - 1) over the faces of
        degree >= 3 in the tree of faces and diagonals, so it is never 2."""
        return "three-cascade" if self.cascade_count >= 3 else "one-cascade"


def cascade_decomposition(P: ConvexPointSet, M: Matching) -> CascadeDecomposition:
    """Cut the polygon along the matching's diagonals and group them.

    Cutting along the d diagonals (edges are not cut) yields d+1 faces:
    one per diagonal (the face just inside it, bounded by the diagonal and
    its immediate children in the nesting forest) plus the outer face
    bounded by the forest roots. Diagonals joined through 2-bounded faces
    form one cascade; an all-edges matching has no cascades.

    Raises InvalidMatchingError unless M is perfect and non-crossing.
    """
    decomposition = verify_matching(P, M).decomposition
    if decomposition is None:
        raise InvalidMatchingError("need a perfect non-crossing matching")
    return decomposition


def _decompose(keys: list[tuple[int, int]], parents: list[int]) -> CascadeDecomposition:
    """cascade_decomposition from the diagonals' sorted keys and nesting
    forest, as _nesting returns them.

    The diagonals' ends must be distinct, so that the sweep's order is
    (min, max) order.
    """
    sizes = [1] * len(keys) + [0]  # diagonals per face; sizes[-1]: outer
    for p in parents:
        sizes[p] += 1
    cascade_of: list[list[tuple[int, int]]] = []
    cascades = []
    for t, (p, (lo, neg_hi)) in enumerate(zip(parents, keys)):
        first = p if p >= 0 else 0  # a face's first diagonal; root 0 is first
        if sizes[p] == 2 and t != first:  # a 2-bounded face joins the two
            cascade_of.append(cascade_of[first])
        else:
            cascade_of.append([])
            cascades.append(cascade_of[t])
        cascade_of[t].append((lo, -neg_hi))
    return CascadeDecomposition(tuple(map(tuple, cascades)), sizes.count(3))
