"""Matching validation and structural analysis.

A non-crossing matching's diagonals cut the polygon into regions; regions
touching exactly two diagonals chain those diagonals together, and the
maximal chains ("cascades") plus the count of 3-bounded regions describe
the matching's shape. Because non-crossing chords of a convex polygon are
a laminar family of index intervals, the whole decomposition falls out of
a nesting forest built with one stack sweep.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circular import segments_cross
from .errors import InvalidMatchingError
from .geometry import ConvexPointSet


@dataclass(frozen=True)
class Matching:
    """n/2 index pairs over n points; validity is checked separately."""

    n: int
    pairs: tuple[tuple[int, int], ...]

    @staticmethod
    def of(n: int, pairs) -> "Matching":
        return Matching(n, tuple((int(a), int(b)) for a, b in pairs))


def canonical_pairs(pairs) -> tuple[tuple[int, int], ...]:
    """Order-independent form: sorted (min, max) pairs, for comparisons."""
    return tuple(sorted((min(a, b), max(a, b)) for a, b in pairs))


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


def _crossing_free(n: int, pairs, perfect: bool) -> bool:
    if perfect:
        # balanced-parentheses scan over the chords as linear intervals
        close_of = {min(a, b): max(a, b) for a, b in pairs}
        stack: list[int] = []  # closing ends of the open chords
        for v in range(n):
            if stack and stack[-1] == v:
                stack.pop()
            elif v in close_of:
                stack.append(close_of[v])
            else:
                return False  # v closes a chord that is not innermost
        return not stack
    for idx in range(len(pairs)):
        a, b = pairs[idx]
        for jdx in range(idx + 1, len(pairs)):
            c, d = pairs[jdx]
            if a in (c, d) or b in (c, d):
                continue  # shared endpoint: not a crossing (caught by perfect)
            if segments_cross(a, b, c, d, n):
                return False
    return True


def verify_matching(P: ConvexPointSet, M: Matching) -> MatchingReport:
    """Check coverage and crossing-freeness; never raises on bad input.

    The reported value is sqrt of the max squared pair length, computed by
    the same arithmetic the solver uses, so exact equality against solver
    output is meaningful.
    """
    n = P.n
    indices_ok = all(
        0 <= a < n and 0 <= b < n and a != b for a, b in M.pairs
    ) and M.n == n
    if not indices_ok:
        return MatchingReport(False, False, math.nan, None)

    counts = [0] * n
    for a, b in M.pairs:
        counts[a] += 1
        counts[b] += 1
    perfect = len(M.pairs) == n // 2 and all(c == 1 for c in counts)
    non_crossing = _crossing_free(n, M.pairs, perfect)

    if not M.pairs:
        return MatchingReport(perfect, non_crossing, math.nan, None)
    a, b = np.array(M.pairs).T
    dx = P.xs[b] - P.xs[a]
    dy = P.ys[b] - P.ys[a]
    d2 = dx * dx + dy * dy
    k = int(np.argmax(d2))  # the first longest pair
    return MatchingReport(perfect, non_crossing, math.sqrt(d2[k]), tuple(M.pairs[k]))


@dataclass(frozen=True)
class Region:
    """One face of the polygon cut along matching diagonals."""

    bounding_diagonals: tuple[tuple[int, int], ...]
    bounding_edge_count: int


@dataclass(frozen=True)
class CascadeDecomposition:
    regions: tuple[Region, ...]
    cascades: tuple[tuple[tuple[int, int], ...], ...]
    three_bounded_count: int

    @property
    def cascade_count(self) -> int:
        return len(self.cascades)


def cascade_decomposition(P: ConvexPointSet, M: Matching) -> CascadeDecomposition:
    """Cut the polygon along the matching's diagonals and group them.

    Cutting along the d diagonals (edges are not cut) yields d+1 regions:
    one per diagonal (the face just inside it, bounded by the diagonal and
    its immediate children in the nesting forest) plus the outer face
    bounded by the forest roots. Diagonals joined through 2-bounded regions
    form one cascade; an all-edges matching has no cascades.

    Raises InvalidMatchingError unless M is perfect and non-crossing.
    """
    rep = verify_matching(P, M)
    if not (rep.perfect and rep.non_crossing):
        raise InvalidMatchingError("need a perfect non-crossing matching")
    return _decompose_verified(P, M)


def _decompose_verified(P: ConvexPointSet, M: Matching) -> CascadeDecomposition:
    """cascade_decomposition for an M the caller has already verified."""
    n = P.n
    diagonals = sorted(
        (min(a, b), max(a, b)) for a, b in M.pairs if not is_edge(a, b, n)
    )
    edges = [(min(a, b), max(a, b)) for a, b in M.pairs if is_edge(a, b, n)]

    # nesting forest: intervals sorted by (lo, -hi); the stack holds ancestors
    order = sorted(diagonals, key=lambda iv: (iv[0], -iv[1]))
    children: dict[tuple[int, int], list[tuple[int, int]]] = {d: [] for d in diagonals}
    roots: list[tuple[int, int]] = []
    stack: list[tuple[int, int]] = []
    for iv in order:
        while stack and not (stack[-1][0] <= iv[0] and iv[1] <= stack[-1][1]):
            stack.pop()
        if stack:
            children[stack[-1]].append(iv)
        else:
            roots.append(iv)
        stack.append(iv)

    # assign each matching edge to the innermost enclosing diagonal (or outer)
    edge_owner: dict[tuple[int, int], tuple[int, int] | None] = {}
    starts: dict[int, list[tuple[int, int]]] = {}
    for iv in order:
        starts.setdefault(iv[0], []).append(iv)
    sweep: list[tuple[int, int]] = []
    gap_owner: list[tuple[int, int] | None] = [None] * n
    for g in range(n):
        while sweep and sweep[-1][1] == g:
            sweep.pop()
        for iv in starts.get(g, ()):
            sweep.append(iv)
        gap_owner[g] = sweep[-1] if sweep else None
    for e in edges:
        lo, hi = e
        if (hi - lo) % n == 1:
            edge_owner[e] = gap_owner[lo]
        else:
            edge_owner[e] = None  # the wraparound edge (n-1, 0) is outer

    edge_count: dict[tuple[int, int] | None, int] = {}
    for owner in edge_owner.values():
        edge_count[owner] = edge_count.get(owner, 0) + 1

    regions = []
    links: list[tuple[tuple[int, int], tuple[int, int]]] = []
    three = 0
    for d in diagonals:
        bound = (d,) + tuple(children[d])
        regions.append(Region(bound, edge_count.get(d, 0)))
        if len(bound) == 2:
            links.append((d, children[d][0]))
        elif len(bound) == 3:
            three += 1
    regions.append(Region(tuple(roots), edge_count.get(None, 0)))
    if len(roots) == 2:
        links.append((roots[0], roots[1]))
    elif len(roots) == 3:
        three += 1

    # cascades: connected components under the 2-bounded-region links
    comp = {d: d for d in diagonals}

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    for a, b in links:
        comp[find(a)] = find(b)
    groups: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for d in diagonals:
        groups.setdefault(find(d), []).append(d)
    cascades = tuple(
        tuple(sorted(g)) for g in sorted(groups.values(), key=lambda g: min(g))
    )
    return CascadeDecomposition(tuple(regions), cascades, three)
