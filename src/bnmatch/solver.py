"""Quadratic bottleneck-matching search.

After building the subproblem table, the optimum is the better of two
branches: the best full-circle table entry (matchings whose diagonals form
at most one chain), and a search over 3-chain matchings assembled from
three table entries. The 3-chain search only fixes pairs (i, j) that are
*candidates* - pairs forced into every optimum of their own subproblem and
spanning a turning angle of at most 2*pi/3; at most ~2n of them exist.
Each candidate costs O(n): its turning angle, gathered at its flagged
start, and one replayed table value (about n/2 entry updates). Each of the
s candidates that survive the prunes costs one arc_values call on top
(about n*sqrt(n/2)), so with c candidates the search takes
O(n^2 + c*n + s*n^1.5), Theta(n^2.5) if s = Theta(n); every generator
gives s <= 3.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dp_core import SubproblemTable, build_subproblem_table, one_cascade_optimum, reconstruct
from .errors import InvalidMatchingError
from .geometry import (
    ANGLE_SLACK,
    CANDIDATE_ANGLE,
    ConvexPointSet,
    PolarityRegion,
    arc_turns,
    classify_polarity_region,
)
from .structure import Matching, verify_matching


class Polarity(Enum):
    NEGATIVE = "negative"   # interior hugs endpoint i (the pole)
    POSITIVE = "positive"   # interior hugs endpoint j
    UNKNOWN = "unknown"     # not annotated, or unexpectedly mixed


@dataclass(frozen=True)
class CandidateDiagonal:
    """A necessary diagonal with turning angle <= 2*pi/3 (+ slack)."""

    i: int
    j: int
    tau: float
    polarity: Polarity = Polarity.UNKNOWN

    @property
    def pole(self) -> int | None:
        if self.polarity is Polarity.NEGATIVE:
            return self.i
        if self.polarity is Polarity.POSITIVE:
            return self.j
        return None


@dataclass(frozen=True)
class SolveReport:
    value: float
    matching: Matching
    candidate_count: int
    cascades: int
    structure: str


def _annotate_polarity(P: ConvexPointSet, i: int, j: int) -> Polarity:
    """Uniform classification of the arc interior, or UNKNOWN if mixed.

    Interior points of <i, j> lie right of the directed line vi -> vj on a
    ccw polygon, so they are expected to land uniformly NEGATIVE or
    uniformly POSITIVE; anything else is surfaced as UNKNOWN, not an error.
    """
    n = P.n
    xs, ys = P.xs, P.ys
    vi, vj = (xs[i], ys[i]), (xs[j], ys[j])
    seen: PolarityRegion | None = None
    t = (i + 1) % n
    while t != j:
        r = classify_polarity_region(vi, vj, (xs[t], ys[t]))
        if r not in (PolarityRegion.NEGATIVE, PolarityRegion.POSITIVE):
            return Polarity.UNKNOWN
        if seen is None:
            seen = r
        elif r is not seen:
            return Polarity.UNKNOWN
        t = (t + 1) % n
    if seen is PolarityRegion.NEGATIVE:
        return Polarity.NEGATIVE
    if seen is PolarityRegion.POSITIVE:
        return Polarity.POSITIVE
    return Polarity.UNKNOWN


def enumerate_candidates(
    P: ConvexPointSet,
    T: SubproblemTable | None = None,
    annotate: bool = True,
) -> list[CandidateDiagonal]:
    """All candidate diagonals, sorted by (i, j).

    A pair qualifies if it is a diagonal (non-adjacent both ways, so its
    arc size is in [4, n-2]), its subproblem flags it necessary, and its
    turning angle is at most 2*pi/3 + 1e-9. Polarity annotation is purely
    diagnostic and optional; it never gates the search.
    """
    if T is None:
        T = build_subproblem_table(P)
    n = P.n
    out: list[CandidateDiagonal] = []
    # the table keeps, one bit per start, the flags of the rows k = 2 .. n/2 - 1
    # (the diagonals' arc sizes m = 2k in [4, n-2]) that hold a necessary arc,
    # up to the last row at which some arc turns little enough; tau is
    # computed at the flagged starts only
    for flags, k in zip(T.necessary, T.necessary_rows.tolist()):
        m = 2 * k
        starts = np.flatnonzero(np.unpackbits(flags, count=n))
        tau = arc_turns(P, m, starts)
        ok = tau <= CANDIDATE_ANGLE + ANGLE_SLACK
        for i, t in zip(starts[ok].tolist(), tau[ok].tolist()):
            j = (i + m - 1) % n
            pol = _annotate_polarity(P, i, j) if annotate else Polarity.UNKNOWN
            out.append(CandidateDiagonal(i, j, t, pol))
    out.sort(key=lambda c: (c.i, c.j))
    return out


def solve(P: ConvexPointSet) -> SolveReport:
    """Find a bottleneck non-crossing perfect matching in O(n^2 + c*n + s*n^1.5)
    for c candidates, s of which survive the prunes.

    Ties between the two branches go to the one-cascade branch; within the
    3-chain search the lexicographically smallest achieving (i, j, k) wins.
    The returned matching is re-verified (perfect, non-crossing, longest
    segment equal to the value) before reporting.
    """
    n = P.n
    T = build_subproblem_table(P)
    best_one, best_start = one_cascade_optimum(T)
    candidates = enumerate_candidates(P, T, annotate=False)

    best_three = math.inf
    argmin: tuple[int, int, int, int] | None = None  # (i, j, k, t)
    for cand in candidates:
        i, j = cand.i, cand.j
        m1 = (j - i) % n + 1  # points on the arc <i, j>
        base = T.value(i, m1)
        if base >= best_one or base >= best_three:
            continue  # the max over the split cannot beat the incumbent
        rest = n - m1
        if rest < 4:
            continue
        t_vals = np.arange(2, rest - 1, 2)
        # complements: arcs starting at j+1 and arcs ending at i-1
        from_j, to_i = T.arc_values((j + 1) % n, (i - 1) % n, rest // 2 - 1)
        left = from_j[1:]
        right = to_i[:0:-1]
        vals = np.maximum(np.maximum(left, right), base)
        pos = int(np.argmin(vals))
        v = float(vals[pos])
        if v < best_three:
            ties = np.nonzero(vals == vals[pos])[0]
            ks = (j + t_vals[ties]) % n
            sel = int(ties[int(np.argmin(ks))])
            best_three = v
            argmin = (i, j, int((j + t_vals[sel]) % n), int(t_vals[sel]))

    if argmin is not None and best_three < best_one:
        i, j, k, t = argmin
        m1 = (j - i) % n + 1
        pairs = (
            reconstruct(T, i, m1)
            + reconstruct(T, (j + 1) % n, t)
            + reconstruct(T, (k + 1) % n, n - m1 - t)
        )
        value_sq = best_three
    else:
        pairs = reconstruct(T, best_start, n)
        value_sq = best_one

    matching = Matching(n, tuple(pairs))
    report = verify_matching(P, matching)
    value = math.sqrt(value_sq)
    if not (report.perfect and report.non_crossing):
        raise InvalidMatchingError("solver emitted an invalid matching")
    if report.value != value:
        raise InvalidMatchingError(
            f"reconstructed bottleneck {report.value!r} != table value {value!r}"
        )
    return SolveReport(
        value=value,
        matching=matching,
        candidate_count=len(candidates),
        cascades=report.decomposition.cascade_count,
        structure=report.decomposition.structure,
    )
