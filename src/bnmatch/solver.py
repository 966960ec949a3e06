"""Quadratic bottleneck-matching search.

After building the subproblem table, the optimum is the better of two
branches: the best full-circle table entry (matchings whose diagonals form
at most one chain), and a search over 3-chain matchings assembled from
three table entries. The 3-chain search only fixes pairs (i, j) that are
*candidates* - pairs forced into every optimum of their own subproblem and
spanning a turning angle of at most 2*pi/3; at most ~2n of them exist, and
the table lists them with their values, so a candidate costs O(1) beyond
the fill and one sort. Each of the s candidates that survive the prunes
costs one arc_values call: two replays of about n*sqrt(n/2) entry updates
each at the table's stride isqrt(2n), with O(n) scratch (about 0.6 ms a
call at n = 8192 against a 19 ms fill, on a 2-CPU AVX-512 host). So the
search takes O(n^2 + s*n^1.5) plus a sort of the c candidates,
Theta(n^2.5) if s = Theta(n); every generator gives s <= 3.

The table is freed before the matching is built: the walks return their
pairs as intp arrays, 16 bytes a pair, and ``solve`` reads the candidate
count, drops the table, and only then makes the matching's n/2 tuples and
verifies them. So its traced peak is the fill's, the kept value rows plus
about 33.1 bytes a point at n = 8192.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dp_core import SubproblemTable, build_subproblem_table, one_cascade_optimum, reconstruct
from .errors import InvalidMatchingError, check_bottleneck
from .geometry import ConvexPointSet
from .structure import Matching, verify_matching


@dataclass(frozen=True)
class CandidateDiagonal:
    """A candidate diagonal; ``tau`` is its arc's turn, from edge i -> i+1
    to edge j-1 -> j, by one ``math.atan2``."""

    i: int
    j: int
    tau: float


@dataclass(frozen=True)
class SolveReport:
    value: float
    matching: Matching
    candidate_count: int
    cascades: int
    structure: str


def _sorted_candidates(T: SubproblemTable) -> tuple[np.ndarray, ...]:
    """The i, j and k of the arcs (i, 2k) that T lists, sorted by (i, j),
    and the order that sorts T's lists so."""
    if not len(T.necessary):  # every circle and valtr table: no sort to make
        none = np.empty(0, dtype=np.intp)
        return none, none, none, none
    k, i = T.necessary.T
    j = (i + 2 * k - 1) % T.n
    order = np.lexsort((j, i))
    return i[order], j[order], k[order], order


def enumerate_candidates(
    P: ConvexPointSet, T: SubproblemTable, *, annotate: bool = False
) -> list[CandidateDiagonal]:
    """All candidate diagonals of P's table T, sorted by (i, j).

    A pair qualifies if it is a diagonal (non-adjacent both ways, so its
    arc size is in [4, n-2]), its subproblem flags it necessary, and its
    arc passes the candidate rule of ``dp_core.candidate_reach``: the arcs
    T lists. ``annotate`` has no effect; it is accepted because
    perfbench's stage replay still passes it.
    """
    i, j, _, _ = _sorted_candidates(T)
    xs, ys = P.xs, P.ys
    with np.errstate(over="ignore", invalid="ignore"):  # silent, as in float math
        ux, uy = xs[(i + 1) % P.n] - xs[i], ys[(i + 1) % P.n] - ys[i]
        vx, vy = xs[j] - xs[j - 1], ys[j] - ys[j - 1]
        tau = map(math.atan2, (ux * vy - uy * vx).tolist(), (ux * vx + uy * vy).tolist())
    return list(map(CandidateDiagonal, i.tolist(), j.tolist(), tau))


def solve(P: ConvexPointSet) -> SolveReport:
    """Find a bottleneck non-crossing perfect matching in O(n^2 + s*n^1.5),
    plus a sort of the c candidates, s of which survive the prunes.

    Ties between the two branches go to the one-cascade branch; within the
    3-chain search the lexicographically smallest achieving (i, j, k) wins.
    The returned matching is re-verified (perfect, non-crossing, longest
    segment equal to the value), after the table is freed, before
    reporting. Raises
    NonFiniteValueError when the optimum's squared length overflows float64,
    UnderflowValueError when it underflows to 0.
    """
    n = P.n
    T = build_subproblem_table(P)
    best_one, best_start = one_cascade_optimum(T)

    # the candidates (i, j) in order, the points on each arc <i, j>, and its value
    i, j, k, order = _sorted_candidates(T)
    candidates = zip(i.tolist(), j.tolist(), (2 * k).tolist(), T.bases[order].tolist())
    best_three = math.inf
    argmin: tuple[int, int, int, int] | None = None  # (i, j, k, t)
    for i, j, m1, base in candidates:
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
        pairs = np.concatenate((
            reconstruct(T, i, m1),
            reconstruct(T, (j + 1) % n, t),
            reconstruct(T, (k + 1) % n, n - m1 - t),
        ))
        value_sq = best_three
    else:
        pairs = reconstruct(T, best_start, n)
        value_sq = best_one
    check_bottleneck(value_sq)
    candidate_count = len(T.necessary)
    del T  # the value rows, before the matching's Python tuples are built

    # through a list: a tuple built from an iterator of unknown length grows
    # by repeated reallocs, which left small-n runs about 2% more resident memory
    matching = Matching(n, tuple(list(zip(*pairs.T.tolist()))))
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
        candidate_count=candidate_count,
        cascades=report.decomposition.cascade_count,
        structure=report.decomposition.structure,
    )
