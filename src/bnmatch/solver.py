"""Quadratic bottleneck-matching search.

After building the subproblem table, the optimum is the better of two
branches: the best full-circle table entry (matchings whose diagonals form
at most one chain), and a search over 3-chain matchings assembled from
three table entries. The 3-chain search only fixes pairs (i, j) that are
*candidates* - pairs forced into every optimum of their own subproblem and
spanning a turning angle of at most 2*pi/3; at most ~2n of them exist, and
the table lists them as (i, j) in the search's order, with their values,
so a candidate costs O(1) beyond the fill and its one sort. The search is
one kernel call (``bn_search``): it runs the prunes, and each of the s
candidates that survive them costs two replays of about n*sqrt(n/2)
entry updates each at the table's stride isqrt(2n), with O(n) scratch.
So ``solve`` takes O(n^2 + c + s*n^1.5), the sort of the c candidates
within the n^2, and Theta(n^2.5) if s = Theta(n); every generator gives
s <= 3.

The table is freed before the matching is built: the walks return their
pairs as intp arrays, 16 bytes a pair, and ``solve`` reads the candidate
count, drops the table, and only then makes the matching's n/2 tuples and
verifies them. So its traced peak is the fill's (``build_subproblem_table``).
"""
from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass

import numpy as np

from . import dp_core
from .dp_core import SubproblemTable, build_subproblem_table, one_cascade_optimum, reconstruct
from .errors import InvalidMatchingError
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


def enumerate_candidates(
    P: ConvexPointSet, T: SubproblemTable, *, annotate: bool = False
) -> list[CandidateDiagonal]:
    """All candidate diagonals of P's table T, in its order, by (i, j).

    A pair qualifies if it is a diagonal (non-adjacent both ways, so its
    arc size is in [4, n-2]), its subproblem flags it necessary, and its
    arc passes the candidate rule of ``dp_core.candidate_reach``: the arcs
    T lists. ``annotate`` has no effect; it is accepted because
    perfbench's stage replay still passes it.
    """
    i, j = T.necessary.T
    xs, ys = P.xs, P.ys
    with np.errstate(over="ignore", invalid="ignore"):  # silent, as in float math
        ux, uy = xs[(i + 1) % P.n] - xs[i], ys[(i + 1) % P.n] - ys[i]
        vx, vy = xs[j] - xs[j - 1], ys[j] - ys[j - 1]
        tau = map(math.atan2, (ux * vy - uy * vx).tolist(), (ux * vx + uy * vy).tolist())
    return list(map(CandidateDiagonal, i.tolist(), j.tolist(), tau))


def _three_chain(
    T: SubproblemTable, best_one: float
) -> tuple[float, tuple[int, int, int, int] | None]:
    """The 3-chain search, one kernel call: the best squared value of the
    candidates that survive the prunes against ``best_one`` and the best
    so far, and its (i, j, k, t), or (inf, None) where none gives less.

    Inputs go as bytes and the scratch and output as ctypes arrays, which
    ctypes passes by their own buffers: no ``ctypes.data`` read. The
    scratch, one replay block and its two rows, is freed on return.
    """
    if not len(T.necessary):
        return math.inf, None
    scratch, out = (ctypes.c_double * ((T.stride + 1) ** 2 + T.n))(), (ctypes.c_ssize_t * 4)()
    value = dp_core._kernel().bn_search(*T._args, T.necessary.tobytes(), T.bases.tobytes(),
                                        len(T.bases), best_one, scratch, out)
    return value, tuple(out) if value < math.inf else None


def solve(P: ConvexPointSet) -> SolveReport:
    """Find a bottleneck non-crossing perfect matching in O(n^2 + c + s*n^1.5)
    for c candidates, s of which survive the prunes.

    Ties between the two branches go to the one-cascade branch; within the
    3-chain search the lexicographically smallest achieving (i, j, k) wins.
    The matching, built after the table is freed, must pass the checks of
    ``bnmatch verify`` (InvalidMatchingError names a failed one). Raises
    NonFiniteValueError when the optimum's squared length overflows
    float64, UnderflowValueError when it underflows to 0.
    """
    n = P.n
    T = build_subproblem_table(P)
    best_one, best_start = one_cascade_optimum(T)
    best_three, argmin = _three_chain(T, best_one)
    if best_three < best_one:
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
    candidate_count = len(T.necessary)
    del T  # the value rows, before the matching's Python tuples are built

    # through a list: a tuple built from an iterator of unknown length grows
    # by repeated reallocs, which left small-n runs about 2% more resident memory
    matching = Matching(n, tuple(list(zip(*pairs.T.tolist()))))
    report = verify_matching(P, matching)
    value = math.sqrt(value_sq)
    failed = report.failed_check(value)
    if failed:
        raise InvalidMatchingError(f"solver emitted a matching that fails {failed}")
    return SolveReport(
        value=value,
        matching=matching,
        candidate_count=candidate_count,
        cascades=report.decomposition.cascade_count,
        structure=report.decomposition.structure,
    )
