"""Checks the interval table against an independent constrained brute force.

The oracle enumerates every non-crossing matching of an arc and filters by
the structural rules the table is meant to encode (diagonals forming at
most one chain, with the arc's closing segment facing at most one of them),
entirely separately from the DP code.
"""
import contextlib
import copy
import dataclasses
import gc
import hashlib
import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from importlib import resources
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings

from bnmatch import (
    CandidateDiagonal,
    GenSpec,
    build_subproblem_table,
    cubic_solve,
    enumerate_candidates,
    generate,
    gen_circle,
    gen_valtr,
    one_cascade_optimum,
    reconstruct,
    solve,
    validate_convex_ccw,
)
from bnmatch import dp_core, solver
from bnmatch.dp_core import candidate_reach, checkpoint_stride
from bnmatch.errors import BadDomainError
from conftest import (
    SKEW4_VALUE, TILES, USE_PAIR, equiangular, forced_stride, forced_tile, oracle_enumerate,
    parabola_cap, random_polygons, regular, roll_fill, roll_walk, sq_dist, tile_seam_inputs,
    turning_angle, two_arcs,
)

approx = pytest.approx

def _enum_noncross(m):
    """All non-crossing perfect matchings of 0..m-1 (independent recursion)."""
    if m == 0:
        return [()]
    out = []
    for k in range(1, m, 2):
        for left in _enum_noncross(k - 1):
            for right in _enum_noncross(m - k - 1):
                out.append(
                    ((0, k),)
                    + tuple((a + 1, b + 1) for a, b in left)
                    + tuple((a + k + 1, b + k + 1) for a, b in right)
                )
    return out


def _chain_structure(m, pairs):
    """(roots, cascades) of a local matching, treating (0, m-1) as an edge."""
    diags = sorted(
        (min(a, b), max(a, b))
        for a, b in pairs
        if (max(a, b) - min(a, b)) not in (1, m - 1)
    )
    if not diags:
        return 0, 0
    parent = {}
    stack = []
    for iv in diags:
        while stack and not (stack[-1][0] <= iv[0] and iv[1] <= stack[-1][1]):
            stack.pop()
        parent[iv] = stack[-1] if stack else None
        stack.append(iv)
    children = {iv: [] for iv in diags}
    roots = [iv for iv in diags if parent[iv] is None]
    for iv in diags:
        if parent[iv] is not None:
            children[parent[iv]].append(iv)
    links = [(iv, children[iv][0]) for iv in diags if len(children[iv]) == 1]
    if len(roots) == 2:
        links.append(tuple(roots))
    comp = {iv: iv for iv in diags}

    def find(x):
        while comp[x] != x:
            comp[x] = comp[comp[x]]
            x = comp[x]
        return x

    for a, b in links:
        comp[find(a)] = find(b)
    return len(roots), len({find(iv) for iv in diags})


def _constrained_best(P, start, size):
    """Brute-force optimum of the arc subproblem.

    Returns (best squared value, every-optimum-contains-closing-pair).
    Admissible matchings of the arc have at most one chain of diagonals
    and at most one diagonal facing the closing segment.
    """
    n = P.n
    best = math.inf
    optima = []
    for local in _enum_noncross(size):
        roots, chains = _chain_structure(size, local)
        if roots > 1 or chains > 1:
            continue
        v = 0.0
        for a, b in local:
            d = sq_dist(P, (start + a) % n, (start + b) % n)
            if d > v:
                v = d
        if v < best:
            best = v
            optima = [local]
        elif v == best:
            optima.append(local)
    closing = (0, size - 1)
    necessary = all(closing in m for m in optima)
    return best, necessary


def _instances():
    import conftest

    yield validate_convex_ccw(conftest.SQ4_COORDS)
    yield validate_convex_ccw(conftest.HEX6_COORDS)
    yield validate_convex_ccw(conftest.SKEW4_COORDS)
    for seed in range(4):
        yield gen_circle(8, seed)
        yield gen_valtr(8, seed + 50)
    for seed in range(2):
        yield gen_circle(10, seed + 10)


def _all_values(T):
    """Every value of T, one ``arc_values`` call per start: entry [s, k] is
    that of the arc (s, 2k)."""
    return np.array([T.arc_values(s, s, T.n // 2)[0] for s in range(T.n)])


class TestTableBasics:
    def test_size_two_rows(self, skew4):
        T = build_subproblem_table(skew4)
        for s in range(4):
            assert _all_values(T)[s, 1] == sq_dist(skew4, s, (s + 1) % 4)
        assert not (T.necessary[:, 0] < 2).any()

    def test_sq4_entries(self, sq4):
        T = build_subproblem_table(sq4)
        S, choice, necessary = roll_fill(sq4)
        V = _all_values(T)
        assert [V[0, 1], V[1, 2]] == [1.0, 1.0]
        # the closing pair ties with the edge moves, so it is not forced
        assert not necessary[2, 0]
        assert choice[2, 0] == USE_PAIR
        assert _pairs(T, 0, 4) == roll_walk(choice, 0, 4) == [(0, 3), (1, 2)]
        # the full circle holds no diagonal: candidates lie below it only
        _assert_pairs_match(sq4, T, S, necessary)

    def test_skew4_full_circle(self, skew4):
        T = build_subproblem_table(skew4)
        assert _all_values(T)[1, 2] == sq_dist(skew4, 2, 3)
        assert _all_values(T)[1, 2] == approx(SKEW4_VALUE**2, rel=1e-12)

    def test_empty_interval_value(self, sq4):
        T = build_subproblem_table(sq4)
        assert _all_values(T)[2, 0] == 0.0

    def test_bad_domain(self, sq4):
        T = build_subproblem_table(sq4)
        # out of range, or no integer by operator.index; NumPy integers pass
        for start, size in ((0, 3), (4, 2), (0, 6), (0, 5), (-1, 2), (0, -2), (0.0, 4),
                            (0, 4.0), (0, "4")):
            with pytest.raises(BadDomainError):
                reconstruct(T, start, size)
        for start, end, kmax in ((0, 3, 3), (0, 3, -1), (0.5, 3, 2), (0, 3.0, 2), (0, 3, 2.0)):
            with pytest.raises(BadDomainError):
                T.arc_values(start, end, kmax)
        assert (reconstruct(T, np.int64(1), np.uint8(4)) == reconstruct(T, 1, 4)).all()
        for got, want in zip(T.arc_values(np.int32(1), np.int64(2), np.intp(2)),
                             T.arc_values(1, 2, 2)):
            assert got.tobytes() == want.tobytes()


class TestOneCascadeOptimum:
    def test_sq4(self, sq4):
        assert one_cascade_optimum(build_subproblem_table(sq4)) == (1.0, 0)

    def test_hex6(self, hex6):
        v, s = one_cascade_optimum(build_subproblem_table(hex6))
        assert v == approx(1.0, rel=1e-12)
        assert s == 0

    def test_skew4(self, skew4):
        v, s = one_cascade_optimum(build_subproblem_table(skew4))
        assert v == approx(SKEW4_VALUE**2, rel=1e-12)
        assert s == 0  # all four full-circle entries tie

    def test_matches_single_chain_brute_force(self):
        # the best full-circle entry equals the optimum over all matchings
        # whose diagonals form at most one chain
        for n, seed in [(6, 0), (6, 3), (8, 1), (8, 4), (10, 2)]:
            P = gen_circle(n, seed)
            T = build_subproblem_table(P)
            best, _ = one_cascade_optimum(T)
            want = math.inf
            for m in oracle_enumerate(n):
                _, chains = _chain_structure_global(n, m)
                if chains <= 1:
                    v = max(sq_dist(P, a, b) for a, b in m)
                    want = min(want, v)
            assert best == want


def _chain_structure_global(n, pairs):
    # same counting, but adjacency wraps: (0, n-1) is a polygon edge
    return _chain_structure(n, pairs)


class TestReconstruct:
    def test_sq4_whole(self, sq4):
        T = build_subproblem_table(sq4)
        assert _pairs(T, 0, 4) == [(0, 3), (1, 2)]

    def test_single_edge(self, hex6):
        T = build_subproblem_table(hex6)
        for s in range(6):
            assert _pairs(T, s, 2) == [(s, (s + 1) % 6)]

    def test_skew4(self, skew4):
        T = build_subproblem_table(skew4)
        assert _pairs(T, 1, 4) == [(1, 0), (2, 3)]

    def test_value_and_coverage_exact(self):
        for P in _instances():
            n = P.n
            T = build_subproblem_table(P)
            V = _all_values(T)
            for start in range(n):
                for size in range(2, n + 1, 2):
                    pairs = _pairs(T, start, size)
                    got = max(sq_dist(P, a, b) for a, b in pairs)
                    assert got == V[start, size // 2], (n, start, size)
                    covered = sorted(i for p in pairs for i in p)
                    want = sorted((start + t) % n for t in range(size))
                    assert covered == want

    def test_reconstruction_is_single_chain(self):
        for P in _instances():
            n = P.n
            T = build_subproblem_table(P)
            for start in range(n):
                for size in range(2, n + 1, 2):
                    local = tuple(
                        ((a - start) % n, (b - start) % n)
                        for a, b in _pairs(T, start, size)
                    )
                    roots, chains = _chain_structure(size, local)
                    assert roots <= 1 and chains <= 1


class TestAgainstConstrainedBruteForce:
    def test_values_and_necessity(self):
        for P in _instances():
            n = P.n
            T = build_subproblem_table(P)
            V = _all_values(T)
            S, choice, necessary = roll_fill(P)
            _assert_pairs_match(P, T, S, necessary)
            for start in range(n):
                for size in range(2, n + 1, 2):
                    assert _pairs(T, start, size) == roll_walk(choice, start, size)
                    best, every_opt_has_pair = _constrained_best(P, start, size)
                    assert V[start, size // 2] == best, (n, start, size)
                    if necessary[size // 2, start]:
                        assert every_opt_has_pair, (n, start, size)

    def test_all_edges_upper_bound(self):
        for P in _instances():
            n = P.n
            V = _all_values(build_subproblem_table(P))
            for start in range(n):
                for size in range(2, n + 1, 2):
                    cap = max(
                        sq_dist(P, (start + t) % n, (start + t + 1) % n)
                        for t in range(0, size, 2)
                    )
                    assert V[start, size // 2] <= cap


def _pairs(T, start, size):
    """reconstruct's walk as a list of (a, b) tuples of ints, once its
    result is checked to be a (size/2, 2) intp array."""
    walk = reconstruct(T, start, size)
    assert walk.dtype == np.intp and walk.shape == (size // 2, 2), (walk.dtype, walk.shape)
    return [(a, b) for a, b in walk.tolist()]


def _assert_walks_match(T, choice, arcs):
    for start, size in arcs:
        assert _pairs(T, start, size) == roll_walk(choice, start, size), (T.stride, start, size)


def _assert_pairs_match(P, T, S, necessary):
    """T lists, by i then j, the diagonals (i, j) = (start, start + 2k - 1
    mod n) of exactly the reference's necessary arcs (start, 2k) with
    2 <= k < n/2 and k <= reach[start], and their bases, the reference's
    values S[k, start] bit for bit."""
    n, half = P.n, P.n // 2
    k = np.arange(half)[:, None]
    keep = necessary[:half] & (k >= 2) & (k <= candidate_reach(P))
    arcs = sorted((s, (s + 2 * k - 1) % n, k) for k, s in np.argwhere(keep).tolist())
    assert T.necessary.dtype == np.intp and T.necessary.shape[1:] == (2,)
    assert T.necessary.tolist() == [[i, j] for i, j, _ in arcs]
    assert T.bases.dtype == np.float64 and T.bases.shape == (len(T.necessary),)
    rows, starts = [k for _, _, k in arcs], [i for i, _, _ in arcs]
    assert T.bases.tobytes() == S[rows, starts].tobytes()


def _assert_matches_roll_fill(P, stride=None, walks=None, tile=None, ref=None):
    """At ``stride`` and ``tile`` (default: the table's own), the table's
    kept rows, its candidates and their bases, every value ``arc_values``
    reads and the walks of the arcs ``walks`` equal the stride-1 NumPy
    transcription's bit for bit. ``walks`` defaults to the full circle from
    every start and every arc from start 0; ``ref`` is ``roll_fill(P)``,
    computed if not given."""
    n, half = P.n, P.n // 2
    with contextlib.ExitStack() as forced:
        if stride:
            forced.enter_context(forced_stride(stride))
        if tile:
            forced.enter_context(forced_tile(*tile))
        T = build_subproblem_table(P)
    assert T.stride == (stride or checkpoint_stride(n))
    S, choice, necessary = ref or roll_fill(P)
    kept = sorted({*range(0, half + 1, T.stride), half})
    assert T.S.dtype == np.float64 and T.S.tobytes() == S[kept].tobytes()
    assert T.choice.dtype == np.uint8 and T.choice.shape == (0, n)
    _assert_pairs_match(P, T, S, necessary)
    if walks is None:
        walks = [(s, n) for s in range(n)] + [(0, 2 * k) for k in range(half + 1)]
    _assert_walks_match(T, choice, walks)
    # every anchor at the longest slice, and every slice length at some anchor
    reads = [(a, half) for a in range(n)] + [(kmax % n, kmax) for kmax in range(half + 1)]
    for anchor, kmax in reads:
        end = n - 1 - anchor
        k = np.arange(kmax + 1)
        first, last = T.arc_values(anchor, end, kmax)
        assert first.tobytes() == S[k, anchor].tobytes(), (anchor, kmax)
        assert last.tobytes() == S[k, (end - 2 * k + 1) % n].tobytes(), (anchor, kmax)


def _every_arc(n):
    return [(s, m) for s in range(n) for m in range(0, n + 1, 2)]


def test_fill_bit_identical_to_roll_recurrence_on_fixtures():
    import conftest

    _assert_matches_roll_fill(validate_convex_ccw([(0.0, 0.0), (1.0, 0.0)]))
    for coords in (conftest.SQ4_COORDS, conftest.SKEW4_COORDS, conftest.HEX6_COORDS):
        _assert_matches_roll_fill(validate_convex_ccw(coords))


@pytest.mark.parametrize("mode", ["circle", "valtr", "cluster3"])
@pytest.mark.parametrize("n", [6, 8, 16, 64, 250, 512])
def test_fill_bit_identical_to_roll_recurrence(n, mode):
    _assert_matches_roll_fill(generate(GenSpec(n, mode, 11 + n)))


@pytest.mark.parametrize("family", [parabola_cap, two_arcs])
@pytest.mark.parametrize("n", [4, 6, 30, 64, 250])
def test_fill_bit_identical_to_roll_recurrence_dense_necessity(n, family):
    _assert_matches_roll_fill(validate_convex_ccw(family(n)))


def test_fill_flags_a_near_tie():
    # parabola_cap(64) stretched to (x, a * x^2), with a bisected so that the
    # arc of 6 points from 59 has pair / min(left, right) = 1 - 1.76e-10: a
    # relative tolerance of 1e-9 on the necessity test would drop this
    # candidate, the plain float comparison flags it
    a = 2.4155845046043396
    P = validate_convex_ccw([(x, a * y) for x, y in parabola_cap(64)])
    S = roll_fill(P)[0]
    pair = max(S[2, 60], sq_dist(P, 59, 0))
    edge = min(max(S[2, 61], sq_dist(P, 59, 60)), max(S[2, 59], sq_dist(P, 63, 0)))
    assert 1 - 1e-9 < pair / edge < 1
    _assert_matches_roll_fill(P)
    T = build_subproblem_table(P)
    assert T.necessary.tolist() == [[59, 0], [61, 0], [63, 2], [63, 4]]
    assert solve(P).value.hex() == cubic_solve(P)[0].hex() == "0x1.3be157db981ccp-3"


def _polygons(n_max=512):
    for mode in ("circle", "valtr", "cluster3"):
        for n in (4, 6, 8, 10, 12, 16, 24, 32, 64, 128, 256, 512):
            if n <= n_max:
                for seed in range(2):
                    yield generate(GenSpec(n, mode, 31 + seed))
    # half or more of these families' rows hold necessary arcs; 36 is no multiple of 8
    for n in (4, 6, 8, 12, 36, 64, 128):
        if n <= n_max:
            yield validate_convex_ccw(parabola_cap(n))
            yield validate_convex_ccw(two_arcs(n))
    # arcs that turn by 2*pi/3 up to rounding, at the last candidate row
    for n in (6, 12, 18, 36, 60, 96, 120):
        if n <= n_max:
            yield validate_convex_ccw(regular(n))
            yield validate_convex_ccw(equiangular(n))


_EPS = 2.0**-53


def _edges(P, starts):
    """The edge vectors starts -> starts + 1, in NumPy floats."""
    nxt = (starts + 1) % P.n
    return P.xs[nxt] - P.xs[starts], P.ys[nxt] - P.ys[starts]


def _within(ux, uy, vx, vy):
    """The kernel's candidate test, elementwise in NumPy with the same float
    operations: False where the rotation from u to v surely exceeds 2*pi/3."""
    with np.errstate(over="ignore", invalid="ignore"):
        l, r = ux * vy, uy * vx
        right = l - r < -((3.0 + 16.0 * _EPS) * _EPS * (np.abs(l) + np.abs(r)) + 2.0**-1072)
        dot = ux * vx + uy * vy
        q = 4.0 * (dot * dot)
        uu, vv = ux * ux + uy * uy, vx * vx + vy * vy
        wide = ((dot < 0) & (q <= np.finfo(np.float64).max) & (uu >= 2.0**-500)
                & (vv >= 2.0**-500) & (q > uu * vv * (1.0 + 32.0 * _EPS)))
    return ~(right | wide)


def _scanned_reach(P):
    """candidate_reach by a scan over every k and every start: the last k
    < n/2 whose arc passes the kernel's test from its first edge to its
    last, else 0."""
    starts = np.arange(P.n)
    reach = np.zeros(P.n, dtype=np.intp)
    for k in range(1, P.n // 2):
        reach[_within(*_edges(P, starts), *_edges(P, (starts + 2 * k - 2) % P.n))] = k
    return reach


def _scanned_last_candidate_row(P):
    """The last row k < n/2 with an arc that passes the kernel's test, by a
    scan over every k and every start."""
    starts = np.arange(P.n)
    return max(
        (k for k in range(1, P.n // 2)
         if _within(*_edges(P, starts), *_edges(P, (starts + 2 * k - 2) % P.n)).any()),
        default=0,
    )


def _exact_reach(P):
    """candidate_reach by the exact rule: for each start the last k < n/2
    whose arc turns by at most 2*pi/3, else 0. Every float is an integer
    over a power of two, so the coordinates times the largest denominator
    are integers, and the rule, homogeneous in them, is decided in integer
    arithmetic. The exact turn grows with the arc and falls as its start
    moves on, so two pointers find the reach with O(n) tests."""
    n = P.n
    ratios = [v.as_integer_ratio() for v in P.xs.tolist() + P.ys.tolist()]
    den = max(d for _, d in ratios)
    scaled = [a * (den // d) for a, d in ratios]
    x, y = scaled[:n], scaled[n:]

    def edge(t):
        t %= n
        return x[(t + 1) % n] - x[t], y[(t + 1) % n] - y[t]

    def within(s, e):
        (ux, uy), (vx, vy) = edge(s), edge(e)
        dot = ux * vx + uy * vy
        return ux * vy - uy * vx >= 0 and (
            dot >= 0 or 4 * dot * dot <= (ux * ux + uy * uy) * (vx * vx + vy * vy))

    reach, e = [], 0
    for s in range(n):
        e = max(e, s)
        while e < s + n - 3 and within(s, e + 1):
            e += 1
        reach.append((e - s) // 2 + 1 if n >= 4 else 0)
    return np.array(reach, dtype=np.intp)


def _assert_reach_matches_scan(P):
    reach = candidate_reach(P)
    assert reach.tolist() == _scanned_reach(P).tolist(), P.n
    assert reach.max() == _scanned_last_candidate_row(P), P.n
    assert (reach >= _exact_reach(P)).all(), P.n


def test_candidate_reach_matches_scan():
    two = validate_convex_ccw([(0.0, 0.0), (1.0, 0.0)])
    _assert_reach_matches_scan(two)
    assert candidate_reach(two).tolist() == [0, 0]
    for P in _polygons():
        _assert_reach_matches_scan(P)
    for n in range(6, 241, 6):
        for P in (validate_convex_ccw(regular(n)), validate_convex_ccw(equiangular(n, n))):
            _assert_reach_matches_scan(P)
            assert candidate_reach(P).max() == n // 6 + 1, n


def _dense_candidates(P):
    """enumerate_candidates from the roll reference's flags and the scanned
    reach, with tau as one atan2 of the end edges' cross and dot products."""
    n, xs, ys = P.n, P.xs.tolist(), P.ys.tolist()
    _, _, necessary = roll_fill(P)
    reach = _scanned_reach(P)
    out = []
    for k in range(2, n // 2):
        for i in np.flatnonzero(necessary[k] & (k <= reach)).tolist():
            j = (i + 2 * k - 1) % n
            ux, uy = xs[(i + 1) % n] - xs[i], ys[(i + 1) % n] - ys[i]
            vx, vy = xs[j] - xs[j - 1], ys[j] - ys[j - 1]
            tau = math.atan2(ux * vy - uy * vx, ux * vx + uy * vy)
            assert tau == approx(turning_angle(P, i, j), abs=1e-12)
            out.append(CandidateDiagonal(i, j, tau))
    return sorted(out, key=lambda c: (c.i, c.j))


def _candidates(P):
    return enumerate_candidates(P, build_subproblem_table(P))


def _assert_candidates_match_dense(P):
    def key(cands):
        return [(c.i, c.j, c.tau.hex()) for c in cands]

    assert key(_candidates(P)) == key(_dense_candidates(P))


def test_candidates_match_dense_reference():
    found = 0
    for P in _polygons():
        _assert_candidates_match_dense(P)
        found += len(_candidates(P))
    assert found > 0  # cluster3 polygons have candidates


def _boundary_octagon(y):
    """An octagon whose arc of 4 points from 0 has the first edge (4, 0)
    and the last (-1, y), every float exact: it turns by exactly 2*pi/3 at
    y = sqrt(3), and by less above. The arc is necessary, and every arc of
    6 points turns by more than 2*pi/3 with room to spare."""
    return [(0.0, 0.0), (4.0, 0.0), (4.25, 0.25), (3.25, 0.25 + y),
            (1.0, 2.5), (-0.5, 2.0), (-1.0, 1.0), (-0.5, 0.25)]


def test_candidates_at_the_last_candidate_row():
    # the reach keeps the row whose arcs turn by 2*pi/3 up to a float: the
    # octagon's boundary arc, a float above sqrt(3), passes exactly, and
    # the rule keeps it as a candidate in the last row any start reaches
    above = validate_convex_ccw(_boundary_octagon(math.nextafter(math.sqrt(3.0), 2.0)))
    assert _exact_reach(above)[0] == candidate_reach(above)[0] == candidate_reach(above).max() == 2
    assert (0, 3) in [(c.i, c.j) for c in _candidates(above)]
    assert {(c.j - c.i) % 8 + 1 for c in _candidates(above)} == {4}
    # a float below, the same arc turns by more than 2*pi/3 exactly: within
    # the rule's rounding bound, so it counts in, and the reach stays 2
    below = validate_convex_ccw(_boundary_octagon(math.nextafter(math.sqrt(3.0), 0.0)))
    assert _exact_reach(below)[0] == 1 and candidate_reach(below)[0] == 2
    # on equiangular polygons too, every candidate is in the last row
    for n in (6, 12, 36, 96):
        P = validate_convex_ccw(equiangular(n))
        rows = {(c.j - c.i) % n + 1 for c in _candidates(P)}
        assert rows == {2 * candidate_reach(P).max()}, n


@settings(max_examples=90, deadline=None)
@given(random_polygons)
def test_fill_and_candidates_on_random_polygons(coords):
    P = validate_convex_ccw(coords)
    _assert_reach_matches_scan(P)
    _assert_matches_roll_fill(P)
    _assert_candidates_match_dense(P)


def _fill_scratch(n):
    """Bytes tracemalloc sees at the peak of a valtr fill beyond its tables."""
    P = generate(GenSpec(n, "valtr", 3))
    dp_core._kernel()  # a process's first fill would load the kernel under tracing
    tracemalloc.start()
    try:
        T = build_subproblem_table(P)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak - (T.S.nbytes + T.necessary.nbytes + T.bases.nbytes)


def test_fill_scratch_memory_per_point():
    # the fill's own working memory is O(n): everything tracemalloc sees
    # beyond the tables stays under 123 bytes per point. Measured 37 (two
    # full rows, the reach, edge2 and a tile of 2 * 416 floats); 34 with a
    # flag byte a point and no tile, 101 with the NumPy row loop, 117 with
    # its pair and left moves in two temporaries of their own
    n = 2048
    scratch = _fill_scratch(n)
    assert scratch <= 123 * n, scratch / n


def test_fill_tile_adds_at_most_16_kb():
    # the row-by-row fill's scratch was 33 bytes a point (two full rows, the
    # reach, edge2 and a flag byte a point); the tiled fill trades the flags
    # for a tile per thread. Measured 277934 bytes at n = 8192 with two
    # threads' tiles and 271390 with one, against 272686
    n = 8192
    scratch = _fill_scratch(n)
    assert scratch <= 33 * n + 16 * 1024, scratch - 33 * n


@pytest.mark.parametrize("n", [4, 1002, 2048])
def test_edge2_holds_no_fill_scratch(n):
    # T.edge2 outlives the fill: a view of the fill's shared scratch would
    # keep all of it alive through reconstruct; its own allocation holds at
    # most n + 8 floats, whether NumPy or ctypes owns it
    T = build_subproblem_table(generate(GenSpec(n, "valtr", 2)))
    owner = T.edge2 if T.edge2.base is None else T.edge2.base
    assert T.edge2.size == n and memoryview(owner).nbytes <= 8 * (n + 8)


# digests of T.S, T.necessary, T.bases, T.edge2 and the solve report at
# n = 2 (mod 8), where some of the NumPy fill's buffers started off a 64-byte
# line. The entries at 2050 and 4098 are as the NumPy fill gave them. Those
# at 1002 were taken when that size went from stride 1 to the default
# isqrt(2n) = 44: T.S then holds the rows 0, 44, ..., 484 and 501 of the
# stride-1 table, bit for bit, and the other fields and the report are the
# stride-1 table's
LAYOUT_DIGESTS = {
    ("valtr", 1002): "e52695cdbcb7f19f63bd4c2b1b0b5ef33cccf4cd44d5fda9b7ea059039c5c85e",
    ("valtr", 2050): "284b3ecb1fdebb14e26ec5d5d54eef2c407c1e7055978e25fc138a692e17eec5",
    ("valtr", 4098): "294865cb62733e0cfb7312f4d983f06fe1fedb13801296b360d2a25d3aac1045",
    ("cluster3", 1002): "430a265c462a91360b06f9ceaff66b680ee166688295c4d5c43e82ffe9a8b59c",
    ("cluster3", 2050): "e89a83a8b8ecbe8dfaead57b0ebd663d60c9760ce491c7a410576e40edbf6e9e",
    ("cluster3", 4098): "a350c19f8a8e8f16ef0c8523802173f8377e40338945dc973971b5dad6bc4240",
}


def _layout_digest(mode, n):
    return _digest(generate(GenSpec(n, mode, 1)))


def _digest(P):
    # the candidates as the (k, start) rows, in (k, start) order, that the
    # pins were taken from, and their bases in that order
    T, n = build_subproblem_table(P), P.n
    i, j = T.necessary.T
    arcs = np.stack((((j - i) % n + 1) // 2, i), axis=1)
    order = np.argsort(arcs.dot((n, 1)))
    digest = hashlib.sha256()
    for a in (T.S, arcs[order], T.bases[order], T.edge2):
        digest.update(a.tobytes())
    rep = solve(P)
    digest.update(repr((rep.value.hex(), rep.matching.pairs, rep.candidate_count, rep.cascades,
                        rep.structure)).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("mode, n", LAYOUT_DIGESTS, ids=str)
def test_aligned_fill_bit_identical(mode, n):
    assert _layout_digest(mode, n) == LAYOUT_DIGESTS[mode, n]


def test_scalar_build_gives_the_same_digests(tmp_path):
    # the kernel's source built at -O0 with its target clones cut out: one
    # scalar x86-64 or other build with no vector clone, whose every float
    # operation is the source's own. Its digests equal the vectorized
    # build's, so no clone contracts or reorders an operation
    source = resources.files("bnmatch").joinpath("_rowkernel.c").read_bytes()
    clones = '__attribute__((target_clones("avx512f", "avx2", "default")))'
    assert source.count(clones.encode()) == 1
    path = tmp_path / "rowkernel-O0.so"
    flags = ("-O0", *(f for f in dp_core._CFLAGS if not f.startswith("-O")))
    dp_core._build(source.replace(clones.encode(), b""), flags, path)
    scalar = dp_core._load(path)
    with mock.patch.object(dp_core, "_kernel", lambda: scalar):
        for mode, n in [("valtr", 1002), ("cluster3", 1002), ("valtr", 2050), ("cluster3", 2050)]:
            assert _layout_digest(mode, n) == LAYOUT_DIGESTS[mode, n], (mode, n)


def _rotated_cap(n):
    """A parabola cap whose first candidates, (2, n - 3) and (2, n - 1),
    start at n/2 - 1 and n/2 + 1, in adjacent strips of 64 starts: where
    the two threads take one each, both claim entries from the one count
    in every block, and the arrays grow four times."""
    coords = parabola_cap(n)
    return validate_convex_ccw(coords[n // 2 - 2:] + coords[:n // 2 - 2])


def _thread_digests():
    """Digests of the table and the solve report on inputs with and without
    candidates, one of them at a tile where both threads find candidates."""
    out = [_layout_digest(mode, n) for mode in ("valtr", "cluster3") for n in (2050, 4098)]
    out += [_digest(validate_convex_ccw(parabola_cap(n))) for n in (2048, 8192)]
    with forced_tile(2, 64):
        out.append(_digest(_rotated_cap(2048)))
    return out


ONE_CPU = """
import os
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
from test_dp_core import _thread_digests
print(*_thread_digests())
"""


def test_one_cpu_fill_gives_the_same_digests():
    # the fill runs min(2, CPUs this process may use) threads. A child bound
    # to one CPU (its own affinity, nothing else's) runs one thread, and its
    # digests equal this process's. On a one-CPU host both run one thread,
    # and the two-thread path is left to the sanitizer tests of test_kernel.py
    src = Path(dp_core.__file__).parent.parent
    tests = Path(__file__).parent
    run = subprocess.run([sys.executable, "-c", ONE_CPU], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join([str(src), str(tests)])},
                         timeout=600)
    assert run.returncode == 0, run.stderr[-4000:]
    assert run.stdout.split() == _thread_digests()


def test_table_and_reconstruct_memory_sub_quadratic():
    # no field grows as n^2: values at about 8n * sqrt(n/8) bytes, 24 bytes
    # per candidate (its i, j and base), no move tags. A walk over the
    # full circle replays one block of stride = 181 rows at a time into
    # one buffer: beyond the pairs it returns, its traced peak stays under
    # 64 bytes per point. Measured 16; 32 with the NumPy walk, 49 with its
    # previous block alive while the next one was replayed
    n = 16384
    P = generate(GenSpec(n, "valtr", 3))
    T = build_subproblem_table(P)
    assert T.choice.nbytes == 0
    tables = T.S.nbytes + T.necessary.nbytes + T.bases.nbytes
    assert tables <= 8 * n * (math.sqrt(n / 8) + 2) + 24 * len(T.necessary)
    _, start = one_cascade_optimum(T)
    tracemalloc.start()
    try:
        pairs = reconstruct(T, start, n)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pairs.shape == (n // 2, 2) and pairs.dtype == np.intp
    assert peak - kept <= 64 * n, (peak - kept) / n


def test_arc_values_memory_per_point():
    # a read replays each block of stride - 1 rows into one scratch of
    # (stride + 1)^2 floats, stride = 181: beyond the two arrays it returns,
    # its traced peak stays under 64 bytes per point. Measured 16; 0.4 with
    # two rows of 2 * stride - 1 floats
    n = 16384
    T = build_subproblem_table(generate(GenSpec(n, "valtr", 3)))
    tracemalloc.start()
    try:
        first, last = T.arc_values(0, n - 1, n // 2)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert first.shape == last.shape == (n // 2 + 1,)
    assert peak - kept <= 64 * n, (peak - kept) / n


def _strides(n):
    return sorted({1, 2, 3, 7, math.isqrt(n // 2), math.isqrt(2 * n)})


def test_checkpointed_table_matches_dense_on_fixtures():
    import conftest

    # the 2-gon's one row is the full circle, kept at every stride
    for coords in ([(0.0, 0.0), (3.0, 4.0)], conftest.SQ4_COORDS, conftest.SKEW4_COORDS,
                   conftest.HEX6_COORDS):
        P = validate_convex_ccw(coords)
        for stride in _strides(P.n):
            _assert_matches_roll_fill(P, stride, _every_arc(P.n))


@pytest.mark.parametrize("mode", ["circle", "valtr", "cluster3"])
@pytest.mark.parametrize("n", [4, 6, 8, 16, 30, 64])
def test_checkpointed_table_matches_dense(n, mode):
    P = generate(GenSpec(n, mode, 23 + n))
    for stride in _strides(n):
        _assert_matches_roll_fill(P, stride, _every_arc(n))


@pytest.mark.parametrize("family", [parabola_cap, two_arcs])
def test_checkpointed_table_matches_dense_necessity(family):
    P = validate_convex_ccw(family(30))
    for stride in _strides(P.n):
        _assert_matches_roll_fill(P, stride, _every_arc(P.n))


def _tile_seams(n, h, w, stride):
    """The seams the fill's blocks cross at tile (h, w) and ``stride``,
    found from the block and strip bounds the kernel uses."""
    half, seams = n // 2, set()
    for k0 in range(1, half, h):
        hb = min(h, half - k0)
        if w + 2 * hb > n:
            continue  # one strip of n starts, no halo
        seams.add("the last strip's halo wraps past start n - 1")
        if n % w:
            seams.add("a strip ends short of n")
        if any(k % stride == 0 for k in range(k0 + 1, k0 + hb)):
            seams.add("a checkpoint row inside a block")
        if k0 + hb == half:
            seams.add("the full-circle row in a block of strips")
    return seams


def test_tile_seam_sweep_crosses_every_seam():
    seams = set()
    for _, P in tile_seam_inputs():
        for h, w in TILES:
            for stride in (1, 3, 7, checkpoint_stride(P.n)):
                seams |= _tile_seams(P.n, h, w, stride)
    assert len(seams) == 4, seams
    # the candidate arrays start with room for 16; each return of the kernel
    # is a block whose candidates outgrew them, redone after they grew, with
    # candidates kept from before
    P = validate_convex_ccw(parabola_cap(512))
    counting = mock.Mock(wraps=dp_core._kernel())
    with mock.patch.object(dp_core, "_kernel", lambda: counting):
        _assert_matches_roll_fill(P, None, [(0, P.n)], (2, 7))
    assert counting.bn_fill.call_count > 2


def _fill_calls(P) -> int:
    """How many times one build of P's table calls the kernel's fill."""
    counting = mock.Mock(wraps=dp_core._kernel())
    with mock.patch.object(dp_core, "_kernel", lambda: counting):
        build_subproblem_table(P)
    return counting.bn_fill.call_count


def test_fill_calls_once_where_the_candidates_fit():
    # the candidates' first room, 16, holds cluster3's few, so its fill is
    # one call; a parabola cap's n/15 outgrow it, so the growth stays covered
    for n in (16, 32, 64, 128, 256):
        for seed in (1, 2):
            P = generate(GenSpec(n, "cluster3", seed))
            assert 0 < len(build_subproblem_table(P).necessary) <= 16
            assert _fill_calls(P) == 1, (n, seed)
    P = validate_convex_ccw(parabola_cap(2048))
    assert len(build_subproblem_table(P).necessary) > 16 and _fill_calls(P) >= 2


@pytest.mark.parametrize("copy_of", [
    copy.copy, copy.deepcopy, lambda T: pickle.loads(pickle.dumps(T)), dataclasses.replace,
], ids=["copy", "deepcopy", "pickle", "replace"])
def test_table_copies_read_their_own_arrays(copy_of):
    # a table keeps its arrays' buffers, or their addresses, for the kernel;
    # a copy must take its own, and keep reading the right values once the
    # original and every view of it are gone. So must the arrays that
    # reconstruct, arc_values and candidate_reach return, once their table
    # is. Tables compare by identity, as point sets do, so a copy is unequal
    # and every table can go in a set
    P = validate_convex_ccw(parabola_cap(64))
    T = build_subproblem_table(P)
    assert len(T.necessary) > 0  # the search reads the candidates' buffers too

    def digest(U):
        h = hashlib.sha256()
        for s, e in [(0, P.n - 1), (5, 40), (P.n - 1, 17)]:
            for a in U.arc_values(s, e, P.n // 2):
                h.update(a.tobytes())
        for s in (0, 9):
            h.update(reconstruct(U, s, P.n).tobytes())
        h.update(repr(solver._three_chain(U, math.inf)).encode())
        return h.hexdigest()

    want = digest(T)
    returned = [reconstruct(T, 3, P.n), *T.arc_values(7, 30, P.n // 2), candidate_reach(P)]
    returned_bytes = [a.tobytes() for a in returned]
    copies = [copy_of(T) for _ in range(2)]
    assert all(C != T for C in copies) and copies[0] != copies[1]
    assert len({T, *copies}) == 3
    views = [T.S, T.S[1:], T.edge2, T.necessary, T.bases, T.necessary.T]
    del T, views
    gc.collect()
    reuse = [b"\xff" * 8 * k for k in range(1, 2 * P.n) for _ in range(4)]  # the freed memory
    for C in copies:
        assert digest(C) == want
    assert [a.tobytes() for a in returned] == returned_bytes
    del reuse


@pytest.mark.parametrize("P", [pytest.param(P, id=name) for name, P in tile_seam_inputs()])
def test_tiled_fill_matches_roll_fill(P):
    # every tile against strides 1, 3, 7 and the default: kept rows,
    # candidates and bases in order and bits, values and a full-circle walk
    ref = roll_fill(P)
    for h, w in TILES:
        for stride in sorted({1, 3, 7, checkpoint_stride(P.n)}):
            _assert_matches_roll_fill(P, stride, [(0, P.n)], (h, w), ref)


@settings(max_examples=40, deadline=None)
@given(random_polygons)
def test_strided_tables_match_oracle_on_random_polygons(coords):
    # the fill, its replays and its walks at strides 1, 3 and isqrt(2n),
    # against the stride-1 transcription; the walks of the full circle
    # from every start and of every arc from start 0
    P = validate_convex_ccw(coords)
    for stride in sorted({1, 3, math.isqrt(2 * P.n)}):
        _assert_matches_roll_fill(P, stride)


def test_default_stride_rule():
    # one rule for every n. It keeps at most n/(2s) + 2 rows of n floats at
    # s = isqrt(2n): within 8n(sqrt(n/8) + 3) bytes for every even n up to
    # 300000 (+2 fails first at n = 30), where every row, 8 bytes an entry,
    # is past that bound from n = 6 on
    for n in range(2, 131073, 2):
        assert checkpoint_stride(n) == math.isqrt(2 * n), n
    for n in (2, 4, 6, 30, 256, 1002, 2046):
        T = build_subproblem_table(validate_convex_ccw(regular(n)))
        assert T.S.nbytes <= 8 * n * (math.sqrt(n / 8) + 3), (n, T.S.shape)
    T = build_subproblem_table(generate(GenSpec(2048, "valtr", 1)))
    assert T.stride == 64 and T.S.shape == (17, 2048)


def test_default_stride_walks_match_dense():
    # the replayed moves of the default stride against the stride-1 table's
    n = 2048
    P = generate(GenSpec(n, "valtr", 5))
    T = build_subproblem_table(P)
    with forced_stride(1):
        D = build_subproblem_table(P)
    assert T.stride > 1 == D.stride
    rng = np.random.default_rng(7)
    for start, k in zip(rng.integers(0, n, 200).tolist(), rng.integers(0, n // 2 + 1, 200).tolist()):
        assert _pairs(T, start, 2 * k) == _pairs(D, start, 2 * k), (start, 2 * k)


def test_walk_array_lists_the_pairs_of_the_dense_moves():
    # the walk's (size/2, 2) intp array holds, row by row, the pairs the
    # dense move tags give, at strides 1, 3 and the default, on arcs that
    # wrap past n. The digest pins those pairs, as lists, as the walk gave
    # them while it returned a list of tuples
    n = 2048
    P = generate(GenSpec(n, "cluster3", 9))
    _, choice, _ = roll_fill(P)
    arcs = [(0, n), (n - 1, n), (n - 5, n), (n - 2, 4), (n - 3, 130), (n - 200, 1024),
            (1000, 2 * 700), (7, 2 * 500)]
    for stride in (1, 3, checkpoint_stride(n)):
        with forced_stride(stride):
            T = build_subproblem_table(P)
        digest = hashlib.sha256()
        for start, size in arcs:
            walk = reconstruct(T, start, size)
            assert walk.dtype == np.intp and walk.shape == (size // 2, 2)
            assert walk.tolist() == [list(p) for p in roll_walk(choice, start, size)], (stride, start)
            digest.update(repr(walk.tolist()).encode())
        assert digest.hexdigest() == (
            "2d55135d12b9c54c65d306dd4fe8d848281102632534ef1de44ab92a3c2b6280"), stride
