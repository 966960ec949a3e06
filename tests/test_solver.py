import cProfile
import dataclasses
import gc
import math
import pstats
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bnmatch import (
    GenSpec,
    build_subproblem_table,
    cascade_decomposition,
    cubic_solve,
    enumerate_candidates,
    gen_circle,
    gen_cluster3,
    generate,
    oracle_solve,
    solve,
    validate_convex_ccw,
    verify_matching,
)
from bnmatch import dp_core, solver
from bnmatch.dp_core import SubproblemTable
from bnmatch.errors import (
    BnmatchError, InvalidMatchingError, NonFiniteValueError, UnderflowValueError,
)
from conftest import (
    SKEW4_VALUE, PolarityRegion, canonical_pairs, classify_polarity_region, equiangular,
    forced_stride, interior_polarity, parabola_cap, random_polygons, reference_three_chain,
    regular, sq_dist, turning_angle, two_arcs,
)

approx = pytest.approx


class TestExamples:
    def test_sq4(self, sq4):
        rep = solve(sq4)
        assert rep.value == 1.0
        assert canonical_pairs(rep.matching.pairs) in (
            ((0, 1), (2, 3)),
            ((0, 3), (1, 2)),
        )
        assert rep.structure == "one-cascade"
        assert rep.cascades == 0
        assert rep.candidate_count == 0

    def test_skew4(self, skew4):
        rep = solve(skew4)
        assert rep.value == approx(SKEW4_VALUE, rel=1e-12)
        assert canonical_pairs(rep.matching.pairs) == ((0, 1), (2, 3))

    def test_hex6(self, hex6):
        rep = solve(hex6)
        assert rep.value == approx(1.0, rel=1e-12)

    def test_two_points(self):
        P = validate_convex_ccw([(0.0, 0.0), (2.0, 1.0)])
        rep = solve(P)
        assert rep.value == approx(math.sqrt(5.0))
        assert canonical_pairs(rep.matching.pairs) == ((0, 1),)


class TestCandidates:
    def test_sq4_empty(self, sq4):
        assert enumerate_candidates(sq4, build_subproblem_table(sq4)) == []

    def test_hex6_empty(self, hex6):
        # the three long diagonals have tau exactly 2*pi/3 but tie with
        # edge-only matchings, so none is forced
        assert enumerate_candidates(hex6, build_subproblem_table(hex6)) == []

    def test_invariants_on_random_instances(self):
        for mode in ("circle", "valtr", "cluster3"):
            for n in (8, 12, 16):
                for seed in range(10):
                    P = generate(GenSpec(n, mode, seed))
                    T = build_subproblem_table(P)
                    cands = enumerate_candidates(P, T)
                    assert len(cands) <= 2 * n, (mode, n, seed)
                    seen = set()
                    for c in cands:
                        m = (c.j - c.i) % n + 1
                        assert m % 2 == 0
                        assert 4 <= m <= n - 2
                        assert [c.i, c.j] in T.necessary.tolist()
                        assert c.tau <= 2 * math.pi / 3 + 1e-12
                        assert c.tau == approx(turning_angle(P, c.i, c.j))
                        assert (c.i, c.j) not in seen
                        seen.add((c.i, c.j))
                    assert cands == sorted(cands, key=lambda c: (c.i, c.j))

    def test_poles_distinct_for_determinate_candidates(self):
        annotated = 0
        for mode in ("circle", "valtr", "cluster3"):
            for n in (10, 14, 16):
                for seed in range(10):
                    P = generate(GenSpec(n, mode, seed))
                    cands = enumerate_candidates(P, build_subproblem_table(P))
                    polarities = [interior_polarity(P, c.i, c.j) for c in cands]
                    # a NEGATIVE diagonal's pole is i, a POSITIVE one's j
                    for poles in (
                        [c.i for c, p in zip(cands, polarities) if p is PolarityRegion.NEGATIVE],
                        [c.j for c, p in zip(cands, polarities) if p is PolarityRegion.POSITIVE],
                    ):
                        annotated += len(poles)
                        assert len(poles) == len(set(poles)), (mode, n, seed)
        assert annotated > 50  # the sweep actually exercised annotation

    def test_flag_cap_drops_no_candidate(self):
        # the table tests necessity only up to the last row any start
        # reaches, and keeps a necessary arc only if its start reaches its
        # row (its arc turns by at most 2*pi/3). A reach of n/2 - 1
        # everywhere keeps every necessary diagonal: those whose start
        # reaches their row are the same pairs in the same order, and the
        # others, searched as candidates too, give the same value
        dropped = 0
        for coords in (
            *(f(n) for f in (regular, equiangular) for n in (6, 12, 36, 96)),
            *(f(n) for f in (parabola_cap, two_arcs) for n in (8, 36, 128)),
            *(gen_cluster3(n, seed).coords() for n in (12, 64, 256) for seed in range(2)),
        ):
            P = validate_convex_ccw(coords)
            T = build_subproblem_table(P)
            value = solve(P).value
            reach = dp_core.candidate_reach(P)
            with mock.patch.object(dp_core, "candidate_reach", lambda P: np.full(P.n, P.n // 2 - 1)):
                U = build_subproblem_table(P)
                assert solve(P).value.hex() == value.hex(), P.n
            s, j = U.necessary.T
            k = ((j - s) % P.n + 1) // 2
            assert U.necessary[k <= reach[s]].tolist() == T.necessary.tolist(), P.n
            dropped += len(U.necessary) - len(T.necessary)
        assert dropped > 0

    def test_uniform_polarity_counterexample(self):
        # Candidate interiors are *usually* uniformly one-sided, but not
        # always: here (5, 2) is a genuine candidate (its subproblem is
        # uniquely optimal through the pair, tau well under 2*pi/3) whose
        # interior holds one strictly neutral point and one negative one.
        # Acceptance criterion 5 fails on such instances by design.
        P = generate(GenSpec(6, "valtr", 8))
        T = build_subproblem_table(P)
        cand = next(
            c for c in enumerate_candidates(P, T) if (c.i, c.j) == (5, 2)
        )
        assert interior_polarity(P, cand.i, cand.j) is None
        assert cand.tau < 2 * math.pi / 3 - 0.05  # far from the rule's edge

        # necessity holds exactly: the arc <5,2> = (5,0,1,2) admits only two
        # matchings, and only the one through (5,2) achieves the optimum
        with_pair = max(sq_dist(P, 5, 2), sq_dist(P, 0, 1))
        without_pair = max(sq_dist(P, 5, 0), sq_dist(P, 1, 2))
        assert with_pair < without_pair * 0.95
        assert [5, 2] in T.necessary.tolist()

        pts = P.coords()
        labels = [classify_polarity_region(pts[5], pts[2], pts[t]) for t in (0, 1)]
        assert labels == [PolarityRegion.NEUTRAL, PolarityRegion.NEGATIVE]
        # the neutral point is well inside both distance bounds, not a tie
        d2 = sq_dist(P, 5, 2)
        assert sq_dist(P, 0, 5) < 0.99 * d2 and sq_dist(P, 0, 2) < 0.99 * d2


class TestOracleAgreement:
    def test_small_instances(self):
        for mode in ("circle", "valtr", "cluster3"):
            for n in (4, 6, 8, 10, 12, 14, 16):
                for seed in range(12):
                    P = generate(GenSpec(n, mode, seed))
                    rep = solve(P)
                    ov, _ = oracle_solve(P)
                    assert rep.value == ov, (mode, n, seed)

    def test_against_cubic(self):
        for n in (20, 40):
            for seed in range(5):
                P = gen_circle(n, seed)
                rep = solve(P)
                cv, _ = cubic_solve(P)
                assert rep.value == cv, (n, seed)

    @pytest.mark.parametrize("family", [parabola_cap, two_arcs])
    def test_dense_necessity_against_cubic(self, family):
        # half or more of these tables' rows hold necessary arcs; parabola
        # caps also have candidates
        for n in (4, 6, 10, 20, 36, 64, 100, 128):
            P = validate_convex_ccw(family(n))
            assert solve(P).value.hex() == cubic_solve(P)[0].hex(), n


class TestReportIntegrity:
    def test_matching_is_valid_and_value_exact(self):
        for mode in ("circle", "valtr", "cluster3"):
            for seed in range(8):
                P = generate(GenSpec(14, mode, seed))
                rep = solve(P)
                check = verify_matching(P, rep.matching)
                assert check.perfect and check.non_crossing
                assert check.value == rep.value  # same computation path
                d = cascade_decomposition(P, rep.matching)
                assert d.cascade_count == rep.cascades
                assert d.cascade_count <= 3
                assert d.three_bounded_count <= 1

    # the 2 x 1 rectangle's optimum is 1; a walk made to return an
    # imperfect, a crossing or a longer matching must not be reported
    @pytest.mark.parametrize("pairs, check", [
        ([[0, 1], [0, 1]], "perfect"),
        ([[0, 2], [1, 3]], "nonCrossing"),
        ([[0, 1], [2, 3]], "value"),
        # no type pass runs on the walk's array: range and self-pairs are
        # still checked on it
        ([[0, 4], [1, 2]], "perfect"),
        ([[0, -1], [1, 2]], "perfect"),
        ([[0, 0], [1, 2]], "perfect"),
    ])
    def test_invalid_output_names_the_failed_check(self, pairs, check):
        P = validate_convex_ccw([(0, 0), (2, 0), (2, 1), (0, 1)])
        assert solve(P).value == 1.0
        with mock.patch.object(solver, "reconstruct", return_value=np.array(pairs)):
            with pytest.raises(InvalidMatchingError, match=f"fails {check}$"):
                solve(P)

    def test_candidate_count_matches_enumeration(self):
        P = gen_cluster3(14, 5)
        rep = solve(P)
        assert rep.candidate_count == len(enumerate_candidates(P, build_subproblem_table(P)))


class TestInvariance:
    def test_rigid_motion(self):
        import random

        rnd = random.Random(12)
        P = gen_circle(12, 4)
        base = solve(P)
        for _ in range(5):
            ang = rnd.uniform(0, 2 * math.pi)
            c, s = math.cos(ang), math.sin(ang)
            tx, ty = rnd.uniform(-10, 10), rnd.uniform(-10, 10)
            moved = validate_convex_ccw(
                [(c * x - s * y + tx, s * x + c * y + ty) for x, y in P.coords()]
            )
            got = solve(moved)
            assert got.value == approx(base.value, rel=1e-9)

    def test_uniform_scaling(self):
        P = gen_circle(12, 4)
        base = solve(P)
        for scale in (0.125, 3.0, 1024.0):
            scaled = validate_convex_ccw([(scale * x, scale * y) for x, y in P.coords()])
            got = solve(scaled)
            assert got.value == approx(scale * base.value, rel=1e-9)
            assert canonical_pairs(got.matching.pairs) == canonical_pairs(
                base.matching.pairs
            )

    def test_overflowing_bottleneck_is_named(self):
        # a valid square whose every squared length overflows float64: a
        # named error, neither an inf value nor a numpy warning
        s = 1e160
        P = validate_convex_ccw([(0.0, 0.0), (s, 0.0), (s, s), (0.0, s)])
        with pytest.raises(NonFiniteValueError):
            solve(P)

    @pytest.mark.parametrize("scale", [1e-170, 2.0**-1000])
    def test_underflowing_bottleneck_is_named(self, scale):
        # strictly convex exactly, but every squared length underflows to 0:
        # a named error, never the value 0 for distinct points
        square = [(0.0, 0.0), (scale, 0.0), (scale, scale), (0.0, scale)]
        valtr = [(scale * x, scale * y) for x, y in generate(GenSpec(40, "valtr", 0)).coords()]
        for coords in (square, valtr):
            P = validate_convex_ccw(coords)
            with pytest.raises(UnderflowValueError):
                solve(P)

    @settings(max_examples=400, deadline=None)
    @given(random_polygons, st.integers(0, 79), st.integers(-200, 200))
    def test_relabel_mirror_and_power_of_two_scaling_are_exact(self, coords, shift, e):
        # squared lengths are sums of squared coordinate differences, which
        # negating x, reordering points or scaling by 2^e leaves exact (no
        # product leaves the normal range for |x|, |y| <= 2 and |e| <= 200)
        P = validate_convex_ccw(coords)
        value = solve(P).value
        assert cubic_solve(P)[0] == value
        shift %= len(coords)
        rotated = coords[shift:] + coords[:shift]
        assert solve(validate_convex_ccw(rotated)).value == value
        mirrored = [(-x, y) for x, y in reversed(coords)]
        assert solve(validate_convex_ccw(mirrored)).value == value
        scaled = [(math.ldexp(x, e), math.ldexp(y, e)) for x, y in coords]
        assert solve(validate_convex_ccw(scaled)).value == math.ldexp(value, e)


class TestStructureLabel:
    def test_label_follows_cascade_count(self):
        # three-cascade iff 3 cascades; otherwise at most 1 (2 cannot occur)
        def instances():
            for n in range(4, 37, 2):
                angles = [2 * math.pi * k / n for k in range(n)]
                for r in (1.0, 0.5, 0.1):  # regular and elliptic polygons: ties
                    yield [(math.cos(a), r * math.sin(a)) for a in angles]
                for seed in range(4):
                    yield gen_circle(n, seed).coords()
                    yield generate(GenSpec(n, "valtr", seed)).coords()
                    coords = gen_cluster3(n, seed).coords()
                    yield coords
                    yield [(round(x, 3), round(y, 3)) for x, y in coords]  # ties on a grid

        labels = set()
        for coords in instances():
            try:
                P = validate_convex_ccw(coords)
            except ValueError:
                continue  # rounding can flatten a cluster
            rep = solve(P)
            assert (rep.structure == "three-cascade") == (rep.cascades == 3), coords
            assert rep.cascades == 3 or rep.cascades <= 1, coords
            labels.add(rep.structure)
        assert labels == {"one-cascade", "three-cascade"}


class TestThreeCascadePath:
    def test_cluster3_forces_three_cascades(self):
        hits = 0
        for seed in range(6):
            P = gen_cluster3(12, seed)
            rep = solve(P)
            ov, optimal = oracle_solve(P)
            assert rep.value == ov
            if rep.structure == "three-cascade":
                hits += 1
                assert rep.cascades == 3
                d = cascade_decomposition(P, rep.matching)
                assert d.three_bounded_count == 1
                # when the search had to take the 3-chain branch, the oracle
                # agrees no 1-cascade matching does as well
                for m in optimal:
                    assert cascade_decomposition(P, m).cascade_count == 3
        assert hits > 0

    def test_one_cascade_tie_prefers_one_cascade_label(self, sq4):
        assert solve(sq4).structure == "one-cascade"


def _search_matches_reference(T, best_one=None) -> int:
    """Assert that the kernel's 3-chain search gives the reference's value,
    bit for bit, and (i, j, k, t) on the table T, against ``best_one`` or
    else T's one-cascade value; return how many candidates the reference
    replayed (its ``arc_values`` calls)."""
    if best_one is None:
        best_one = dp_core.one_cascade_optimum(T)[0]
    value, argmin = solver._three_chain(T, best_one)
    with mock.patch.object(SubproblemTable, "arc_values", autospec=True,
                           side_effect=SubproblemTable.arc_values) as replays:
        want, want_argmin = reference_three_chain(T, best_one)
    assert (value.hex(), argmin) == (want.hex(), want_argmin)
    return replays.call_count


def _table(coords):
    return build_subproblem_table(validate_convex_ccw(coords))


def _sweep_tables(mode):
    """The tables of ``mode`` at n = 4 .. 40, 30 seeds each, raw and, where
    that is still a strictly convex polygon, rounded to a 1e-2 grid."""
    for n in range(4, 41, 2):
        for seed in range(30):
            coords = generate(GenSpec(n, mode, seed)).coords()
            yield _table(coords)
            try:  # ties on a 1e-2 grid; rounding can flatten a cluster
                yield _table([(round(x, 2), round(y, 2)) for x, y in coords])
            except BnmatchError:
                pass


class TestThreeChainSearch:
    """The search, one kernel call, against the NumPy reference."""

    @pytest.mark.parametrize("mode", ["circle", "valtr", "cluster3"])
    def test_generator_sweeps_and_grid_rounding(self, mode):
        survivors = 0
        for T in _sweep_tables(mode):
            survivors += _search_matches_reference(T)
            survivors += _search_matches_reference(T, math.inf)
        assert survivors > 0 or mode != "cluster3"

    def test_candidates_are_diagonals_in_search_order(self):
        # the search and reference_three_chain both read T.necessary as it
        # stands, so its layout and order are checked here: each row (i, j)
        # is a diagonal, the rows increase in i*n + j, and c <= 2n
        for T in (*(T for mode in ("circle", "valtr", "cluster3") for T in _sweep_tables(mode)),
                  *(_table(f(n)) for f in (parabola_cap, two_arcs)
                    for n in (16, 30, 64, 100, 128, 250, 512, 1024, 2048, 4096, 8192))):
            n, (i, j) = T.n, T.necessary.T
            m = (j - i) % n + 1
            assert ((0 <= T.necessary) & (T.necessary < n)).all(), n
            assert ((m % 2 == 0) & (4 <= m) & (m <= n - 2)).all(), n
            assert (np.diff(T.necessary.dot((n, 1))) > 0).all(), n
            assert len(T.necessary) <= 2 * n, n

    def test_tie_heavy_polygons(self):
        tables = [_table(regular(n)) for n in range(4, 129, 2)]
        tables += [_table(equiangular(n)) for n in range(6, 241, 6)]
        for T in tables:
            _search_matches_reference(T)
            _search_matches_reference(T, math.inf)

    def test_many_survivors(self):
        # against +inf only the best so far prunes, and it leaves one
        # survivor on each parabola cap (two arcs list no candidate); with
        # the bases zeroed no prune holds, and each of the caps' 274
        # candidates is replayed
        survivors = zeroed = 0
        for family in (parabola_cap, two_arcs):
            for n in (16, 30, 64, 100, 128, 250, 512, 1024, 2048):
                T = _table(family(n))
                survivors += _search_matches_reference(T, math.inf)
                zeroed += _search_matches_reference(
                    dataclasses.replace(T, bases=np.zeros_like(T.bases)), math.inf)
        assert (survivors, zeroed) == (8, 274)

    def test_solve_never_reads_arc_values(self):
        P = gen_cluster3(16, 1)
        with mock.patch.object(SubproblemTable, "arc_values", side_effect=AssertionError):
            assert solve(P).structure == "three-cascade"

    def test_overflowing_optimum_with_finite_bases_is_named(self):
        # squared lengths scaled by 2^1032: the candidates' bases stay
        # finite, the one-cascade value and every split of the one
        # surviving candidate overflow, and the verifier's check names it
        coords = gen_cluster3(12, 0, 0.0405).coords()
        P = validate_convex_ccw([(math.ldexp(x, 516), math.ldexp(y, 516)) for x, y in coords])
        T = build_subproblem_table(P)
        assert len(T.bases) and np.isfinite(T.bases).all()
        assert dp_core.one_cascade_optimum(T)[0] == math.inf
        assert solver._three_chain(T, math.inf) == (math.inf, None)
        with pytest.raises(NonFiniteValueError) as raised:
            solve(P)
        assert str(raised.value) == (
            "NonFiniteValue: the bottleneck's squared length overflows float64")
        assert "failed_check" in [entry.name for entry in raised.traceback]


def _report_key(rep):
    return (rep.value.hex(), rep.matching.pairs, rep.structure, rep.candidate_count)


def _solve_at_stride(P, stride):
    with forced_stride(stride):
        return _report_key(solve(P))


class TestCheckpointStride:
    """solve answers the same whichever value rows the table keeps."""

    @pytest.mark.parametrize("mode", ["circle", "valtr", "cluster3"])
    def test_forced_strides_match_stride_one(self, mode):
        structures = set()
        for n in (8, 16, 32, 64, 128, 256, 512):
            for seed in range(3):
                P = generate(GenSpec(n, mode, 100 + seed))
                dense = _solve_at_stride(P, 1)
                for stride in (3, max(1, math.isqrt(n // 2)), math.isqrt(2 * n)):
                    assert _solve_at_stride(P, stride) == dense, (n, seed)
                structures.add(dense[2])
        if mode == "cluster3":
            assert "three-cascade" in structures

    def test_cluster3_2048_default_stride_matches_stride_one(self):
        P = generate(GenSpec(2048, "cluster3", 5))
        assert dp_core.checkpoint_stride(2048) > 1
        default = _report_key(solve(P))
        assert default[2] == "three-cascade"
        assert _solve_at_stride(P, 1) == default

    def test_candidate_bases_peak_without_replay(self):
        # a parabola cap has about n/15 candidates (274 here), whose bases
        # the fill stores, so solve replays none: beyond the kept value rows
        # its traced peak stays O(n). Measured 38 B/point; 143 with the NumPy
        # fill, a chunked replay of the bases 171, one replay of all 274
        # windows at once 864
        n = 4096
        P = validate_convex_ccw(parabola_cap(n))
        with forced_stride(math.isqrt(n // 2)):
            table = build_subproblem_table(P).S.nbytes
            tracemalloc.start()
            try:
                solve(P)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak - table <= 256 * n, (peak - table) / n

    @pytest.mark.parametrize("mode", ["valtr", "cluster3"])
    def test_solve_memory_per_table_entry(self, mode):
        # no move tags are stored; the value checkpoints at stride 64 take
        # 8n(16 + 2) bytes, 0.14 B/entry, and the candidates, the fill's row
        # scratch, replays and everything else in solve stay within the
        # rest (cluster3 replays the complements of its candidates, valtr
        # has none). Measured: 0.17 (valtr) and 0.18 (cluster3) B/entry;
        # 0.23 and 0.25 with the NumPy fill, 0.29 and 0.27 with two more row
        # temporaries in it and the matching's tuples built beside the table
        n = 2048
        P = generate(GenSpec(n, mode, 3))
        tracemalloc.start()
        try:
            solve(P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        entries = (n // 2 + 1) * n
        assert peak <= 0.31 * entries, peak / entries

    def test_solve_peak_beyond_value_rows_per_point(self):
        # beside the kept value rows, solve's peak is the fill's scratch:
        # two rows, the reach, a flag byte a point and the edges. The walk
        # keeps 16 bytes a pair, and the table is freed before the
        # matching's tuples are built. Measured 34 B/point; 99 with the
        # NumPy fill (the coordinates and edges twice over and a (2, n) d2
        # buffer), 115 with its moves in two temporaries of their own, 134
        # with the table alive through the tuples and the verification, 169
        # with a tuple per pair kept by the walk
        n = 4096
        P = generate(GenSpec(n, "valtr", 3))
        assert dp_core.checkpoint_stride(n) > 1
        rows = build_subproblem_table(P).S.nbytes
        tracemalloc.start()
        try:
            solve(P)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - rows <= 106 * n, (peak - rows) / n


def _address_reads(P) -> int:
    """How many NumPy ``ctypes`` objects one warm solve of P makes: each is
    a read of an array's address for the kernel."""
    solve(P)
    init = type(np.empty(0).ctypes).__init__.__code__
    profile = cProfile.Profile()
    profile.enable()
    try:
        solve(P)
    finally:
        profile.disable()
    key = (init.co_filename, init.co_firstlineno, init.co_name)
    return pstats.Stats(profile).stats.get(key, (0, 0))[1]


@pytest.mark.parametrize("mode, structure", [("valtr", "one-cascade"), ("cluster3", "three-cascade")])
def test_solve_reads_at_most_four_addresses(mode, structure):
    # a read costs about 1.3 us, where a small solve takes about 70 us. The
    # kernel takes its buffers as ctypes arrays, with no read; the fill reads
    # the coordinates' two addresses, for itself and the table, and
    # candidate_reach reads them again. With NumPy-owned buffers a solve
    # read 19 (one cascade) and 23 (three)
    P = generate(GenSpec(16, mode, 1))
    assert solve(P).structure == structure
    assert _address_reads(P) <= 4


@pytest.mark.parametrize("mode, n, parent", [("valtr", 16, 5161), ("cluster3", 256, 32749)])
def test_small_solve_peak(mode, n, parent):
    # at small n a solve's traced peak is mostly Python objects: the
    # kernel's buffers, owned by ctypes, each with a NumPy view where
    # Python reads it, stay within 2% of the peak with NumPy-owned ones.
    # The least of 20 warm solves, each after a full collection, which
    # empties the free lists, so every object a solve makes is traced.
    # Measured in five runs: 4785 to 4993 bytes (valtr) and 27377 to 27665
    # (cluster3); with NumPy-owned buffers 5161 to 5257 and 32749 to 32981,
    # whose least is the bound's base
    P = generate(GenSpec(n, mode, 1))
    peaks = []
    for _ in range(20):
        solve(P)
        gc.collect()
        tracemalloc.start()
        try:
            solve(P)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert min(peaks) <= 1.02 * parent, min(peaks)
