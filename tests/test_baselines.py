import math

import pytest

from bnmatch import (
    GenSpec,
    cascade_decomposition,
    cubic_solve,
    gen_circle,
    gen_valtr,
    generate,
    oracle_solve,
    validate_convex_ccw,
    verify_matching,
)
from bnmatch.baselines import _fill_cubic, _sq_dist_matrix
from bnmatch.errors import OddCountError, TooLargeError
from bnmatch.structure import Matching
from conftest import SKEW4_VALUE, canonical_pairs, oracle_enumerate, sq_dist, turning_angle

approx = pytest.approx

CATALAN = {2: 1, 4: 2, 6: 5, 8: 14, 10: 42, 12: 132, 14: 429, 16: 1430}


class TestCubic:
    def test_sq4(self, sq4):
        value, m = cubic_solve(sq4)
        assert value == 1.0
        assert verify_matching(sq4, m).non_crossing

    def test_hex6(self, hex6):
        value, _ = cubic_solve(hex6)
        assert value == approx(1.0, rel=1e-12)

    def test_skew4(self, skew4):
        value, m = cubic_solve(skew4)
        assert value == approx(SKEW4_VALUE, rel=1e-12)
        assert canonical_pairs(m.pairs) == ((0, 1), (2, 3))

    def test_table_base_entries(self, skew4):
        _, b = _fill_cubic(skew4)
        for i in range(3):
            assert b[i][i + 1] == sq_dist(skew4, i, i + 1)

    def test_matches_oracle(self):
        for n in (6, 8, 10, 12, 14):
            for seed in range(6):
                P = gen_circle(n, seed) if seed % 2 else gen_valtr(n, seed)
                cv, cm = cubic_solve(P)
                ov, _ = oracle_solve(P)
                assert cv == ov, (n, seed)
                rep = verify_matching(P, cm)
                assert rep.perfect and rep.non_crossing
                assert rep.value == cv


class TestOracleEnumerate:
    @pytest.mark.parametrize("n,count", sorted(CATALAN.items()))
    def test_catalan_counts(self, n, count):
        assert sum(1 for _ in oracle_enumerate(n)) == count

    def test_all_distinct(self):
        for n in (6, 8, 10):
            seen = {canonical_pairs(m) for m in oracle_enumerate(n)}
            assert len(seen) == CATALAN[n]

    def test_all_valid(self):
        for n in (2, 4, 6, 8, 10):
            P = gen_circle(n, 5) if n >= 4 else None
            for m in oracle_enumerate(n):
                assert sorted(i for p in m for i in p) == list(range(n))
                if P is not None:
                    rep = verify_matching(P, Matching.of(n, m))
                    assert rep.perfect and rep.non_crossing

    def test_guards(self):
        with pytest.raises(TooLargeError):
            list(oracle_enumerate(22))
        with pytest.raises(OddCountError):
            list(oracle_enumerate(7))


class TestOracleSolve:
    def test_sq4_both_edge_matchings(self, sq4):
        value, optimal = oracle_solve(sq4)
        assert value == 1.0
        assert {canonical_pairs(m.pairs) for m in optimal} == {
            ((0, 1), (2, 3)),
            ((0, 3), (1, 2)),
        }

    def test_skew4_unique(self, skew4):
        value, optimal = oracle_solve(skew4)
        assert value == approx(SKEW4_VALUE, rel=1e-12)
        assert [canonical_pairs(m.pairs) for m in optimal] == [((0, 1), (2, 3))]

    def test_hex6_lists_the_exact_achiever_only(self, hex6):
        # the all-edges matching ((0, 1), (2, 3), (4, 5)) rounds to a squared
        # bottleneck of 0x1.0000000000004p+0, above the minimum
        # 0x1.ffffffffffffep-1, so it is no achiever
        value, optimal = oracle_solve(hex6)
        assert value == approx(1.0, rel=1e-12)
        assert [canonical_pairs(m.pairs) for m in optimal] == [((0, 5), (1, 2), (3, 4))]

    def test_too_large(self):
        P = gen_circle(22, 0)
        with pytest.raises(TooLargeError):
            oracle_solve(P)

    @staticmethod
    def _two_pass(P):
        """The reference: one pass finds the minimum, a second lists the
        matchings that achieve it exactly."""
        n = P.n
        D = _sq_dist_matrix(P)
        matchings = list(oracle_enumerate(n))

        def score(m):
            mx = 0.0
            for a, b in m:
                if D[a][b] > mx:
                    mx = D[a][b]
            return mx

        best = math.inf
        for m in matchings:
            mx = score(m)
            if mx < best:
                best = mx
        return math.sqrt(best), [m for m in matchings if score(m) == best]

    def test_matches_two_pass_reference(self):
        def polygons(n):
            for r in (1.0, 0.6, 0.3):  # regular, then elliptic: full of ties
                angles = [2 * math.pi * (k + 0.25) / n for k in range(n)]
                yield [(math.cos(a), r * math.sin(a)) for a in angles]
            for mode in ("circle", "valtr", "cluster3"):
                for seed in range(3):
                    yield generate(GenSpec(n, mode, seed)).coords()

        for n in range(4, 15, 2):
            for coords in polygons(n):
                P = validate_convex_ccw(coords)
                value, optimal = oracle_solve(P)
                ref_value, ref_optimal = self._two_pass(P)
                assert value.hex() == ref_value.hex(), n
                assert [m.pairs for m in optimal] == ref_optimal, n


class TestStructuralExistence:
    """Some optimal matching is always structurally tame."""

    def _sweep(self):
        for n in (6, 8, 10, 12):
            for seed in range(8):
                yield gen_circle(n, seed) if seed % 2 else gen_valtr(n, seed)

    def test_some_optimum_has_few_cascades(self):
        for P in self._sweep():
            _, optimal = oracle_solve(P)
            ok = False
            for m in optimal:
                d = cascade_decomposition(P, m)
                if d.cascade_count <= 3 and d.three_bounded_count <= 1:
                    ok = True
                    break
            assert ok, P.n

    def test_some_optimum_has_wide_diagonals(self):
        # at least one optimum whose every diagonal spans a turn > pi/2
        # whichever way the pair is oriented
        for P in self._sweep():
            _, optimal = oracle_solve(P)
            ok = False
            for m in optimal:
                diagonals = [(a, b) for a, b in m.pairs if (b - a) % P.n not in (1, P.n - 1)]
                if all(
                    min(turning_angle(P, a, b), turning_angle(P, b, a)) > math.pi / 2
                    for a, b in diagonals
                ):
                    ok = True
                    break
            assert ok, P.n
