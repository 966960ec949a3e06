import math

import pytest

from bnmatch import (
    Matching,
    cascade_decomposition,
    classify_pairs,
    gen_circle,
    oracle_enumerate,
    validate_convex_ccw,
    verify_matching,
)
from bnmatch.circular import segments_cross
from bnmatch.errors import InvalidMatchingError
from bnmatch.structure import canonical_pairs

approx = pytest.approx


def M(n, pairs):
    return Matching.of(n, pairs)


class TestVerifyMatching:
    def test_crossing_square_diagonals(self, sq4):
        rep = verify_matching(sq4, M(4, [(0, 2), (1, 3)]))
        assert rep.perfect and not rep.non_crossing

    def test_valid_square_edges(self, sq4):
        rep = verify_matching(sq4, M(4, [(0, 1), (2, 3)]))
        assert rep.perfect and rep.non_crossing
        assert rep.value == 1.0
        assert rep.longest_pair in ((0, 1), (2, 3))

    def test_repeated_index(self, sq4):
        rep = verify_matching(sq4, M(4, [(0, 1), (1, 2)]))
        assert not rep.perfect

    def test_wrong_pair_count(self, sq4):
        rep = verify_matching(sq4, M(4, [(0, 1)]))
        assert not rep.perfect

    def test_out_of_range(self, sq4):
        rep = verify_matching(sq4, M(4, [(0, 9), (1, 2)]))
        assert not rep.perfect and not rep.non_crossing
        assert math.isnan(rep.value)

    def test_n_mismatch(self, sq4):
        rep = verify_matching(sq4, M(6, [(0, 1), (2, 3)]))
        assert not rep.perfect

    def test_stack_scan_large(self):
        n = 128
        P = gen_circle(n, 3)
        good = [(i, i + 1) for i in range(0, n, 2)]
        assert verify_matching(P, M(n, good)).non_crossing
        bad = [(0, 2), (1, 3)] + [(i, i + 1) for i in range(4, n, 2)]
        rep = verify_matching(P, M(n, bad))
        assert rep.perfect and not rep.non_crossing

    def test_stack_scan_matches_pairwise_exhaustively(self):
        # every perfect matching, crossing or not, of up to 12 points; the
        # pairs alternate orientation so the scan sees both (a, b) and (b, a)
        def all_perfect(vs):
            if not vs:
                yield ()
                return
            for t in range(1, len(vs)):
                for rest in all_perfect(vs[1:t] + vs[t + 1:]):
                    yield ((vs[0], vs[t]),) + rest

        for n in range(2, 13, 2):
            P = validate_convex_ccw(
                [(math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n)) for k in range(n)]
            )
            crossing = 0
            for m in all_perfect(tuple(range(n))):
                pairs = [(b, a) if t % 2 else (a, b) for t, (a, b) in enumerate(m)]
                want = not any(
                    segments_cross(*pairs[x], *pairs[y], n)
                    for x in range(len(pairs))
                    for y in range(x + 1, len(pairs))
                )
                rep = verify_matching(P, M(n, pairs))
                assert rep.perfect and rep.non_crossing == want, (n, pairs)
                crossing += not want
            assert crossing > 0 or n <= 2

    def test_pairwise_path_for_non_perfect(self, hex6):
        rep = verify_matching(hex6, M(6, [(0, 3), (1, 4)]))
        assert not rep.perfect and not rep.non_crossing
        rep = verify_matching(hex6, M(6, [(0, 3), (1, 2)]))
        assert not rep.perfect and rep.non_crossing
        rep = verify_matching(hex6, M(6, [(0, 3), (0, 3), (1, 2)]))
        assert not rep.perfect and rep.non_crossing

    def test_value_matches_longest(self, skew4):
        rep = verify_matching(skew4, M(4, [(0, 1), (2, 3)]))
        assert rep.longest_pair == (2, 3)
        (x2, y2), (x3, y3) = skew4.coords()[2:]
        assert rep.value == math.sqrt((x3 - x2) ** 2 + (y3 - y2) ** 2)


    @pytest.mark.parametrize("n", [4, 6, 8, 12])
    def test_ties_report_first_longest_pair(self, sq4, n):
        # regular n-gons: the square's edges tie exactly, the others up to
        # rounding; the first maximum wins, as in a strict > scan
        if n == 4:
            P = sq4
        else:
            P = validate_convex_ccw(
                [(math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n)) for k in range(n)]
            )
        pts = P.coords()
        for shift in (0, 1):
            edges = [((t + shift) % n, (t + shift + 1) % n) for t in range(0, n, 2)]
            for pairs in (edges, edges[::-1]):
                rep = verify_matching(P, M(n, pairs))
                best, longest = -1.0, None
                for a, b in pairs:
                    dx, dy = pts[b][0] - pts[a][0], pts[b][1] - pts[a][1]
                    if dx * dx + dy * dy > best:
                        best, longest = dx * dx + dy * dy, (a, b)
                assert rep.longest_pair == longest
                assert type(rep.value) is float
                assert rep.value.hex() == math.sqrt(best).hex()
        assert verify_matching(sq4, M(4, [(2, 3), (0, 1)])).longest_pair == (2, 3)


class TestClassifyPairs:
    def test_mixed(self):
        edges, diagonals = classify_pairs(M(6, [(0, 3), (1, 2), (4, 5)]))
        assert edges == [(1, 2), (4, 5)]
        assert diagonals == [(0, 3)]

    def test_all_edges(self):
        edges, diagonals = classify_pairs(M(4, [(0, 1), (2, 3)]))
        assert len(edges) == 2 and not diagonals

    def test_wraparound_edge(self):
        edges, diagonals = classify_pairs(M(4, [(0, 3), (1, 2)]))
        assert len(edges) == 2 and not diagonals


class TestCascadeDecomposition:
    def test_all_edges(self, hex6):
        d = cascade_decomposition(hex6, M(6, [(0, 1), (2, 3), (4, 5)]))
        assert d.cascade_count == 0
        assert d.three_bounded_count == 0
        assert len(d.regions) == 1
        assert d.regions[0].bounding_diagonals == ()
        assert d.regions[0].bounding_edge_count == 3

    def test_nested_pair(self):
        P = gen_circle(8, 0)
        d = cascade_decomposition(P, M(8, [(0, 7), (1, 6), (2, 5), (3, 4)]))
        assert d.cascade_count == 1
        assert d.cascades[0] == ((1, 6), (2, 5))
        assert d.three_bounded_count == 0
        # regions: inside (2,5) holds edge (3,4); between the diagonals,
        # nothing; the outer region holds the wraparound edge (0,7)
        by_bound = {r.bounding_diagonals: r for r in d.regions}
        assert by_bound[((2, 5),)].bounding_edge_count == 1
        assert by_bound[((1, 6), (2, 5))].bounding_edge_count == 0
        assert by_bound[((1, 6),)].bounding_edge_count == 1

    def test_five_cascade_archetype(self):
        # 3 singleton cascades, one 2-chain, one 3-chain
        n = 26
        pts = [
            (math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n))
            for k in range(n)
        ]
        P = validate_convex_ccw(pts)
        pairs = [
            (0, 7), (1, 6), (2, 5), (3, 4),          # 3-chain
            (8, 13), (9, 12), (10, 11),              # 2-chain
            (14, 23), (15, 18), (16, 17), (19, 22), (20, 21),  # fork: 3 singletons
            (24, 25),
        ]
        d = cascade_decomposition(P, M(n, pairs))
        sizes = sorted(len(c) for c in d.cascades)
        assert sizes == [1, 1, 1, 2, 3]
        # the fork region and the 3-root outer region
        assert d.three_bounded_count == 2

    def test_bounding_counts_sum(self):
        P = gen_circle(10, 1)
        for m in oracle_enumerate(10):
            d = cascade_decomposition(P, M(10, m))
            diag_count = sum(len(c) for c in d.cascades)
            assert sum(len(r.bounding_diagonals) for r in d.regions) == 2 * diag_count
            assert len(d.regions) == diag_count + 1
            assert sum(r.bounding_edge_count for r in d.regions) == 5 - diag_count

    def test_never_exactly_two_cascades(self):
        # over every matching of every size up to 12
        for n in range(4, 13, 2):
            P = gen_circle(n, 7)
            for m in oracle_enumerate(n):
                d = cascade_decomposition(P, M(n, m))
                assert d.cascade_count != 2, (n, m)

    def test_wide_diagonals_imply_no_fat_region(self):
        # if every diagonal turns by more than pi/2 both ways, the turn
        # budget of 2*pi leaves no room for a region with 4+ diagonals
        from bnmatch import turning_angle

        checked = 0
        for n in (8, 10, 12):
            for seed in range(4):
                P = gen_circle(n, seed)
                for m in oracle_enumerate(n):
                    diagonals = [
                        (a, b)
                        for a, b in m
                        if (b - a) % n != 1 and (a - b) % n != 1
                    ]
                    if not diagonals:
                        continue
                    if all(
                        min(turning_angle(P, a, b), turning_angle(P, b, a))
                        > math.pi / 2
                        for a, b in diagonals
                    ):
                        d = cascade_decomposition(P, M(n, m))
                        assert all(
                            len(r.bounding_diagonals) <= 3 for r in d.regions
                        ), (n, seed, m)
                        checked += 1
        assert checked > 0

    def test_rejects_invalid(self, sq4):
        with pytest.raises(InvalidMatchingError):
            cascade_decomposition(sq4, M(4, [(0, 2), (1, 3)]))
        with pytest.raises(InvalidMatchingError):
            cascade_decomposition(sq4, M(4, [(0, 1), (1, 2)]))


def test_canonical_pairs():
    assert canonical_pairs([(3, 0), (2, 1)]) == ((0, 3), (1, 2))
