import ast
import functools
import itertools
import math
import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bnmatch import (
    Matching,
    cascade_decomposition,
    gen_circle,
    gen_cluster3,
    solve,
    validate_convex_ccw,
    verify_matching,
)
from bnmatch import structure
from bnmatch.cli import main
from bnmatch.errors import BadIndexError, InvalidMatchingError
from bnmatch.formats import instance_to_json, matching_to_json
from conftest import canonical_pairs, oracle_enumerate, segments_cross, turning_angle

approx = pytest.approx


def M(n, pairs):
    return Matching.of(n, pairs)


@functools.cache
def regular(n):
    return validate_convex_ccw(
        [(math.cos(2 * math.pi * k / n), math.sin(2 * math.pi * k / n)) for k in range(n)]
    )


def forest_reference(n, pairs):
    """The reference decomposition: each diagonal's face and the outer face
    from the nesting forest, cascades by union-find over the 2-bounded
    faces, and the count of 3-bounded faces."""
    diagonals = sorted(
        (min(a, b), max(a, b)) for a, b in pairs if (b - a) % n not in (1, n - 1)
    )
    children = {d: [] for d in diagonals}
    roots, stack = [], []
    for iv in sorted(diagonals, key=lambda iv: (iv[0], -iv[1])):
        while stack and not (stack[-1][0] <= iv[0] and iv[1] <= stack[-1][1]):
            stack.pop()
        (children[stack[-1]] if stack else roots).append(iv)
        stack.append(iv)
    faces = tuple((d, *children[d]) for d in diagonals) + (tuple(roots),)
    comp = {d: d for d in diagonals}

    def find(x):
        while comp[x] != x:
            x = comp[x]
        return x

    for face in faces:
        if len(face) == 2:
            comp[find(face[0])] = find(face[1])
    groups = {}
    for d in diagonals:
        groups.setdefault(find(d), []).append(d)
    cascades = tuple(tuple(sorted(g)) for g in sorted(groups.values(), key=min))
    return faces, cascades, sum(len(face) == 3 for face in faces)


def pairwise_non_crossing(pairs, n):
    """The reference crossing test: no two chords with four distinct ends cross."""
    return not any(
        segments_cross(a, b, c, d, n)
        for (a, b), (c, d) in itertools.combinations(pairs, 2)
        if len({a, b, c, d}) == 4
    )


def test_segments_cross_examples():
    assert segments_cross(0, 2, 1, 3, 4) is True
    assert segments_cross(0, 1, 2, 3, 4) is False
    assert segments_cross(0, 3, 1, 2, 6) is False  # nested


@given(n=st.integers(min_value=4, max_value=30), picks=st.permutations(range(30)))
def test_segments_cross_symmetry(n, picks):
    a, b, c, d = [p % n for p in picks[:4]]
    if len({a, b, c, d}) < 4:
        return
    r = segments_cross(a, b, c, d, n)
    assert segments_cross(b, a, c, d, n) is r
    assert segments_cross(a, b, d, c, n) is r
    assert segments_cross(c, d, a, b, n) is r


def _coord_cross(p1, p2, p3, p4) -> bool:
    # proper-intersection test via orientations (oracle for convex position)
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    d1 = orient(p3, p4, p1)
    d2 = orient(p3, p4, p2)
    d3 = orient(p1, p2, p3)
    d4 = orient(p1, p2, p4)
    return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))


def test_segments_cross_matches_coordinates():
    import random

    rnd = random.Random(417)
    for seed in range(20):
        P = gen_circle(12, seed)
        pts = P.coords()
        for _ in range(120):
            a, b, c, d = rnd.sample(range(12), 4)
            assert segments_cross(a, b, c, d, 12) == _coord_cross(
                pts[a], pts[b], pts[c], pts[d]
            ), (seed, a, b, c, d)


class TestMatchingOf:
    def test_integers_and_integral_floats(self):
        m = Matching.of(4, [(np.int64(0), 1.0), (np.int32(2), np.float64(3.0))])
        assert m.pairs == ((0, 1), (2, 3))
        assert all(type(v) is int for pair in m.pairs for v in pair)

    @pytest.mark.parametrize(
        "bad", [0.9, 3.2, True, np.bool_(False), math.nan, math.inf, np.float32(1.5), "1", None]
    )
    def test_rejects_non_integers(self, bad):
        # truncating 0.9 or 3.2 would make this a perfect matching
        with pytest.raises(BadIndexError):
            Matching.of(4, [(0, 1), (2, bad)])


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

    @pytest.mark.parametrize("pairs", [
        ((0.0, 1.0), (2.0, 3.0)),
        ((0.5, 1), (2, 3)),
        ((np.float64(0.0), 1), (2, 3)),
        (("0", 1), (2, 3)),
        ((True, False), (2, 3)),
        ((0, 1), (2, np.bool_(True))),
        ((0, 1), (2, None)),
    ])
    def test_non_integer_index_is_out_of_range(self, sq4, pairs):
        # a Matching built directly skips Matching.of's index check; the
        # verifier reports such an index as out of range and never raises
        rep = verify_matching(sq4, Matching(4, pairs))
        assert (rep.perfect, rep.non_crossing, rep.longest_pair) == (False, False, None)
        assert math.isnan(rep.value)

    @pytest.mark.parametrize("pairs", [
        (0, 1),
        ((0, 1), (2,)),
        ((0, 1), (2, 3, 1)),
        ((0, 1), None),
    ])
    def test_malformed_pairs_are_not_perfect(self, sq4, pairs):
        # a pairs entry that is not two ends is reported, not raised
        rep = verify_matching(sq4, Matching(4, pairs))
        assert (rep.perfect, rep.non_crossing, rep.longest_pair) == (False, False, None)
        assert math.isnan(rep.value)

    def test_numpy_integer_indices_accepted(self, sq4):
        rep = verify_matching(sq4, Matching(4, ((np.int64(0), np.int32(1)), (np.uint8(2), 3))))
        assert rep.perfect and rep.non_crossing and rep.value == 1.0

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

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_sweep_matches_pairwise_on_short_lists(self, n):
        # pins the one sweep to the pairwise test that every non-perfect
        # list used to take: all lists of 1-3 chords, both orientations,
        # repeated chords and shared endpoints included
        P = regular(n)
        chords = [(a, b) for a in range(n) for b in range(n) if a != b]
        for size in (1, 2, 3):
            for pairs in itertools.product(chords, repeat=size):
                rep = verify_matching(P, M(n, pairs))
                assert rep.non_crossing == pairwise_non_crossing(pairs, n), pairs

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


@st.composite
def bracket_matchings(draw):
    """A random non-crossing perfect matching on n <= 400 points.

    Built from a balanced bracket string, rotated by a random shift, with
    each pair in a random orientation.
    """
    n = 2 * draw(st.integers(1, 200))
    opens = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    flips = draw(st.lists(st.booleans(), min_size=n // 2, max_size=n // 2))
    shift = draw(st.integers(0, n - 1))
    pairs, stack = [], []
    for v, want_open in enumerate(opens):
        if not stack or (want_open and len(pairs) + len(stack) < n // 2):
            stack.append(v)
        else:
            pairs.append((stack.pop(), v))
    pairs = [((a + shift) % n, (b + shift) % n) for a, b in pairs]
    return n, [(b, a) if f else (a, b) for (a, b), f in zip(pairs, flips)]


@settings(max_examples=100, deadline=None)
@given(bracket_matchings(), st.data())
def test_random_bracket_matchings(matching, data):
    # pins the sweep on large inputs: a bracket matching verifies as
    # non-crossing, and swapping the ends of two of its chords crosses
    # exactly when pairwise segments_cross says so
    n, pairs = matching
    P = regular(n)
    rep = verify_matching(P, M(n, pairs))
    assert rep.perfect and rep.non_crossing
    if n < 4:
        return
    i, j = data.draw(st.lists(st.integers(0, n // 2 - 1), min_size=2, max_size=2, unique=True))
    (a, b), (c, d) = pairs[i], pairs[j]
    swapped = list(pairs)
    swapped[i], swapped[j] = data.draw(st.sampled_from([((a, c), (b, d)), ((a, d), (c, b))]))
    rep = verify_matching(P, M(n, swapped))
    assert rep.perfect
    assert rep.non_crossing == pairwise_non_crossing(swapped, n)

    # the sweep skips the edges: off perfect lists too, its verdict is the
    # pairwise one. Drop a pair or move one end onto another pair's end,
    # and maybe add the wrap edge (0, n - 1), which contains every end
    k, other = data.draw(st.lists(st.integers(0, n // 2 - 1), min_size=2, max_size=2, unique=True))
    lists = list(swapped)
    if data.draw(st.booleans()):
        del lists[k]
    else:
        lists[k] = (data.draw(st.sampled_from(swapped[other])), swapped[k][1])
    if data.draw(st.booleans()):
        wrap = data.draw(st.sampled_from([(0, n - 1), (n - 1, 0)]))
        lists.insert(data.draw(st.integers(0, len(lists))), wrap)
    rep = verify_matching(P, M(n, lists))
    assert not rep.perfect and rep.decomposition is None
    assert rep.non_crossing == pairwise_non_crossing(lists, n)


class TestClassifyPairs:
    """The key pass of ``_nesting`` keeps the diagonals and skips the edges."""

    @staticmethod
    def keys(n, pairs):
        return structure._nesting(pairs, n)[0]

    def test_mixed(self):
        assert self.keys(6, [(0, 3), (1, 2), (4, 5)]) == [(0, -3)]

    def test_all_edges(self):
        assert self.keys(4, [(0, 1), (2, 3)]) == []

    def test_wraparound_edge(self):
        assert self.keys(4, [(0, 3), (1, 2)]) == []

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_every_ordered_pair_against_two_sided_rule(self, n):
        # an edge is adjacent mod n either way round, tested from both ends;
        # each ordered pair alone yields its (lo, -hi) key exactly when it is
        # a diagonal
        for a in range(n):
            for b in range(n):
                if a != b:
                    two_sided = (b - a) % n == 1 or (a - b) % n == 1
                    want = [] if two_sided else [(min(a, b), -max(a, b))]
                    assert self.keys(n, [(a, b)]) == want, (a, b)


class TestCascadeDecomposition:
    def test_all_edges(self, hex6):
        d = cascade_decomposition(hex6, M(6, [(0, 1), (2, 3), (4, 5)]))
        assert d.cascade_count == 0
        assert d.three_bounded_count == 0

    def test_nested_pair(self):
        P = gen_circle(8, 0)
        d = cascade_decomposition(P, M(8, [(0, 7), (1, 6), (2, 5), (3, 4)]))
        assert d.cascade_count == 1
        assert d.cascades[0] == ((1, 6), (2, 5))
        assert d.three_bounded_count == 0

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
                        faces = forest_reference(n, m)[0]
                        assert all(len(f) <= 3 for f in faces), (n, seed, m)
                        checked += 1
        assert checked > 0

    def test_matches_forest_union_find_reference(self):
        # pins the derivation from parent links to the reference's nesting
        # forest, edge-free faces and union-find
        checked = 0
        for n in range(2, 17, 2):  # n = 16 is the first with a 4-bounded face
            for m in oracle_enumerate(n):
                pairs = [(b, a) if t % 2 else (a, b) for t, (a, b) in enumerate(m)]
                d = cascade_decomposition(regular(n), M(n, pairs))
                _, cascades, three_bounded = forest_reference(n, pairs)
                assert (d.cascades, d.three_bounded_count) == (cascades, three_bounded), pairs
                checked += 1
        assert checked == 1 + 2 + 5 + 14 + 42 + 132 + 429 + 1430

    def test_rejects_invalid(self, sq4):
        with pytest.raises(InvalidMatchingError):
            cascade_decomposition(sq4, M(4, [(0, 2), (1, 3)]))
        with pytest.raises(InvalidMatchingError):
            cascade_decomposition(sq4, M(4, [(0, 1), (1, 2)]))


def test_canonical_pairs():
    assert canonical_pairs([(3, 0), (2, 1)]) == ((0, 3), (1, 2))


class TestOneSweep:
    """Each check of a matching sorts and sweeps its chords once."""

    @staticmethod
    def counted():
        return mock.patch.object(structure, "_nesting", wraps=structure._nesting)

    def test_solve(self):
        P = gen_cluster3(14, 5)
        with self.counted() as nesting:
            solve(P)
        assert nesting.call_count == 1

    def test_cascade_decomposition(self, hex6):
        with self.counted() as nesting:
            cascade_decomposition(hex6, M(6, [(0, 5), (1, 4), (2, 3)]))
        assert nesting.call_count == 1

    def test_cli_verify(self, tmp_path, capsys):
        P = gen_cluster3(14, 5)
        rep = solve(P)
        inst, m = tmp_path / "p.json", tmp_path / "m.json"
        inst.write_text(instance_to_json(P.coords()), encoding="utf-8")
        m.write_text(
            matching_to_json(P.n, rep.value, rep.matching.pairs, rep.structure, rep.cascades, None),
            encoding="utf-8",
        )
        with self.counted() as nesting:
            assert main(["verify", str(inst), str(m)]) == 0
        assert nesting.call_count == 1
        assert capsys.readouterr().out.startswith("OK")

    def test_report_carries_the_decomposition(self):
        # every pair list over distinct chords of up to 8 points with n/2
        # pairs or one fewer: perfect or not, crossing or not
        for n in (4, 6, 8):
            P = regular(n)
            chords = list(itertools.combinations(range(n), 2))
            for size in (n // 2 - 1, n // 2):
                for pairs in itertools.combinations(chords, size):
                    rep = verify_matching(P, M(n, pairs))
                    d = rep.decomposition
                    assert (d is None) == (not (rep.perfect and rep.non_crossing)), pairs
                    if d is not None:
                        ref = cascade_decomposition(P, M(n, pairs))
                        got = (d.cascades, d.three_bounded_count)
                        assert got == (ref.cascades, ref.three_bounded_count)
                        assert got == forest_reference(n, pairs)[1:]

    def test_solve_reports_the_verified_decomposition(self):
        for seed in range(8):
            for P in (gen_circle(14, seed), gen_cluster3(14, seed)):
                rep = solve(P)
                d = verify_matching(P, rep.matching).decomposition
                assert (d.cascade_count, d.structure) == (rep.cascades, rep.structure)


def test_no_tolerance_literal_decides_a_result():
    # a float literal with 0 < |x| < 1e-3 in these modules is most likely a
    # tolerance; generators' draw spacing decides no result and is not listed
    src = pathlib.Path(structure.__file__).parent
    found = []
    for name in ("dp_core", "solver", "structure", "baselines", "cli", "geometry", "formats"):
        tree = ast.parse((src / f"{name}.py").read_text(encoding="utf-8"))
        found += [
            (name, node.lineno, node.value) for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and type(node.value) is float
            and 0 < abs(node.value) < 1e-3
        ]
    assert found == []
