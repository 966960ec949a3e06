import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bnmatch import (
    GenSpec,
    gen_circle,
    gen_valtr,
    generate,
    validate_convex_ccw,
)
from bnmatch.errors import (
    BadIndexError,
    BnmatchError,
    DuplicatePointError,
    NonFiniteError,
    NotCcwError,
    NotStrictlyConvexError,
    OddCountError,
    TooFewError,
)
from bnmatch.formats import instance_to_json, parse_instance
from conftest import (
    SQ4_COORDS, DegenerateSegmentError, PolarityRegion, classify_polarity_region, convex_polygons,
    exact_turns, reference_validation_error, sq_dist, turning_angle, winding,
)

approx = pytest.approx


def _ulps(v: float, k: int) -> float:
    """v moved k floats up (k > 0) or down."""
    for _ in range(abs(k)):
        v = math.nextafter(v, math.copysign(math.inf, k))
    return v


@st.composite
def near_collinear_hexagons(draw):
    """A, M, B, C, N, D: a convex quadrilateral ABCD, jittered on a grid of
    2^-10, with M on AB and N on CD, each at a float fraction of its edge
    (a grid midpoint is often exact) and each of their coordinates moved by
    up to 4 ulps; all scaled by 2^e, which no rounding spoils. Only the
    turns at M and N are close: they come out left, right or straight."""
    corners = [(-1, -1), (1, -1), (1, 1), (-1, 1)]
    a, b, c, d = ((x + draw(st.integers(-300, 300)) / 1024, y + draw(st.integers(-300, 300)) / 1024)
                  for x, y in corners)

    def on(p, q):
        t = draw(st.sampled_from([0.5, 0.25]) | st.floats(0.05, 0.95))
        point = (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))
        return tuple(_ulps(v, draw(st.integers(-4, 4))) for v in point)

    e = draw(st.integers(-530, 500))
    return [(math.ldexp(x, e), math.ldexp(y, e)) for x, y in (a, on(a, b), b, c, on(c, d), d)]


def _exact_verdict(coords) -> str | None:
    """The message validation must raise for these distinct points, by their
    exact turns, or None; an all-left hexagon of near_collinear_hexagons
    goes around once."""
    turns = exact_turns(coords)
    if 0 in turns:
        return f"NotStrictlyConvex: collinear triple at vertex {turns.index(0)}"
    if set(turns) == {-1}:
        return "NotCcw: all turns are clockwise"
    if -1 in turns:
        return f"NotStrictlyConvex: right turn at vertex {turns.index(-1)}"
    return None


@st.composite
def spoiled_polygons(draw):
    """A convex polygon with one to three faults injected, each a repeat of
    another vertex (the next one or any), a vertex moved to its neighbours'
    float midpoint (collinear, or a turn of a few ulps either way), a
    vertex pulled towards the centre (a right turn) or the whole polygon
    listed twice (it winds twice); at times clockwise."""
    pts = draw(convex_polygons())
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["adjacent", "repeat", "midpoint", "inward", "twice"]))
        n = len(pts)
        i = draw(st.integers(0, n - 1))
        if kind == "twice":
            pts = pts + pts
        elif kind == "adjacent":
            pts[(i + 1) % n] = pts[i]
        elif kind == "repeat":
            pts[draw(st.integers(0, n - 1))] = pts[i]
        elif kind == "midpoint":
            (ax, ay), (bx, by) = pts[i - 1], pts[(i + 1) % n]
            pts[i] = ((ax + bx) / 2, (ay + by) / 2)
        else:
            pts[i] = (pts[i][0] * 0.25, pts[i][1] * 0.25)
    return pts[::-1] if draw(st.booleans()) else pts


def _validation_error(coords) -> tuple[type, str] | None:
    try:
        validate_convex_ccw(coords)
    except BnmatchError as e:
        return type(e), str(e)
    return None


class TestValidate:
    @settings(max_examples=400, deadline=None)
    @given(spoiled_polygons())
    def test_errors_match_the_documented_order(self, coords):
        # the duplicate sort runs only where a turn check fails, yet the
        # class and message are those of the checks in their documented
        # order, duplicates first
        assert _validation_error(coords) == reference_validation_error(coords)

    @pytest.mark.parametrize("coords, message", [
        # all turns left, but it winds twice: the repeat is named
        (SQ4_COORDS * 2, "DuplicatePoint: (0.0, 0.0)"),
        # the repeat makes a zero cross product at vertex 1
        ([(0, 0), (1, 0), (1, 0), (0, 1)], "DuplicatePoint: (1.0, 0.0)"),
        # no turn to check
        ([(2, 3), (2, 3)], "DuplicatePoint: (2.0, 3.0)"),
    ], ids=["square-twice", "adjacent-repeat", "2-gon"])
    def test_repeats_named_before_turns(self, coords, message):
        assert _validation_error(coords) == (DuplicatePointError, message)
        assert reference_validation_error(coords) == (DuplicatePointError, message)

    def test_square_ok(self, sq4):
        assert sq4.n == 4
        assert sq4.coords() == SQ4_COORDS
        assert exact_turns(sq4.coords()) == [1, 1, 1, 1] and winding(sq4) == 1

    def test_collinear_triple(self):
        with pytest.raises(NotStrictlyConvexError):
            validate_convex_ccw([(0, 0), (1, 0), (2, 0), (0, 1)])

    def test_clockwise(self):
        with pytest.raises(NotCcwError):
            validate_convex_ccw(list(reversed(SQ4_COORDS)))

    def test_odd_count(self):
        with pytest.raises(OddCountError):
            validate_convex_ccw([(0, 0), (1, 0), (0, 1), (2, 2), (1, 3), (0, 2)][:5])

    def test_too_few(self):
        with pytest.raises(TooFewError):
            validate_convex_ccw([])
        with pytest.raises(TooFewError):
            validate_convex_ccw([(0, 0)])

    def test_duplicate(self):
        with pytest.raises(DuplicatePointError):
            validate_convex_ccw([(0, 0), (1, 0), (0, 0), (0, 1)])

    def test_non_finite(self):
        with pytest.raises(NonFiniteError):
            validate_convex_ccw([(0, 0), (1, 0), (math.nan, 1), (0, 1)])

    def test_nonconvex_mixed_turns(self):
        with pytest.raises(NotStrictlyConvexError):
            validate_convex_ccw([(0, 0), (2, 0), (1, 0.1), (1, 2)])

    def test_two_points(self):
        # a 2-gon has no turn to check: both of its "turns" are reversals
        P = validate_convex_ccw([(0, 0), (3, 1)])
        assert P.coords() == [(0.0, 0.0), (3.0, 1.0)]
        assert exact_turns(P.coords()) == [0, 0] and winding(P) == 1

    def test_double_winding_rejected(self):
        # all-left-turn ordering that winds twice around the centroid
        pts = [
            (math.cos(2 * math.pi * (2 * k % 5) / 5), math.sin(2 * math.pi * (2 * k % 5) / 5))
            for k in range(5)
        ]
        pts.append((2.0, 0.0))
        with pytest.raises((NotStrictlyConvexError, NotCcwError)):
            validate_convex_ccw(pts)

    def test_exact_left_turn_accepted(self):
        # the float cross product at vertex 1 is 0, but the exact turn is
        # +8.66e-19: strictly convex
        coords = [(0.1, 0.2), (0.5524871710937623, 0.7279016996093894), (0.7, 0.9), (0.0, 1.0)]
        assert exact_turns(coords) == [1, 1, 1, 1]
        assert validate_convex_ccw(coords).coords() == coords

    def test_overflowing_cross_products_accepted(self):
        # every cross product overflows float64, but the square is strictly
        # convex in exact arithmetic; its solve fails as NonFiniteValue
        coords = [(0.0, 0.0), (1e300, -1e300), (2e300, 0.0), (1e300, 1e300)]
        assert exact_turns(coords) == [1, 1, 1, 1]
        assert validate_convex_ccw(coords).coords() == coords

    def test_first_collinear_triple_is_named(self):
        # 999 points on a line and one above: vertex 0 turns left, and every
        # vertex from 1 to 997 is collinear; the first is named
        coords = [(float(x), 0.0) for x in range(999)] + [(500.0, 1.0)]
        with pytest.raises(NotStrictlyConvexError, match="collinear triple at vertex 1$"):
            validate_convex_ccw(coords)

    @settings(max_examples=300, deadline=None)
    @given(near_collinear_hexagons())
    def test_verdict_is_exact_near_collinearity(self, coords):
        try:
            validate_convex_ccw(coords)
            got = None
        except (NotStrictlyConvexError, NotCcwError) as e:
            got = str(e)
        assert got == _exact_verdict(coords)

    def test_total_turn_is_full_circle(self):
        for seed in range(5):
            for gen in (gen_circle, gen_valtr):
                P = gen(10, seed)
                assert set(exact_turns(P.coords())) == {1} and winding(P) == 1


def _loop_turns(coords):
    """Exterior angles, one vertex at a time in plain float arithmetic."""
    n = len(coords)
    ext = []
    for t in range(n):
        (ax, ay), (bx, by), (cx, cy) = coords[t - 1], coords[t], coords[(t + 1) % n]
        ux, uy = bx - ax, by - ay
        vx, vy = cx - bx, cy - by
        ext.append(math.atan2(ux * vy - uy * vx, ux * vx + uy * vy))
    return ext


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


class TestArrayRepresentation:
    @pytest.mark.parametrize("mode", ["circle", "valtr", "cluster3"])
    @pytest.mark.parametrize("n", [2, 4, 16, 256, 1024])
    def test_turns_bit_identical_to_vertex_loop(self, mode, n):
        # every turn is exactly to the left, they go around once, and the
        # reference turning angles are the vertex loop's sums
        if n == 2:  # a 2-gon: the first two vertices of a 4-gon
            P = validate_convex_ccw(generate(GenSpec(4, mode, 3)).coords()[:2])
        else:
            P = generate(GenSpec(n, mode, 3))
            assert set(exact_turns(P.coords())) == {1}
        assert winding(P) == 1
        ext = _loop_turns(P.coords())
        rnd = random.Random(n)
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j] if n <= 16 else [
            tuple(rnd.sample(range(n), 2)) for _ in range(200)
        ]
        got = [turning_angle(P, i, j) for i, j in pairs]
        want = []
        for i, j in pairs:
            total = 0.0
            for t in range(i + 1, i + (j - i) % n):
                total += ext[t % n]
            want.append(total)
        assert _bits(got) == _bits(want)

    def test_scratch_memory_per_point(self):
        # beyond the two arrays it returns, validation peaks at 99 bytes
        # per point on a list of 4096 points (116 beyond the four arrays it
        # returned while it mapped atan2 over its turns)
        n = 4096
        coords = gen_circle(n, 1).coords()
        tracemalloc.start()
        try:
            P = validate_convex_ccw(coords)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = P.xs.nbytes + P.ys.nbytes
        assert peak - kept <= 125 * n, (peak - kept) / n

    def test_parsed_instance_peak_per_point(self):
        # parsing a JSON instance and validating the array peaks at 166
        # bytes per point at n = 4096 (json's lists, then validation's
        # scratch); a (float, float) tuple per point, as the parse used to
        # build, took it to 234
        n = 4096
        text = instance_to_json(gen_circle(n, 1).coords())
        tracemalloc.start()
        try:
            validate_convex_ccw(parse_instance(text))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 200 * n, peak / n

    @pytest.mark.parametrize("mode", ["circle", "valtr", "cluster3"])
    @pytest.mark.parametrize("n", [4, 16, 256])
    def test_input_forms_bit_identical(self, mode, n):
        coords = generate(GenSpec(n, mode, 5)).coords()
        forms = {
            "list-of-tuples": list(coords),
            "tuple-of-tuples": tuple(coords),
            "list-of-lists": [list(p) for p in coords],
            "generator": (p for p in coords),
            "list-of-arrays": [np.array(p) for p in coords],
        }
        want = validate_convex_ccw(np.array(coords))
        for name, pts in forms.items():
            P = validate_convex_ccw(pts)
            for field in ("xs", "ys"):
                assert _bits(getattr(P, field)) == _bits(getattr(want, field)), (name, field)

    @pytest.mark.parametrize(
        "points,cls,message",
        [
            ([(0, 0), (1, 0), (math.nan, 1), (0, 1)], NonFiniteError, "NonFinite: (nan, 1.0)"),
            (
                [(0, 0), (1, 0), (1, 1), (0, -math.inf), (2, 2), (3, 3)],
                NonFiniteError,
                "NonFinite: (0.0, -inf)",
            ),
            ([(0, 0), (1, 0), (0, 0), (0, 1)], DuplicatePointError, "DuplicatePoint: (0.0, 0.0)"),
            (  # the first repeat by position, not by coordinate order
                [(1, 1), (5, 5), (2, 0), (5, 5), (1, 1), (0, 3)],
                DuplicatePointError,
                "DuplicatePoint: (5.0, 5.0)",
            ),
            (
                [(0.0, 1.0), (1, 0), (-0.0, 1.0), (2, 2)],
                DuplicatePointError,
                "DuplicatePoint: (-0.0, 1.0)",
            ),
            (
                [(0, 0), (1, 0), (2, 0), (0, 1)],
                NotStrictlyConvexError,
                "NotStrictlyConvex: collinear triple at vertex 1",
            ),
            (list(reversed(SQ4_COORDS)), NotCcwError, "NotCcw: all turns are clockwise"),
            (
                [(0, 0), (2, 0), (1, 0.1), (1, 2)],
                NotStrictlyConvexError,
                "NotStrictlyConvex: right turn at vertex 2",
            ),
            (  # the star polygon {8/3}: all left turns, wound three times
                [(math.cos(3 * k * math.pi / 4), math.sin(3 * k * math.pi / 4)) for k in range(8)],
                NotStrictlyConvexError,
                "NotStrictlyConvex: the edges wind 3 times around, not once",
            ),
            (  # strictly convex by float cross products, but turning right
                # by -9.86e-19 at vertex 1 in exact arithmetic
                [(0.1, 0.2), (0.685787200498299, 0.8834184005813489), (0.7, 0.9), (0, 1)],
                NotStrictlyConvexError,
                "NotStrictlyConvex: right turn at vertex 1",
            ),
        ],
        ids=[
            "nan", "inf", "duplicate", "first-duplicate", "signed-zero",
            "collinear", "clockwise", "mixed-turns", "double-winding",
            "exact-right-turn",
        ],
    )
    def test_error_cases(self, points, cls, message):
        with pytest.raises(cls) as info:
            validate_convex_ccw(points)
        assert str(info.value) == message

    def test_input_forms(self):
        expect = validate_convex_ccw(SQ4_COORDS).coords()
        for pts in (
            list(SQ4_COORDS),
            tuple(SQ4_COORDS),
            np.array(SQ4_COORDS),
            (p for p in SQ4_COORDS),
        ):
            assert validate_convex_ccw(pts).coords() == expect

    @pytest.mark.parametrize(
        "points",
        [
            [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)],
            np.zeros((4, 3)),
            [(0, 0), (1, 0), (1, 1, 5), (0, 1)],
            [(0, 0), (1,), (1, 1), (0, 1)],
            [(0, 0), (1, 0), 1.5, (0, 1)],
        ],
        ids=["rows-of-3", "array-of-3", "ragged-long", "ragged-short", "scalar-row"],
    )
    def test_malformed_rows_rejected(self, points):
        with pytest.raises(ValueError):
            validate_convex_ccw(points)

    def test_arrays_read_only(self, sq4):
        for a in (sq4.xs, sq4.ys):
            with pytest.raises(ValueError):
                a[0] = 7.0
        assert sq4.coords() == SQ4_COORDS

    def test_caller_array_not_aliased(self):
        pts = np.array(SQ4_COORDS)
        P = validate_convex_ccw(pts)
        pts[0] = (9.0, 9.0)
        assert P.coords() == SQ4_COORDS


class TestTurningAngle:
    def test_square(self, sq4):
        assert turning_angle(sq4, 0, 3) == approx(math.pi)

    def test_hexagon(self, hex6):
        assert turning_angle(hex6, 0, 3) == approx(2 * math.pi / 3)

    def test_adjacent_is_zero(self, sq4, hex6):
        for P in (sq4, hex6):
            for i in range(P.n):
                assert turning_angle(P, i, (i + 1) % P.n) == 0.0

    def test_wraparound(self, sq4):
        # interior vertices of <3, 2> are 0 and 1
        assert turning_angle(sq4, 3, 2) == approx(math.pi)

    def test_full_range(self):
        for seed in range(5):
            P = gen_circle(12, seed)
            for i in range(12):
                for j in range(12):
                    if i == j:
                        continue
                    t = turning_angle(P, i, j)
                    assert 0.0 <= t < 2 * math.pi

    def test_additivity(self):
        # splitting an arc at an interior vertex adds that vertex's turn
        rnd = random.Random(99)
        for seed in range(10):
            P = gen_valtr(14, seed)
            for _ in range(40):
                i = rnd.randrange(14)
                a = rnd.randrange(2, 13)
                b = rnd.randrange(1, a)
                j = (i + b) % 14
                k = (i + a) % 14
                lhs = turning_angle(P, i, k)
                turn_j = turning_angle(P, (j - 1) % 14, (j + 1) % 14)
                rhs = turning_angle(P, i, j) + turn_j + turning_angle(P, j, k)
                assert lhs == approx(rhs, abs=1e-11)

    def test_bad_index(self, sq4):
        with pytest.raises(BadIndexError):
            turning_angle(sq4, 0, 4)
        with pytest.raises(BadIndexError):
            turning_angle(sq4, -1, 2)
        with pytest.raises(BadIndexError):
            turning_angle(sq4, 2, 2)


class TestSqDist:
    def test_square(self, sq4):
        assert sq_dist(sq4, 0, 2) == 2.0
        assert sq_dist(sq4, 0, 1) == 1.0

    def test_hexagon_diameter(self, hex6):
        assert sq_dist(hex6, 0, 3) == approx(4.0)

    def test_bad_index(self, sq4):
        with pytest.raises(BadIndexError):
            sq_dist(sq4, 0, 7)

    def test_python_float(self, hex6):
        assert type(sq_dist(hex6, 1, 4)) is float


class TestPolarity:
    VI = (0.0, 0.0)
    VJ = (1.0, 0.0)

    def classify(self, p):
        return classify_polarity_region(self.VI, self.VJ, p)

    def test_equilateral_apex_is_neutral(self):
        assert self.classify((0.5, -math.sqrt(3) / 2)) is PolarityRegion.NEUTRAL

    def test_neutral_interior(self):
        assert self.classify((0.85, -0.3)) is PolarityRegion.NEUTRAL

    def test_positive(self):
        # beyond distance 1 from vi, inside the cap
        assert self.classify((1.05, -0.35)) is PolarityRegion.POSITIVE

    def test_negative(self):
        assert self.classify((-0.05, -0.35)) is PolarityRegion.NEGATIVE

    def test_numpy_scalars_take_float_math(self):
        # NumPy scalars are read as Python floats, so they overflow to
        # inf without NumPy's warning
        big = np.float64(1e200)
        got = classify_polarity_region((big, big), (-big, big), (np.float64(0.0), big / 2))
        assert got is classify_polarity_region((1e200, 1e200), (-1e200, 1e200), (0.0, 5e199))

    def test_left_and_on_line(self):
        assert self.classify((0.5, 0.4)) is PolarityRegion.LEFT_OF_LINE
        assert self.classify((0.5, 0.0)) is PolarityRegion.ON_LINE

    def test_outside_cap(self):
        assert self.classify((0.5, -2.0)) is PolarityRegion.OUTSIDE_CAP

    def test_degenerate(self):
        with pytest.raises(DegenerateSegmentError):
            classify_polarity_region((1, 1), (1, 1), (0, 0))

    def test_rigid_motion_and_scale_invariance(self):
        rnd = random.Random(5)
        probes = [
            (0.5, -math.sqrt(3) / 2),
            (0.85, -0.3),
            (1.05, -0.35),
            (-0.05, -0.35),
            (0.5, 0.4),
            (0.5, -2.0),
            (0.2, -0.9),
        ]
        for p in probes:
            base = self.classify(p)
            for _ in range(20):
                ang = rnd.uniform(0, 2 * math.pi)
                c, s = math.cos(ang), math.sin(ang)
                tx, ty = rnd.uniform(-5, 5), rnd.uniform(-5, 5)
                scale = math.exp(rnd.uniform(-2, 2))

                def move(q):
                    x, y = q
                    return (
                        scale * (c * x - s * y) + tx,
                        scale * (s * x + c * y) + ty,
                    )

                got = classify_polarity_region(move(self.VI), move(self.VJ), move(p))
                assert got is base, (p, ang, scale)
