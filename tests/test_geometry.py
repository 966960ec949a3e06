import math
import random
import tracemalloc

import numpy as np
import pytest

from bnmatch import (
    GenSpec,
    PolarityRegion,
    classify_polarity_region,
    gen_circle,
    gen_valtr,
    generate,
    validate_convex_ccw,
)
from bnmatch.errors import (
    BadIndexError,
    DegenerateSegmentError,
    DuplicatePointError,
    NonFiniteError,
    NotCcwError,
    NotStrictlyConvexError,
    OddCountError,
    TooFewError,
)
from bnmatch.formats import instance_to_json, parse_instance
from bnmatch.geometry import arc_turns
from conftest import SQ4_COORDS, sq_dist, turning_angle

approx = pytest.approx


class TestValidate:
    def test_square_ok(self, sq4):
        assert sq4.n == 4
        assert sq4.ext_prefix == approx((0, math.pi / 2, math.pi, 3 * math.pi / 2, 2 * math.pi))

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
        P = validate_convex_ccw([(0, 0), (3, 1)])
        assert P.ext == approx((math.pi, math.pi))
        assert P.ext_prefix[-1] == approx(2 * math.pi)

    def test_double_winding_rejected(self):
        # all-left-turn ordering that winds twice around the centroid
        pts = [
            (math.cos(2 * math.pi * (2 * k % 5) / 5), math.sin(2 * math.pi * (2 * k % 5) / 5))
            for k in range(5)
        ]
        pts.append((2.0, 0.0))
        with pytest.raises((NotStrictlyConvexError, NotCcwError)):
            validate_convex_ccw(pts)

    def test_total_turn_is_full_circle(self):
        for seed in range(5):
            for gen in (gen_circle, gen_valtr):
                P = gen(10, seed)
                assert abs(P.ext_prefix[-1] - 2 * math.pi) <= 1e-9


def _loop_turns(coords):
    """Exterior angles, their prefix sums and the doubled prefix sums,
    one vertex at a time in plain float arithmetic."""
    n = len(coords)
    if n == 2:
        ext = [math.pi, math.pi]
    else:
        ext = []
        for t in range(n):
            (ax, ay), (bx, by), (cx, cy) = coords[t - 1], coords[t], coords[(t + 1) % n]
            ux, uy = bx - ax, by - ay
            vx, vy = cx - bx, cy - by
            ext.append(math.atan2(ux * vy - uy * vx, ux * vx + uy * vy))
    cum2 = [0.0]
    for e in ext + ext:
        cum2.append(cum2[-1] + e)
    return ext, cum2[: n + 1], cum2


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


class TestArrayRepresentation:
    @pytest.mark.parametrize("mode", ["circle", "valtr", "cluster3"])
    @pytest.mark.parametrize("n", [2, 4, 16, 256, 1024])
    def test_turns_bit_identical_to_vertex_loop(self, mode, n):
        if n == 2:  # a 2-gon: the first two vertices of a 4-gon
            P = validate_convex_ccw(generate(GenSpec(4, mode, 3)).coords()[:2])
        else:
            P = generate(GenSpec(n, mode, 3))
        ext, prefix, cum2 = _loop_turns(P.coords())
        assert _bits(P.ext) == _bits(ext)
        assert _bits(P.ext_prefix) == _bits(prefix)
        rnd = random.Random(n)
        pairs = [(i, j) for i in range(n) for j in range(n) if i != j] if n <= 16 else [
            tuple(rnd.sample(range(n), 2)) for _ in range(2000)
        ]
        got = [turning_angle(P, i, j) for i, j in pairs]
        starts = [(i + 1) % n for i, _ in pairs]
        want = [cum2[a + (j - i - 1) % n] - cum2[a] for a, (i, j) in zip(starts, pairs)]
        assert _bits(got) == _bits(want)

    def test_scratch_memory_per_point(self):
        # beyond the four arrays it returns, validation peaks while atan2
        # maps its two input lists: 116 bytes per point on a list of 4096
        # points. A list of the angles before the array would add 24, and
        # keeping the coordinate differences or both wrapped copies alive
        # until then would add 32 or 16
        n = 4096
        coords = gen_circle(n, 1).coords()
        tracemalloc.start()
        try:
            P = validate_convex_ccw(coords)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        kept = P.xs.nbytes + P.ys.nbytes + P.ext.nbytes + P._ext_cum2.nbytes
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
            for field in ("xs", "ys", "ext", "ext_prefix"):
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
                "NotStrictlyConvex: total turning angle 18.849555921539 != 2*pi",
            ),
            (  # the turn cross products overflow, so every turn is NaN
                [(0, 0), (1e300, -1e300), (2e300, 0), (1e300, 1e300)],
                NotStrictlyConvexError,
                "NotStrictlyConvex: total turning angle nan != 2*pi",
            ),
        ],
        ids=[
            "nan", "inf", "duplicate", "first-duplicate", "signed-zero",
            "collinear", "clockwise", "mixed-turns", "double-winding",
            "overflowed-turns",
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
        for a in (sq4.xs, sq4.ys, sq4.ext, sq4.ext_prefix):
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
                rhs = turning_angle(P, i, j) + P.ext[j] + turning_angle(P, j, k)
                assert lhs == approx(rhs, abs=1e-11)

    def test_arc_turns_bit_identical(self, sq4):
        # every arc size, the full circle included, at every start, at a
        # few starts out of order and as one size per start
        for P in (sq4, gen_circle(12, 3), gen_valtr(14, 2), generate(GenSpec(10, "cluster3", 1))):
            n = P.n
            starts = np.array([n - 1, 0, 2, 1])
            sizes = np.arange(2, n + 1)
            for m in sizes.tolist():
                want = [turning_angle(P, s, (s + m - 1) % n) for s in range(n)]
                assert _bits(arc_turns(P, m, np.arange(n))) == _bits(want), (n, m)
                assert _bits(arc_turns(P, m, starts)) == _bits([want[s] for s in starts]), (n, m)
            for s in range(n):
                want = [turning_angle(P, s, (s + m - 1) % n) for m in sizes.tolist()]
                assert _bits(arc_turns(P, sizes, np.full(sizes.size, s))) == _bits(want), (n, s)

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
        # solve's annotation passes NumPy scalars; read as Python floats
        # they overflow to inf without NumPy's warning
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
