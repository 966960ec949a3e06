import math
import os
import tempfile
from enum import Enum
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings, strategies as st

from bnmatch import (
    GenSpec, baselines, dp_core, gen_cluster3, generate, validate_convex_ccw,
)
from bnmatch.errors import (
    BadIndexError, BnmatchError, DuplicatePointError, NonFiniteError, NotCcwError,
    NotStrictlyConvexError, OddCountError, TooFewError,
)

DEG = math.pi / 180.0

SQ4_COORDS = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]
HEX6_COORDS = [(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)]
# unit-circle points at 0, 10, 20 and 180 degrees
SKEW4_COORDS = [(math.cos(a * DEG), math.sin(a * DEG)) for a in (0, 10, 20, 180)]

# bottleneck of SKEW4 is the chord from 20 to 180 degrees: 2*cos(10 deg)
SKEW4_VALUE = 2.0 * math.cos(10 * DEG)


def canonical_pairs(pairs) -> tuple[tuple[int, int], ...]:
    """Order-independent form: sorted (min, max) pairs, for comparisons."""
    return tuple(sorted((min(a, b), max(a, b)) for a, b in pairs))


def _check_index(P, i: int) -> None:
    if not 0 <= i < P.n:
        raise BadIndexError(f"index {i} outside [0, {P.n})")


def _turn(xs, ys, t: int) -> float:
    """The exterior angle at vertex t of the polygon with coordinate lists
    xs, ys: one ``math.atan2`` of its turn's cross and dot products."""
    n = len(xs)
    a, b, c = (t - 1) % n, t % n, (t + 1) % n
    ux, uy, vx, vy = xs[b] - xs[a], ys[b] - ys[a], xs[c] - xs[b], ys[c] - ys[b]
    return math.atan2(ux * vy - uy * vx, ux * vx + uy * vy)


def turning_angle(P, i: int, j: int) -> float:
    """Cumulative exterior angle along the arc <i, j>: the tests' reference.

    The ccw rotation taking edge direction i -> i+1 onto edge direction
    j-1 -> j, as the sum of the exterior angles at the vertices strictly
    inside the arc, added in arc order. turning_angle(P, i, i+1) == 0.
    Result in [0, 2*pi) up to rounding.
    """
    _check_index(P, i)
    _check_index(P, j)
    if i == j:
        raise BadIndexError("turning angle needs two distinct indices")
    xs, ys, total = P.xs.tolist(), P.ys.tolist(), 0.0
    for t in range(i + 1, i + (j - i) % P.n):
        total += _turn(xs, ys, t)
    return total


def winding(P) -> int:
    """How many times P's edge directions go around: the sum of the
    exterior angles at all n vertices, in units of 2*pi, rounded."""
    xs, ys = P.xs.tolist(), P.ys.tolist()
    return round(sum(_turn(xs, ys, t) for t in range(P.n)) / (2 * math.pi))


def exact_turns(coords) -> list[int]:
    """The sign of the turn at each vertex t of a closed polygon,
    cross(v_t - v_{t-1}, v_{t+1} - v_t), in exact rational arithmetic."""
    pts = [(Fraction(x), Fraction(y)) for x, y in coords]
    out = []
    for t, (bx, by) in enumerate(pts):
        (ax, ay), (cx, cy) = pts[t - 1], pts[(t + 1) % len(pts)]
        cross = (bx - ax) * (cy - by) - (by - ay) * (cx - bx)
        out.append((cross > 0) - (cross < 0))
    return out


def reference_validation_error(coords) -> tuple[type, str] | None:
    """The error class and message ``validate_convex_ccw`` must raise for a
    list of (x, y) pairs, or None: the documented checks one at a time, in
    their documented order, the duplicate points before any turn. Turns
    are exact; the winding sums the exterior angles in floats."""
    n = len(coords)
    if n < 2:
        return TooFewError, f"TooFew: need at least 2 points, got {n}"
    if n % 2:
        return OddCountError, f"OddCount: point count must be even, got {n}"
    pts = [(float(x), float(y)) for x, y in coords]
    for x, y in pts:
        if not (math.isfinite(x) and math.isfinite(y)):
            return NonFiniteError, f"NonFinite: ({x}, {y})"
    seen = set()  # -0.0 == 0.0, and they hash alike
    for x, y in pts:
        if (x, y) in seen:
            return DuplicatePointError, f"DuplicatePoint: ({x}, {y})"
        seen.add((x, y))
    if n == 2:
        return None
    turns = exact_turns(pts)
    if 0 in turns:
        message = f"NotStrictlyConvex: collinear triple at vertex {turns.index(0)}"
        return NotStrictlyConvexError, message
    if set(turns) == {-1}:
        return NotCcwError, "NotCcw: all turns are clockwise"
    if -1 in turns:
        return NotStrictlyConvexError, f"NotStrictlyConvex: right turn at vertex {turns.index(-1)}"
    xs, ys = [x for x, _ in pts], [y for _, y in pts]
    winds = round(sum(_turn(xs, ys, t) for t in range(n)) / (2 * math.pi))
    if winds != 1:
        message = f"NotStrictlyConvex: the edges wind {winds} times around, not once"
        return NotStrictlyConvexError, message
    return None


def sq_dist(P, i: int, j: int) -> float:
    """Squared distance between vertices i and j of P: the tests' reference."""
    _check_index(P, i)
    _check_index(P, j)
    dx = P.xs[j] - P.xs[i]
    dy = P.ys[j] - P.ys[i]
    return float(dx * dx + dy * dy)


def oracle_enumerate(n: int):
    """Yield every non-crossing perfect matching of n points exactly once.

    Point 0 is matched to each odd k in turn, recursing on both sides;
    the total count is the Catalan number C(n/2). The oracle's size guard
    applies: odd n and n > 20 raise.
    """
    baselines._guard(n)
    yield from baselines._matchings_of_size(n)


SQ_REL_TOL = 2e-9  # relative, on squared distances (~1e-9 on lengths)


class DegenerateSegmentError(BnmatchError):
    code = "DegenerateSegment"


class PolarityRegion(Enum):
    """Where a point sits relative to a directed segment's polarity areas.

    For a directed segment vi -> vj of length d, points strictly on the
    right side and inside the circular cap from which the segment subtends
    an angle of at least pi/3 split into three areas: NEGATIVE (farther
    than d from vj, hugging vi), POSITIVE (farther than d from vi, hugging
    vj) and NEUTRAL (within d of both). Points on the left, on the line,
    or right but outside the cap get their own labels.
    """

    LEFT_OF_LINE = "left-of-line"
    ON_LINE = "on-line"
    OUTSIDE_CAP = "outside-cap"
    NEGATIVE = "negative"
    POSITIVE = "positive"
    NEUTRAL = "neutral"


def classify_polarity_region(vi, vj, p) -> PolarityRegion:
    """Classify p against the polarity areas of the directed segment vi -> vj.

    The cap is the region right of the line and inside the circle through
    vi and vj of radius d/sqrt(3) centered right of the line. Distance ties
    (equal to d within tolerance) classify as NEUTRAL; points on the cap
    boundary count as inside. Each point is an (x, y) pair, read as Python
    floats.
    """
    (xi, yi), (xj, yj), (px, py) = (map(float, q) for q in (vi, vj, p))
    ex, ey = xj - xi, yj - yi
    dd = ex * ex + ey * ey
    if dd == 0.0:
        raise DegenerateSegmentError("vi == vj")
    cross = ex * (py - yi) - ey * (px - xi)
    # |cross| = d * (perpendicular distance); relative test on that product
    if abs(cross) <= 1e-9 * dd:
        return PolarityRegion.ON_LINE
    if cross > 0.0:
        return PolarityRegion.LEFT_OF_LINE
    d = math.sqrt(dd)
    # cap circle: radius d/sqrt(3), center right of the line at the
    # inscribed-angle position for pi/3
    cx = (xi + xj) / 2.0 + ey / (2.0 * math.sqrt(3.0))
    cy = (yi + yj) / 2.0 - ex / (2.0 * math.sqrt(3.0))
    rr = dd / 3.0
    pcx, pcy = px - cx, py - cy
    if pcx * pcx + pcy * pcy > rr * (1.0 + SQ_REL_TOL):
        return PolarityRegion.OUTSIDE_CAP
    dix, diy = px - xi, py - yi
    djx, djy = px - xj, py - yj
    di2 = dix * dix + diy * diy
    dj2 = djx * djx + djy * djy
    if di2 > dd * (1.0 + SQ_REL_TOL):
        return PolarityRegion.POSITIVE
    if dj2 > dd * (1.0 + SQ_REL_TOL):
        return PolarityRegion.NEGATIVE
    return PolarityRegion.NEUTRAL


def interior_polarity(P, i: int, j: int) -> PolarityRegion | None:
    """NEGATIVE or POSITIVE when every point strictly inside the arc <i, j>
    classifies that way against the segment vi -> vj, else None.

    The interior of a ccw arc lies right of vi -> vj, so a candidate's is
    expected, though not guaranteed, to be uniformly one or the other. The
    pole of such a diagonal is i for NEGATIVE and j for POSITIVE.
    """
    n, pts = P.n, P.coords()
    regions = {
        classify_polarity_region(pts[i], pts[j], pts[t % n]) for t in range(i + 1, i + (j - i) % n)
    }
    if len(regions) == 1 and regions <= {PolarityRegion.NEGATIVE, PolarityRegion.POSITIVE}:
        return regions.pop()
    return None


# the reference's move tags, in tie-break priority order
USE_PAIR = 0        # close the pair (start, start+size-1), recurse inside
USE_LEFT_EDGE = 1   # take edge (start, start+1), recurse on the rest
USE_RIGHT_EDGE = 2  # take edge (start+size-2, start+size-1), recurse on the rest


def roll_fill(P):
    """(S, choice, necessary): every value row, move tag and necessity flag
    of the table, from the recurrence written with np.roll at stride 1.

    A direct transcription of the recurrence in ``build_subproblem_table``'s
    docstring, one temporary per term, in NumPy: the reference the compiled
    fill, its replays and its walk must match bit for bit. A candidate
    (i, j) on an arc of 2k points has the base S[k, i].
    """
    n, xs, ys = P.n, P.xs, P.ys
    half = n // 2

    def offset_sq(off):
        dx = np.roll(xs, -off) - xs
        dy = np.roll(ys, -off) - ys
        return dx * dx + dy * dy

    S = np.zeros((half + 1, n))
    choice = np.zeros((half + 1, n), dtype=np.uint8)
    necessary = np.zeros((half + 1, n), dtype=bool)
    edge2 = offset_sq(1)
    S[1] = edge2
    for k in range(2, half + 1):
        m = 2 * k
        prev = S[k - 1]
        case_pair = np.maximum(np.roll(prev, -1), offset_sq(m - 1))
        case_left = np.maximum(np.roll(prev, -2), edge2)
        case_right = np.maximum(prev, np.roll(edge2, -(m - 2)))
        best = np.minimum(case_pair, np.minimum(case_left, case_right))
        S[k] = best
        choice[k] = np.where(
            case_pair == best, USE_PAIR,
            np.where(case_left == best, USE_LEFT_EDGE, USE_RIGHT_EDGE),
        )
        other = np.minimum(case_left, case_right)
        necessary[k] = case_pair < other
    return S, choice, necessary


def roll_walk(choice, start, size):
    """The pairs the reference's move tags give for the arc (start, size)."""
    n = choice.shape[1]
    pairs, s = [], start
    for k in range(size // 2, 0, -1):
        j = (s + 2 * k - 1) % n
        if choice[k, s] == USE_PAIR:
            pairs.append((s, j))
            s = (s + 1) % n
        elif choice[k, s] == USE_LEFT_EDGE:
            pairs.append((s, (s + 1) % n))
            s = (s + 2) % n
        else:
            pairs.append(((j - 1) % n, j))
    return pairs


def reference_three_chain(T, best_one: float):
    """The 3-chain search in NumPy, one ``arc_values`` call per survivor:
    (best squared value, (i, j, k, t)), or (inf, None) where no candidate
    gives less than ``best_one``. The kernel's search must return the same
    value, bit for bit, and the same (i, j, k, t)."""
    n = T.n
    # the candidates (i, j) in the table's order, the points on each arc <i, j>, and its value
    i, j = T.necessary.T
    candidates = zip(i.tolist(), j.tolist(), ((j - i) % n + 1).tolist(), T.bases.tolist())
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
    return best_three, argmin


def segments_cross(a: int, b: int, c: int, d: int, n: int) -> bool:
    """Do chords (a, b) and (c, d) of a strictly convex n-gon properly cross?

    The reference crossing test, for four distinct ends: the segments cross
    iff exactly one of c, d lies strictly inside the arc a, a+1, ..., b.
    """
    span = (b - a) % n
    return (0 < (c - a) % n < span) != (0 < (d - a) % n < span)


def parabola_cap(n: int) -> list[tuple[float, float]]:
    """n points (x, x^2) at evenly spaced x in [-1, 1], ccw: a quarter of
    the arcs of even size below n are necessary."""
    x = np.linspace(-1.0, 1.0, n)
    return list(zip(x.tolist(), (x * x).tolist()))


def two_arcs(n: int) -> list[tuple[float, float]]:
    """n/2 points evenly spaced on each of two opposite arcs of the unit
    circle, one radian wide, ccw: an eighth of the arcs of even size below
    n are necessary."""
    t = np.linspace(-0.5, 0.5, n // 2)
    t = np.concatenate((t, t + math.pi))
    return list(zip(np.cos(t).tolist(), np.sin(t).tolist()))


def regular(n: int) -> list[tuple[float, float]]:
    """The regular n-gon, ccw from (1, 0): with 6 | n its arcs of n/3 + 2
    vertices turn by 2*pi/3 up to rounding, the edge of the candidate
    angle test, but tie everywhere, so it has no necessary arc."""
    a = 2 * math.pi * np.arange(n) / n
    return list(zip(np.cos(a).tolist(), np.sin(a).tolist()))


def equiangular(n: int, seed: int = 0) -> list[tuple[float, float]]:
    """An n-gon, 6 | n, whose edge t points at angle 2*pi*t/n, so every
    exterior angle is 2*pi/n up to rounding, as in the regular n-gon.

    Edges 0 and n/3 have lengths 1 and 1/2, edges n/2 and 5n/6 close the
    polygon, and the others are short, of seeded random lengths in
    [0.1/n, 0.2/n]. The arcs from edge 0 to edge n/3 and from edge n/2
    to edge 5n/6 (n/3 + 2 vertices each) turn by 2*pi/3 up to rounding and
    are candidates (n = 6 .. 120, seed 0), so the last row that can hold a
    candidate holds them. In exact arithmetic one or both turn by a little
    more than 2*pi/3 at n = 30, 60, 66, 78, 90, 102, 114 and 120: 4 dot^2
    exceeds |u|^2 |v|^2 of their end edges by 7 to 22 units of roundoff,
    inside the rounding bound of the candidate rule, which counts them in.
    """
    u = np.exp(2j * math.pi * np.arange(n) / n)
    lengths = np.random.default_rng(seed).uniform(0.1 / n, 0.2 / n, n)
    t = n // 6
    lengths[[0, 2 * t, 3 * t, 5 * t]] = 0.0
    rest = (lengths * u).sum()
    # 1*u[0] + 0.5*u[2t] + x*u[3t] + y*u[5t] + rest == 0
    y = 0.5 + 2 * rest.imag / math.sqrt(3)
    x = 1.0 + rest.real + rest.imag / math.sqrt(3)
    lengths[[0, 2 * t, 3 * t, 5 * t]] = 1.0, 0.5, x, y
    z = np.concatenate(([0], np.cumsum(lengths * u)[:-1]))
    return list(zip(z.real.tolist(), z.imag.tolist()))


@st.composite
def convex_polygons(draw):
    """Points on an ellipse at angles with random positive gaps: strictly convex."""
    gaps = draw(st.lists(st.integers(1, 1000), min_size=4, max_size=80))
    if len(gaps) % 2:
        gaps.pop()
    squash = draw(st.floats(0.05, 1.0))
    total, angles, acc = sum(gaps), [], 0
    for g in gaps:
        angles.append(2 * math.pi * acc / total)
        acc += g
    return [(math.cos(a), squash * math.sin(a)) for a in angles]


@st.composite
def cluster_rings(draw):
    """K tight clusters of points around a circle, n even."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=3, max_size=8))
    if sum(sizes) % 2:
        sizes[0] += 1
    spread = draw(st.floats(1e-4, 0.05))
    jitter = draw(st.floats(0.0, 0.3))
    angles = []
    for c, size in enumerate(sizes):
        center = 2 * math.pi * (c + jitter * (c % 2)) / len(sizes)
        angles += [center + spread * t for t in range(size)]
    return [(math.cos(a), math.sin(a)) for a in angles]


even_sizes = st.integers(2, 40).map(lambda h: 2 * h)
# cluster3 draws, the family with candidates, at random sizes, seeds and spreads
cluster3_polygons = st.builds(
    lambda n, seed, spread: gen_cluster3(n, seed, spread).coords(),
    even_sizes, st.integers(0, 2**32 - 1), st.floats(0.01, 0.2),
)
# strictly convex coordinate lists, n = 4 ... 80, |x|, |y| <= 2
random_polygons = st.one_of(
    convex_polygons(), cluster_rings(), cluster3_polygons,
    st.builds(parabola_cap, even_sizes), st.builds(two_arcs, even_sizes),
    st.builds(equiangular, st.integers(1, 13).map(lambda h: 6 * h), st.integers(0, 2**32 - 1)),
)


def forced_stride(stride: int):
    """Context manager: tables built inside it keep every stride-th value row.

    dp_core.checkpoint_stride alone picks the stride, so it is the one seam.
    """
    return mock.patch.object(dp_core, "checkpoint_stride", lambda n: stride)


def forced_tile(h: int, w: int):
    """Context manager: tables built inside it fill blocks of h rows in
    strips of w starts.

    dp_core.fill_tile alone picks the tile, so it is the one seam.
    """
    return mock.patch.object(dp_core, "fill_tile", lambda n: (h, w))


# blocks of 1, 2 and 5 rows; strips of 1, 3, 7 and 64 starts, and of at
# least n starts, one strip a row
TILES = [(h, w) for h in (1, 2, 5) for w in (1, 3, 7, 64, 1 << 20)]


def tile_seam_inputs():
    """(name, point set) pairs on which the tiles meet every seam of the
    fill's blocks and strips: the fixtures and a 2-gon, circle, valtr and
    cluster3 at n = 6 ... 512, and parabola caps and two arcs at n = 30 ...
    250, whose candidates outgrow the fill's arrays."""
    named = [("2-gon", [(0.0, 0.0), (3.0, 4.0)]), ("sq4", SQ4_COORDS), ("skew4", SKEW4_COORDS),
             ("hex6", HEX6_COORDS)]
    out = [(name, validate_convex_ccw(coords)) for name, coords in named]
    for mode in ("circle", "valtr", "cluster3"):
        out += [(f"{mode}-{n}", generate(GenSpec(n, mode, 41 + n)))
                for n in (6, 16, 30, 64, 250, 512)]
    for family in (parabola_cap, two_arcs):
        out += [(f"{family.__name__}-{n}", validate_convex_ccw(family(n))) for n in (30, 64, 250)]
    return out


@pytest.fixture
def sq4():
    return validate_convex_ccw(SQ4_COORDS)


@pytest.fixture
def hex6():
    return validate_convex_ccw(HEX6_COORDS)


@pytest.fixture
def skew4():
    return validate_convex_ccw(SKEW4_COORDS)


# the same examples on every run, and nothing written into the checkout:
# no example database, and hypothesis's cache of constants parsed from the
# source goes to the temp directory
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
os.environ.setdefault(
    "HYPOTHESIS_STORAGE_DIRECTORY", os.path.join(tempfile.gettempdir(), "bnmatch-hypothesis")
)
