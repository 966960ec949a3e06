"""Seeded instance generators: circle, valtr, cluster3.

Circle and valtr are general-purpose random convex distributions. cluster3
builds adversarial instances out of three point clusters at the corners of
an equilateral triangle, shaped so that (for n >= 12) every bottleneck
matching must cut all three corners with a short cross-corner diagonal,
giving exactly three cascades - a structure uniform distributions
essentially never produce.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import OddCountError, TooFewError
from .geometry import ConvexPointSet, validate_convex_ccw

MODES = ("circle", "valtr", "cluster3")

_MIN_ANGLE_GAP = 1e-6


@dataclass(frozen=True)
class GenSpec:
    n: int
    mode: str
    seed: int
    spread: float = 0.05


def generate(spec: GenSpec) -> ConvexPointSet:
    if spec.mode == "circle":
        return gen_circle(spec.n, spec.seed)
    if spec.mode == "valtr":
        return gen_valtr(spec.n, spec.seed)
    if spec.mode == "cluster3":
        return gen_cluster3(spec.n, spec.seed, spec.spread)
    raise ValueError(f"unknown mode {spec.mode!r}; expected one of {MODES}")


def check_n(n: int) -> None:
    """Raise the generators' error for a point count they refuse."""
    if n % 2 != 0:
        raise OddCountError(f"{n}")
    if n < 4:
        raise TooFewError(f"generators need n >= 4, got {n}")


def gen_circle(n: int, seed: int) -> ConvexPointSet:
    """n points at sorted uniform angles on the unit circle, from one draw.

    If two angles (the wraparound pair included) are at most g = 1e-6 rad
    apart, the sorted angles a_t become a_t * (1 - n*g/2pi) + g*t, which
    keeps their order and makes every gap at least g, so the result is
    strictly convex with margin.
    """
    check_n(n)
    ang = np.sort(np.random.default_rng(seed).uniform(0.0, 2.0 * math.pi, n))
    wrap = 2.0 * math.pi - (ang[-1] - ang[0])
    if min(np.diff(ang).min(), wrap) <= _MIN_ANGLE_GAP:
        g = _MIN_ANGLE_GAP
        ang = ang * (1.0 - n * g / (2.0 * math.pi)) + g * np.arange(n)
    return validate_convex_ccw(np.column_stack((np.cos(ang), np.sin(ang))))


def _valtr_coords(rng: np.random.Generator, n: int) -> np.ndarray:
    # random x/y increments paired up, sorted by angle, chained into a polygon
    def deltas(v: np.ndarray) -> np.ndarray:
        lo, hi = v[0], v[-1]
        mask = rng.integers(0, 2, n - 2).astype(bool)
        up = np.concatenate(([lo], v[1:-1][mask], [hi]))
        down = np.concatenate(([lo], v[1:-1][~mask], [hi]))
        return np.concatenate((np.diff(up), -np.diff(down)))

    dx = deltas(np.sort(rng.random(n)))
    dy = deltas(np.sort(rng.random(n)))
    rng.shuffle(dy)
    order = np.argsort(np.arctan2(dy, dx))
    return np.column_stack((np.cumsum(dx[order]), np.cumsum(dy[order])))


def gen_valtr(n: int, seed: int) -> ConvexPointSet:
    """Random convex polygon via the increment-pairing construction.

    Draws yielding collinear or duplicate vertices (possible when two
    increment vectors tie in angle) are discarded and resampled.
    """
    check_n(n)
    rng = np.random.default_rng(seed)
    while True:
        try:
            return validate_convex_ccw(_valtr_coords(rng, n))
        except (ValueError,):
            continue


def _corner_sizes(n: int) -> list[int]:
    parts = [n // 2 // 3] * 3
    for i in range(n // 2 - sum(parts)):
        parts[i] += 1
    return [2 * p for p in parts]


def _corner_points(rng, apex, u_in, u_out, m, scale, spread):
    """One corner cluster, ccw: flank-in, tips along the corner cut, flank-out.

    The flank-out sits much deeper along the outgoing side than the flank-in
    does on the incoming side. Cutting the corner (flank-in, flank-out) is
    then strictly shorter than the long flank-out leg it replaces, while
    every segment leaving the cluster stays far longer than both, so optimal
    matchings are forced to take the cut.
    """
    ax, ay = apex
    base = spread * scale
    if m == 2:
        off = 0.02 * base
        return [
            (ax - off * u_in[0], ay - off * u_in[1]),
            (ax + off * u_out[0], ay + off * u_out[1]),
        ]
    ell_in = 0.3 * base * rng.uniform(0.9, 1.1)
    ell_out = 1.0 * base
    cut = 0.05 * base * rng.uniform(0.9, 1.1)
    bulge = 0.1 * rng.uniform(0.8, 1.2)

    pin = (ax - cut * u_in[0], ay - cut * u_in[1])
    pout = (ax + cut * u_out[0], ay + cut * u_out[1])
    cx, cy = pout[0] - pin[0], pout[1] - pin[1]
    clen = math.hypot(cx, cy)
    nx, ny = cy / clen, -cx / clen
    if (ax - pin[0]) * nx + (ay - pin[1]) * ny < 0:
        nx, ny = -nx, -ny  # outward = apex side of the cut chord

    pts = [(ax - ell_in * u_in[0], ay - ell_in * u_in[1])]
    k = m - 2
    fracs = (np.arange(1, k + 1) + rng.uniform(-0.2, 0.2, k)) / (k + 1)
    for f in fracs:
        h = bulge * math.sin(math.pi * f) * clen
        pts.append((pin[0] + f * cx + h * nx, pin[1] + f * cy + h * ny))
    pts.append((ax + ell_out * u_out[0], ay + ell_out * u_out[1]))
    return pts


def gen_cluster3(n: int, seed: int, spread: float = 0.05) -> ConvexPointSet:
    """Three corner clusters of an equilateral triangle in the unit circle.

    Point budget n/2 is split into three even cluster sizes as evenly as
    possible. Clusters of size >= 4 get the cut-forcing shape (see
    _corner_points); for n >= 12 all three do, and every bottleneck
    matching then has exactly three cascades. The whole construction is
    randomly rotated and jittered per seed.
    """
    check_n(n)
    if spread <= 0 or spread > 0.2:
        raise ValueError(f"spread must be in (0, 0.2], got {spread}")
    rng = np.random.default_rng(seed)
    for _ in range(64):
        rot = rng.uniform(0.0, 2.0 * math.pi)
        centers = [rot + c * 2.0 * math.pi / 3.0 for c in range(3)]
        apexes = [(math.cos(a), math.sin(a)) for a in centers]
        side = math.dist(apexes[0], apexes[1])
        sizes = _corner_sizes(n)
        pts: list[tuple[float, float]] = []
        for c in range(3):
            if sizes[c] == 0:
                continue
            a = apexes[c]
            prv = apexes[(c - 1) % 3]
            nxt = apexes[(c + 1) % 3]
            u_in = ((a[0] - prv[0]) / side, (a[1] - prv[1]) / side)
            u_out = ((nxt[0] - a[0]) / side, (nxt[1] - a[1]) / side)
            pts.extend(_corner_points(rng, a, u_in, u_out, sizes[c], side, spread))
        try:
            return validate_convex_ccw(pts)
        except (ValueError,):
            continue  # pathological jitter draw; retry with fresh draws
    raise AssertionError("cluster3 failed to produce a convex instance")
