"""Circular index arithmetic on n points.

An arc <i, j> is the index sequence i, i+1, ..., j taken modulo n; note
<i, j> and <j, i> are different arcs. All functions assume indices already
lie in [0, n); they do no range checking of their own.
"""
from __future__ import annotations

from .errors import SharedEndpointError


def arc_size(i: int, j: int, n: int) -> int:
    """Number of points on the arc <i, j>, between 1 and n."""
    return (j - i) % n + 1


def segments_cross(a: int, b: int, c: int, d: int, n: int) -> bool:
    """Do chords (a, b) and (c, d) of an n-gon properly cross?

    Purely combinatorial: for points in strictly convex position, the
    straight segments cross iff exactly one of c, d lies strictly inside
    the arc <a, b>. The four endpoints must be distinct.
    """
    if a == c or a == d or b == c or b == d:
        raise SharedEndpointError(f"chords ({a},{b}) and ({c},{d})")
    span = (b - a) % n
    in_c = 0 < (c - a) % n < span
    in_d = 0 < (d - a) % n < span
    return in_c != in_d

