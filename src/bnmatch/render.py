"""SVG rendering of an instance plus a matching.

Output contract: one <circle> per point, one <line> per matching pair (the
longest pair restyled, not duplicated), the polygon boundary as a light
<polygon>, and a <text> label with the bottleneck value.
"""
from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Sequence

_MARGIN = 0.05


def render_svg(
    points: Sequence[tuple[float, float]],
    pairs: Sequence[tuple[int, int]],
    value: float,
) -> str:
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    minx, maxx = min(xs), max(xs)
    miny, maxy = min(ys), max(ys)
    span = max(maxx - minx, maxy - miny) or 1.0
    pad = _MARGIN * span
    # flip y so the ccw orientation renders counterclockwise on screen
    vb = (minx - pad, -(maxy + pad), (maxx - minx) + 2 * pad, (maxy - miny) + 2 * pad)

    longest = None
    best = -1.0
    for a, b in pairs:
        dx, dy = xs[b] - xs[a], ys[b] - ys[a]
        d = dx * dx + dy * dy  # inf past the float range, where ** would raise
        if d > best:
            best = d
            longest = (a, b)

    svg = ET.Element(
        "svg",
        xmlns="http://www.w3.org/2000/svg",
        width="640",
        viewBox=f"{vb[0]:.6g} {vb[1]:.6g} {vb[2]:.6g} {vb[3]:.6g}",
    )
    sw = span * 0.004
    ET.SubElement(
        svg,
        "polygon",
        points=" ".join(f"{x:.8g},{-y:.8g}" for x, y in points),
        fill="none",
        stroke="#cccccc",
        attrib={"stroke-width": f"{sw:.6g}"},
    )
    for a, b in pairs:
        hot = (a, b) == longest
        ET.SubElement(
            svg,
            "line",
            x1=f"{xs[a]:.8g}",
            y1=f"{-ys[a]:.8g}",
            x2=f"{xs[b]:.8g}",
            y2=f"{-ys[b]:.8g}",
            stroke="#d62728" if hot else "#1f77b4",
            attrib={"stroke-width": f"{(2.2 * sw if hot else sw):.6g}"},
        )
    for x, y in points:
        ET.SubElement(
            svg,
            "circle",
            cx=f"{x:.8g}",
            cy=f"{-y:.8g}",
            r=f"{span * 0.009:.6g}",
            fill="#333333",
        )
    if longest is not None:
        a, b = longest
        mx = (xs[a] + xs[b]) / 2
        my = -(ys[a] + ys[b]) / 2
        label = ET.SubElement(
            svg,
            "text",
            x=f"{mx:.8g}",
            y=f"{my:.8g}",
            fill="#d62728",
            attrib={"font-size": f"{span * 0.05:.6g}"},
        )
        label.text = f"{value:.6g}"
    return ET.tostring(svg, encoding="unicode") + "\n"
