"""SVG rendering of level and radial drawings.

Coordinates are fixed so output is stable: level mode puts level i on the
horizontal line y = 60 * (k - i + 1) with positions 60 px apart, radial mode
puts level i on a circle of radius 40 * i px with vertices equally spaced by
position.  Crossings of the combinatorial model are marked explicitly.
"""

from __future__ import annotations

import math
from xml.sax.saxutils import escape

from .constraints import ReferenceSets
from .drawing import (
    LevelDrawing,
    RadialDrawing,
    _Positions,
    gap_crossing_pairs_level,
    gap_crossing_pairs_radial,
)
from .graphs import LevelGraph, VertexId

LEVEL_STEP = 60
RADIAL_STEP = 40
VERTEX_R = 4


def _seg_intersection(p1, p2, p3, p4):
    (x1, y1), (x2, y2), (x3, y3), (x4, y4) = p1, p2, p3, p4
    den = (x1 - x2) * (y3 - y4) - (y1 - y2) * (x3 - x4)
    if abs(den) < 1e-12:
        return ((x1 + x2 + x3 + x4) / 4, (y1 + y2 + y3 + y4) / 4)
    t = ((x1 - x3) * (y3 - y4) - (y1 - y3) * (x3 - x4)) / den
    return (x1 + t * (x2 - x1), y1 + t * (y2 - y1))


def _svg(width: float, height: float, body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">'
    )
    return "\n".join([head, *body, "</svg>"]) + "\n"


def _marker(x: float, y: float) -> str:
    return (
        f'<g class="crossing"><line x1="{x - 4:.1f}" y1="{y - 4:.1f}" x2="{x + 4:.1f}" y2="{y + 4:.1f}" '
        f'stroke="red" stroke-width="1.5"/>'
        f'<line x1="{x - 4:.1f}" y1="{y + 4:.1f}" x2="{x + 4:.1f}" y2="{y - 4:.1f}" '
        f'stroke="red" stroke-width="1.5"/></g>'
    )


def _render(g: LevelGraph, width: float, height: float, backdrop: list[str], pt, gap_pairs) -> str:
    """Edges, vertices with labels, and one marker per crossing of `gap_pairs(i)`
    in each gap that holds edges, over the backdrop, with vertex v drawn at pt(v)."""
    body = list(backdrop)
    for u, v in sorted(g.edges):
        (x1, y1), (x2, y2) = pt(u), pt(v)
        body.append(f'<line class="edge" x1="{x1:.1f}" y1="{y1:.1f}" x2="{x2:.1f}" y2="{y2:.1f}" stroke="black"/>')
    for v in g.vertices():
        x, y = pt(v)
        body.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="{VERTEX_R}" fill="black"/>')
        body.append(f'<text x="{x + 6:.1f}" y="{y - 6:.1f}" font-size="10">{escape(v)}</text>')
    for i in g.by_gap:
        for e, f in gap_pairs(i):
            x, y = _seg_intersection(pt(e[0]), pt(e[1]), pt(f[0]), pt(f[1]))
            body.append(_marker(x, y))
    return _svg(width, height, body)


def render_level_svg(g: LevelGraph, d: LevelDrawing) -> str:
    width = LEVEL_STEP * (max((len(o) for o in d.orders.values()), default=1) + 1)
    height = LEVEL_STEP * (g.k + 1)
    view = _Positions(d.orders, g)

    def pt(v: VertexId) -> tuple[float, float]:
        i = g.level[v]
        return (LEVEL_STEP * (view.at[v] + 1), LEVEL_STEP * (g.k - i + 1))

    lines = [f'<line class="level" x1="0" y1="{y}" x2="{width}" y2="{y}" stroke="#ccc"/>'
             for y in range(LEVEL_STEP * g.k, 0, -LEVEL_STEP)]
    return _render(g, width, height, lines, pt, lambda i: gap_crossing_pairs_level(view, g, i))


def render_radial_svg(g: LevelGraph, d: RadialDrawing, refs: ReferenceSets) -> str:
    size = 2 * RADIAL_STEP * (g.k + 1)
    c = size / 2
    view = _Positions(d.cyclic, g, d.left_flag)

    def pt(v: VertexId) -> tuple[float, float]:
        i = g.level[v]
        theta = 2 * math.pi * view.at[v] / len(view.orders[i])
        return (c + RADIAL_STEP * i * math.cos(theta), c + RADIAL_STEP * i * math.sin(theta))

    circles = [f'<circle class="level" cx="{c}" cy="{c}" r="{RADIAL_STEP * i}" fill="none" stroke="#ccc"/>'
               for i in range(1, g.k + 1)]
    return _render(g, size, size, circles, pt, lambda i: gap_crossing_pairs_radial(view, g, refs, i))


def count_markers(svg: str) -> int:
    return svg.count('class="crossing"')
