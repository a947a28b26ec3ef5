"""Star form transformations.

A proper level graph is stretched so that (almost) every sublevel holds exactly
one vertex: each vertex v becomes a vertical *stretch edge* from bot(v) to
top(v), incoming edges attach to bot(v) and outgoing edges to top(v).  The
proper subdivision of the stretched graph is the stage on which assignments
and drawings are converted back and forth.

Two variants exist.  The plain one expands a level with n vertices into 2n
sublevels.  The radial one gives the per-level anchor vertices special
positions so that each level block has a *middle sublevel* crossed by all of
its stretch edges; a block expands into 2n-1 sublevels when the level's two
anchors differ and 2n+1 sublevels when they coincide.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constraints import ReferenceSets
from .graphs import (
    Edge,
    LevelGraph,
    Properization,
    VertexId,
    properize,
    require_valid,
)


def bot_name(v: VertexId) -> VertexId:
    return f"{v}~bot"


def top_name(v: VertexId) -> VertexId:
    return f"{v}~top"


@dataclass(frozen=True)
class StarForm:
    """The stretched graph plus all provenance needed to map back to the input."""

    base: LevelGraph                      # the proper input graph
    star: LevelGraph                      # the stretched graph
    bot: dict[VertexId, VertexId]         # original vertex -> bottom copy
    top: dict[VertexId, VertexId]         # original vertex -> top copy
    owner: dict[VertexId, VertexId]       # copy -> original vertex
    stretch: dict[VertexId, Edge]         # original vertex -> its stretch edge
    star_edge: dict[Edge, Edge]           # original edge -> its image
    edge_origin: dict[Edge, Edge]         # image -> original edge
    level_origin: dict[int, int]          # sublevel -> original level
    middle: dict[int, int] | None = None  # radial only: original level -> middle sublevel

    def block(self, i: int) -> list[int]:
        """Sublevels replacing original level i, ascending."""
        return sorted(j for j, orig in self.level_origin.items() if orig == i)


def _assemble(base: LevelGraph, total: int, level: dict[VertexId, int],
              bot: dict[VertexId, VertexId], top: dict[VertexId, VertexId],
              level_origin: dict[int, int], middle: dict[int, int] | None) -> StarForm:
    stretch = {v: (bot[v], top[v]) for v in base.level}
    star_edge = {(u, v): (top[u], bot[v]) for u, v in base.edges}
    edge_origin = {img: e for e, img in star_edge.items()}
    edges = tuple(sorted(stretch.values())) + tuple(sorted(star_edge.values()))
    owner = {c: v for v, c in bot.items()}
    owner.update({c: v for v, c in top.items()})
    star = LevelGraph(total, level, edges)
    return StarForm(base, star, bot, top, owner, stretch, star_edge, edge_origin, level_origin, middle)


def build_star_level(g: LevelGraph) -> StarForm:
    """Plain star form: level i with n vertices becomes 2n single-vertex sublevels."""
    require_valid(g, proper=True)
    level: dict[VertexId, int] = {}
    bot: dict[VertexId, VertexId] = {}
    top: dict[VertexId, VertexId] = {}
    level_origin: dict[int, int] = {}
    offset = 0
    for i, vs in g.by_level.items():
        n = len(vs)
        for j, v in enumerate(vs, start=1):
            bot[v] = bot_name(v)
            top[v] = top_name(v)
            level[bot[v]] = offset + j
            level[top[v]] = offset + n + j
        for s in range(1, 2 * n + 1):
            level_origin[offset + s] = i
        offset += 2 * n
    return _assemble(g, offset, level, bot, top, level_origin, None)


def build_star_radial(g: LevelGraph, alpha_plus: dict[int, VertexId],
                      alpha_minus: dict[int, VertexId]) -> StarForm:
    """Modified star form for the radial pipeline.

    When a level's anchors differ, the minus anchor is numbered first and the
    plus anchor last; bottom copies sit on sublevels 1..n and top copies on
    n..2n-1 of the block, so the middle sublevel n holds top(minus anchor) and
    bot(plus anchor).  When the anchors coincide, the anchor's stretch edge
    spans the whole 2n+1 block and the middle sublevel n+1 holds no stretched
    vertex, only subdivision points later on.
    """
    require_valid(g, proper=True)
    level: dict[VertexId, int] = {}
    bot: dict[VertexId, VertexId] = {}
    top: dict[VertexId, VertexId] = {}
    level_origin: dict[int, int] = {}
    middle: dict[int, int] = {}
    offset = 0
    for i in range(1, g.k + 1):
        vs = g.on_level(i)
        n = len(vs)
        if n == 0:
            raise ValueError(f"radial star form needs a nonempty level, level {i} is empty")
        ap, am = alpha_plus[i], alpha_minus[i]
        rest = sorted(v for v in vs if v not in (ap, am))
        for v in vs:
            bot[v] = bot_name(v)
            top[v] = top_name(v)
        if ap != am:
            order = [am, *rest, ap]
            for j, v in enumerate(order, start=1):
                level[bot[v]] = offset + j
                level[top[v]] = offset + n - 1 + j
            width = 2 * n - 1
            middle[i] = offset + n
        else:
            order = [am, *rest]
            level[bot[order[0]]] = offset + 1
            level[top[order[0]]] = offset + 2 * n + 1
            for j, v in enumerate(order[1:], start=2):
                level[bot[v]] = offset + j
                level[top[v]] = offset + n + j
            width = 2 * n + 1
            middle[i] = offset + n + 1
        for s in range(1, width + 1):
            level_origin[offset + s] = i
        offset += width
    return _assemble(g, offset, level, bot, top, level_origin, middle)


@dataclass(frozen=True)
class PlusGraph:
    """Proper subdivision of a star form with full provenance.

    origin maps every vertex back to an original vertex: points on a stretch
    edge belong to its owner, and a subdivision point of an edge image belongs
    to the edge's tail while still inside the tail's block, to its head once
    inside the head's block.
    """

    star_form: StarForm
    graph: LevelGraph
    prov: Properization
    origin: dict[VertexId, VertexId]
    edge_of: dict[VertexId, Edge]  # subdivision vertex -> subdivided star edge

    def point_at(self, star_edge: Edge, lv: int) -> VertexId:
        return self.prov.point_at(star_edge, lv, self.graph.level)

    def star_vertices_on(self, lv: int) -> tuple[VertexId, ...]:
        sf = self.star_form
        return tuple(v for v in self.graph.on_level(lv) if v in sf.owner)


def build_plus(sf: StarForm) -> PlusGraph:
    """Properize the star form and record the origin of every vertex."""
    plus, prov = properize(sf.star)
    origin: dict[VertexId, VertexId] = dict(sf.owner)
    edge_of: dict[VertexId, Edge] = {}
    for w, star_edge in prov.vertex_origin.items():
        edge_of[w] = star_edge
        if star_edge in sf.edge_origin:
            u, v = sf.edge_origin[star_edge]
            tail_block = sf.level_origin[sf.star.level[star_edge[0]]]
            origin[w] = u if sf.level_origin[plus.level[w]] == tail_block else v
        else:
            # stretch edge subdivision point
            origin[w] = sf.owner[star_edge[0]]
    return PlusGraph(sf, plus, prov, origin, edge_of)


def build_betas(pg: PlusGraph, alpha_plus: dict[int, VertexId],
                alpha_minus: dict[int, VertexId]) -> ReferenceSets:
    """The beta maps: the subdivision's per-sublevel anchors, as its reference sets.

    Below a block's middle both anchors follow the minus anchor's stretch
    path, above it the plus anchor's; on the middle itself they split into
    top(minus anchor) and bot(plus anchor) when the level's anchors differ.
    """
    sf = pg.star_form
    assert sf.middle is not None, "beta maps exist only for the radial star form"
    minus: dict[int, VertexId] = {}
    plus: dict[int, VertexId] = {}
    for j in range(1, pg.graph.k + 1):
        i = sf.level_origin[j]
        ap, am = alpha_plus[i], alpha_minus[i]
        m = sf.middle[i]
        if ap == am or j < m:
            minus[j] = plus[j] = pg.point_at(sf.stretch[am], j)
        elif j > m:
            minus[j] = plus[j] = pg.point_at(sf.stretch[ap], j)
        else:
            minus[j] = sf.top[am]
            plus[j] = sf.bot[ap]
    return ReferenceSets(plus, minus)
