"""Star form transformations.

A proper level graph is stretched so that (almost) every sublevel holds exactly
one vertex: each vertex v becomes a vertical *stretch edge* from bot(v) to
top(v), incoming edges attach to bot(v) and outgoing edges to top(v).  The
proper subdivision of the stretched graph is the stage on which assignments
and drawings are converted back and forth.

Two variants exist, laid out by one rule from three inputs per level: its
vertex order, a top shift (0 or -1) and whether the first vertex's stretch edge
spans the block.  The j-th of n vertices gets its bottom copy on sublevel j of
the block and its top copy on sublevel n + shift + j; a spanning stretch edge
ends on sublevel 2n + 1 instead.  The block has 2n + shift + spans sublevels.

The plain variant orders each nonempty level by id, with shift 0 and no spanning
edge, so a level with n vertices expands into 2n sublevels.  The radial variant
orders each level from its minus anchor and gives the block a *middle sublevel*
n + spans crossed by all of its stretch edges: when the level's two anchors
differ, the plus anchor comes last and the shift is -1 (2n-1 sublevels); when
they coincide, the anchor's stretch edge spans the block (2n+1 sublevels).

Each structure is made in one pass: the layout fills the stretched graph's
`by_level` as it places the copies, and `build_plus` subdivides the stretched
graph itself, indexing the subdivision and recording each point's origin as
the point is made.
"""

from __future__ import annotations

from dataclasses import dataclass

from .constraints import ReferenceSets, anchor_problems
from .graphs import (
    Edge,
    LevelGraph,
    Properization,
    VertexId,
    record_checked,
    require_valid,
    subdivision_name,
)


def bot_name(v: VertexId) -> VertexId:
    return f"{v}~bot"


def top_name(v: VertexId) -> VertexId:
    return f"{v}~top"


@dataclass(frozen=True)
class StarForm:
    """The stretched graph plus all provenance needed to map back to the input."""

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


def _lay_out(g: LevelGraph, blocks: list[tuple[int, tuple[VertexId, ...], int, bool]],
            radial: bool) -> StarForm:
    """Stretch g by the layout rule, one block per (level, order, top shift, spans).

    g is valid and proper and each order lists its level's vertices, so the
    stretched graph is valid by construction and recorded as checked; its
    `by_level` is filled block by block as the copies are placed.
    """
    level: dict[VertexId, int] = {}
    by_level: dict[int, tuple[VertexId, ...]] = {}
    bot: dict[VertexId, VertexId] = {}
    top: dict[VertexId, VertexId] = {}
    level_origin: dict[int, int] = {}
    middle: dict[int, int] = {}
    offset = 0
    for i, order, shift, spans in blocks:
        n = len(order)
        for j, v in enumerate(order, start=1):
            b, t = bot[v], top[v] = bot_name(v), top_name(v)
            level[b] = offset + j
            level[t] = offset + (2 * n + 1 if spans and j == 1 else n + shift + j)
            by_level[offset + j] = (b,)
        # the top copies ascend with the order, a spanning one ends the block;
        # with shift -1 the first shares the last bottom copy's sublevel
        for v in (*order[1:], order[0]) if spans else order:
            t = top[v]
            s = level[t]
            by_level[s] = tuple(sorted((*by_level[s], t))) if s in by_level else (t,)
        width = 2 * n + shift + spans
        middle[i] = offset + n + spans
        for s in range(offset + 1, offset + width + 1):
            level_origin[s] = i
        offset += width
    stretch = {v: (bot[v], top[v]) for v in g.level}
    star_edge = {(u, v): (top[u], bot[v]) for u, v in g.edges}
    edge_origin = {img: e for e, img in star_edge.items()}
    edges = tuple(sorted(stretch.values())) + tuple(sorted(star_edge.values()))
    owner = {c: v for v, c in bot.items()}
    owner.update({c: v for v, c in top.items()})
    star = record_checked(LevelGraph(offset, level, edges))
    star.__dict__["by_level"] = by_level
    return StarForm(star, bot, top, owner, stretch, star_edge, edge_origin, level_origin,
                    middle if radial else None)


def build_star_level(g: LevelGraph) -> StarForm:
    """Plain star form: level i with n vertices becomes 2n single-vertex sublevels."""
    require_valid(g, proper=True)
    return _lay_out(g, [(i, vs, 0, False) for i, vs in g.by_level.items()], radial=False)


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
    blocks = []
    for i in range(1, g.k + 1):
        vs = g.on_level(i)
        if not vs:
            raise ValueError(f"radial star form needs a nonempty level, level {i} is empty")
        problems = anchor_problems(g, alpha_plus, alpha_minus, i)
        if problems:
            raise ValueError("invalid anchors: " + "; ".join(problems))
        ap, am = alpha_plus[i], alpha_minus[i]
        rest = [v for v in vs if v not in (ap, am)]
        blocks.append((i, (am, *rest, ap), -1, False) if ap != am else (i, (am, *rest), 0, True))
    return _lay_out(g, blocks, radial=True)


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
    prov: Properization  # vertex_origin: subdivision vertex -> subdivided star edge
    origin: dict[VertexId, VertexId]

    def point_at(self, star_edge: Edge, lv: int) -> VertexId:
        return self.prov.point_at(star_edge, lv, self.graph.level)

    def star_vertices_on(self, lv: int) -> tuple[VertexId, ...]:
        """The star graph's vertices on sublevel lv; G+ keeps their levels and ids."""
        return self.star_form.star.on_level(lv)


def build_plus(sf: StarForm) -> PlusGraph:
    """Subdivide the star form to a proper graph and record the origin of every vertex.

    The star edges are subdivided in the star graph's edge order, as
    `graphs.properize` would subdivide them: each point is named by
    `subdivision_name`, primed while its name is taken, and goes into its
    sublevel's bucket, its segments into their gaps' buckets, as it is made;
    the buckets are sorted into the subdivision's `by_level` and `by_gap`.
    """
    star, level_origin, edge_origin, owner = sf.star, sf.level_origin, sf.edge_origin, sf.owner
    level = dict(star.level)
    at_level = [list(star.by_level.get(j, ())) for j in range(star.k + 1)]
    at_gap: list[list[Edge]] = [[] for _ in range(star.k + 1)]
    edges: list[Edge] = []
    vertex_origin: dict[VertexId, Edge] = {}
    paths: dict[Edge, tuple[VertexId, ...]] = {}
    origin: dict[VertexId, VertexId] = dict(owner)
    for e in star.edges:
        u, v = e
        lu, lv = level[u], level[v]
        if lv - lu == 1:
            edges.append(e)
            at_gap[lu].append(e)
            paths[e] = e
            continue
        # a point of an edge image belongs to the edge's tail while in the
        # tail's block, then to its head; a point of a stretch edge to its owner
        tail, head = edge_origin.get(e) or (owner[u], owner[u])
        tail_block = level_origin[lu]
        path = [u]
        for j in range(lu + 1, lv):
            w = subdivision_name(u, v, j)
            while w in level:  # the name of a copy or an earlier point: prime it
                w += "'"
            level[w] = j
            at_level[j].append(w)
            vertex_origin[w] = e
            origin[w] = tail if level_origin[j] == tail_block else head
            path.append(w)
        path.append(v)
        segs = list(zip(path, path[1:]))
        edges += segs
        for j, seg in enumerate(segs, lu):
            at_gap[j].append(seg)
        paths[e] = tuple(path)
    plus = record_checked(LevelGraph(star.k, level, tuple(edges)), proper=True)
    plus.__dict__["by_level"] = {j: tuple(sorted(vs)) for j, vs in enumerate(at_level) if vs}
    plus.__dict__["by_gap"] = {j: tuple(sorted(es)) for j, es in enumerate(at_gap) if es}
    return PlusGraph(sf, plus, Properization(vertex_origin, paths), origin)


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
