"""Combinatorial drawings, crossing counting, and assignment conversions.

A level drawing is a linear vertex order per level; a radial drawing is a
cyclic order per level plus a left/right flag for every edge sharing an
endpoint with its gap's reference edge.  Crossings follow the standard
two-layer model: within one gap a pair of independent edges crosses at most
once, adjacent edges never cross, and a reference edge is never crossed.
One rule reads a gap in both modes, from the gap's edge classes
(`gap_edge_classes`): a level gap is a radial gap without a reference edge,
whose two levels are read as lines; a radial gap's levels are cut at its
reference edge's ends, and its flagged edges, if any, add the flag rules.

The conversion operations translate between satisfying assignments of the
reduced constraint systems and drawings of the subdivided star form G+, in
both directions and in both the level and the radial setting.  They work on
G+'s integer numbering and build no variable object.  Assignments come in
as point reads and go out as bit lists.  The lift of an input solution to
G+ (`LiftedAssignment`) answers point reads, a bit by the G+ points a
variable names, and holds no system; the realizers read through them, and
checking the lift against a system reads them at that system's points
(`ConstraintSystem.points`), then at its flagged edges, into a bit list in
index order (`values(system)`).  From a drawing back to an assignment is one
rule for both modes: each point of G+'s system is read off the drawing and
corrected by the parity of the crossings the star edges through its
vertices make below its sublevel, and each flag is the drawing's, which
gives G+'s bits in index order; in level mode they project to the input
index by index.  The modes differ only in the reading (a pair's left/right
order, a triple's clockwise order) and in the gap classes the context holds.

Counting, verification, the back-conversion, rendering and the oracles'
search read a drawing through one view (`_Positions`): every vertex's
position is held in one table, checked once to order each level exactly
once, and each cut is derived from that table once per level and anchor
while the level's order stands.  A drawing that orders a level outside
1..k is refused.  The oracles re-order one level of the view at a time.
Nothing is cached on a drawing.  Only gaps that hold edges are
read.  Counting and verification count each crossing pair's crossings and
sort only the pairs that cross an odd number of times; the back-conversion
alone lists the gaps each pair crosses in, since its parity rule needs
them.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import combinations, starmap

from .constraints import (
    BoolVar,
    ConstraintSystem,
    GapClasses,
    ReferenceSets,
    TripleNumber,
    assignment_values,
    build_level_reduced,
    build_radial_reduced,
    evaluate,
    gap_edge_classes,
    gap_flagged_edges,
    record_checked_refs,
    validate_reference_sets,
)
from .graphs import Edge, LevelGraph, VertexId, independent
from .starform import PlusGraph, StarForm, build_betas, build_plus, build_star_level, build_star_radial


class NotHananiTutteError(ValueError):
    """The drawing has an independent edge pair with an odd crossing count."""

    def __init__(self, pair: tuple[Edge, Edge], count: int):
        super().__init__(f"independent edges {pair[0]} and {pair[1]} cross {count} times")
        self.pair = pair
        self.count = count


class UnsatisfyingAssignmentError(ValueError):
    def __init__(self, system: ConstraintSystem, violated):
        super().__init__(f"assignment violates {len(violated)} constraints of {system.meta}, first: {violated[0]}")
        self.violated = violated


def require_satisfying(system: ConstraintSystem,
                       a: LiftedAssignment | Mapping[BoolVar, bool] | list[bool]) -> list[bool]:
    """The `assignment_values` of a, once they satisfy every constraint of the
    system; a `LiftedAssignment` is read at the system's points."""
    values = assignment_values(system, a.values(system) if isinstance(a, LiftedAssignment) else a)
    bad = evaluate(system, values)
    if bad:
        raise UnsatisfyingAssignmentError(system, bad)
    return values


# ---------------------------------------------------------------------------
# Drawings


@dataclass(frozen=True)
class LevelDrawing:
    """Linear vertex order per level; index 0 is the leftmost vertex."""

    orders: dict[int, tuple[VertexId, ...]]

    def positions(self, i: int) -> dict[VertexId, int]:
        return {v: p for p, v in enumerate(self.orders[i])}


@dataclass(frozen=True)
class RadialDrawing:
    """Clockwise cyclic order per level plus left flags for reference-adjacent edges."""

    cyclic: dict[int, tuple[VertexId, ...]]
    left_flag: dict[Edge, bool]

    def positions(self, i: int) -> dict[VertexId, int]:
        return {v: p for p, v in enumerate(self.cyclic[i])}

    def cut_after(self, i: int, a: VertexId) -> dict[VertexId, int]:
        """Linearize the circle starting at a; a gets position 0, and u precedes v
        exactly when a, u, v are clockwise."""
        pos = self.positions(i)
        n = len(self.cyclic[i])
        return {v: (p - pos[a]) % n for v, p in pos.items()}


def check_drawing_covers(orders: dict[int, tuple[VertexId, ...]], g: LevelGraph) -> list[str]:
    """Each level of g that the orders do not order exactly once, then each
    order on a level outside g's levels 1..k."""
    problems = []
    for i in range(1, g.k + 1):
        want = set(g.on_level(i))
        got = orders.get(i, ())
        if set(got) != want or len(got) != len(want):
            problems.append(f"level {i} order is not a permutation of the level's vertices")
    problems += [f"level {i} is not a level of the graph, whose levels are 1..{g.k}"
                 for i in orders if i not in range(1, g.k + 1)]
    return problems


class _Positions:
    """A drawing of g as the per-gap crossing rule reads it.

    Every vertex's position on its level is held in one table;
    `positions(i)` is that table, which the rule indexes by level i's
    vertices.  `cut_after(i, a)` is derived from the table when first read
    and kept while level i's order stands; `show(i, order)` puts a new order
    on level i, moving its vertices in the table and dropping its cuts.  The
    view lives only as long as its reader, one call or one oracle search:
    the drawing itself keeps nothing.

    A drawing that does not order each level of g exactly once, or orders a
    level outside 1..k, is refused with a ValueError listing
    `check_drawing_covers`'s problems.  For a valid g, it orders each level
    exactly once precisely when it lists no vertex twice and lists every
    vertex of g, each on its own level, and no other vertex.  `show` is
    given a re-ordering of the level and does not check it.
    """

    def __init__(self, orders: dict[int, tuple[VertexId, ...]], g: LevelGraph,
                 left_flag: dict[Edge, bool] | None = None):
        self.orders = {i: orders.get(i, ()) for i in range(1, g.k + 1)}
        drawn = {v: i for i, order in self.orders.items() for v in order}
        if len(drawn) != sum(map(len, self.orders.values())) or drawn != g.level or orders.keys() - self.orders:
            raise ValueError("; ".join(check_drawing_covers(orders, g)))
        self.at = {v: p for order in self.orders.values() for p, v in enumerate(order)}
        self.left_flag = left_flag
        self._cuts: defaultdict[int, dict[VertexId, dict[VertexId, int]]] = defaultdict(dict)

    def positions(self, i: int) -> dict[VertexId, int]:
        return self.at

    def cut_after(self, i: int, a: VertexId) -> dict[VertexId, int]:
        """`RadialDrawing.cut_after`, read from the table."""
        cuts = self._cuts[i]
        cut = cuts.get(a)
        if cut is None:
            at, order = self.at, self.orders[i]
            n, start = len(order), at[a]
            cut = cuts[a] = {v: (at[v] - start) % n for v in order}
        return cut

    def show(self, i: int, order: tuple[VertexId, ...]) -> None:
        self.orders[i] = order
        self.at.update(zip(order, range(len(order))))
        self._cuts.pop(i, None)


# ---------------------------------------------------------------------------
# Crossing model: one rule per gap for both modes, shared by counting,
# verification, the back-conversions, the oracles and rendering


@dataclass
class CrossingReport:
    per_pair: dict[tuple[Edge, Edge], int]
    ht_violations: list[tuple[Edge, Edge]]
    planar: bool

    def count(self, e: Edge, f: Edge) -> int:
        return self.per_pair.get(_pair_key(e, f), 0)

    def total(self) -> int:
        return sum(self.per_pair.values())


def _pair_key(e: Edge, f: Edge) -> tuple[Edge, Edge]:
    return (e, f) if e <= f else (f, e)


def _odd_independent(odd) -> list[tuple[Edge, Edge]]:
    """The independent pairs among pairs that cross an odd number of times, sorted."""
    return sorted(pair for pair in odd if independent(*pair))


def _count_crossings(g: LevelGraph, gap_pairs, origin: Callable[[Edge], Edge] | None = None) -> CrossingReport:
    """Per-pair crossing counts, each pair counted where it first crosses.

    `gap_pairs(i)` lists gap i's crossing segment pairs of a drawing of g; it
    is read only for the gaps that hold edges.  `origin`, when given, maps
    each segment to the star edge it subdivides, so that the pairs are star
    edge pairs.
    """
    per_pair: dict[tuple[Edge, Edge], int] = {}
    count = per_pair.get
    for i in g.by_gap:
        for e, f in gap_pairs(i):
            if origin is not None:
                e, f = origin(e), origin(f)
            pair = (e, f) if e <= f else (f, e)
            per_pair[pair] = count(pair, 0) + 1
    odd = _odd_independent(pair for pair, c in per_pair.items() if c % 2)
    return CrossingReport(per_pair, odd, planar=not per_pair)


def _gap_crossings(g: LevelGraph, gap_pairs, origin: Callable[[Edge], Edge]) -> dict[tuple[Edge, Edge], list[int]]:
    """The back-conversion's reading of a drawing of G+: for each star edge
    pair that crosses, the gaps it crosses in, ascending, one entry per
    crossing; the gaps are read as `_count_crossings` reads them."""
    by_pair: defaultdict[tuple[Edge, Edge], list[int]] = defaultdict(list)
    for i in g.by_gap:
        for e, f in gap_pairs(i):
            by_pair[_pair_key(origin(e), origin(f))].append(i)
    return by_pair


def _inverted_pairs(edges, lo: dict[VertexId, int], hi: dict[VertexId, int]) -> list[tuple[Edge, Edge]]:
    """Independent edge pairs whose tails and heads lie in opposite orders.

    All edges lie in one gap, so two of them are independent exactly when
    their tails differ and their heads differ; the crossing rule below uses
    the same test.
    """
    return [(e, f) for e, f in combinations(edges, 2)
            if e[0] != f[0] and e[1] != f[1] and (lo[e[0]] < lo[f[0]]) != (hi[e[1]] < hi[f[1]])]


def _gap_crossing_pairs(d, i: int, classes: GapClasses) -> list[tuple[Edge, Edge]]:
    """Crossing segment pairs in gap i of a drawing d, from the gap's
    `gap_edge_classes`.

    A gap without a reference edge (level mode) reads levels i and i+1 as
    lines.  A radial gap's annulus is cut along its reference edge, which
    itself is never crossed, so each level is read as its circle cut at the
    reference edge's end.  Plain edges cross when the two lines invert them;
    two reference-adjacent edges on opposite ends cross when their flags
    agree; a reference-adjacent edge crosses a plain edge when its flag
    disagrees with the plain edge's position relative to the adjacent edge's
    free endpoint.  A drawing that lacks the left flag of a
    reference-adjacent edge of the gap is refused with a ValueError naming
    the first such edge.
    """
    eps, plain, plus_adj, minus_adj = classes
    if eps is None:
        lo, hi = d.positions(i), d.positions(i + 1)
    else:
        lo, hi = d.cut_after(i, eps[0]), d.cut_after(i + 1, eps[1])
    out = _inverted_pairs(plain, lo, hi)
    if not (plus_adj or minus_adj):
        return out
    for e in gap_flagged_edges(classes):
        if e not in d.left_flag:
            raise ValueError(f"drawing lacks a left flag for reference-adjacent edge {e}")
    for e in plus_adj:
        for f in minus_adj:
            if d.left_flag[e] == d.left_flag[f]:
                out.append((e, f))
    for e in plus_adj:
        for f in plain:
            if e[0] != f[0] and e[1] != f[1] and d.left_flag[e] != (hi[f[1]] < hi[e[1]]):
                out.append((e, f))
    for e in minus_adj:
        for f in plain:
            if e[0] != f[0] and e[1] != f[1] and d.left_flag[e] != (lo[f[0]] < lo[e[0]]):
                out.append((e, f))
    return out


def gap_crossing_pairs_level(d: LevelDrawing, g: LevelGraph, i: int) -> list[tuple[Edge, Edge]]:
    """Segment pairs that cross between levels i and i+1: independent and inverted."""
    return _gap_crossing_pairs(d, i, gap_edge_classes(g, None, i))


def gap_crossing_pairs_radial(d: RadialDrawing, g: LevelGraph, refs: ReferenceSets, i: int) -> list[tuple[Edge, Edge]]:
    """Segment pairs that cross in gap i, cut along its reference edge."""
    return _gap_crossing_pairs(d, i, gap_edge_classes(g, refs, i))


def _report(d: LevelDrawing | RadialDrawing, g: LevelGraph, classes: Callable[[int], GapClasses],
            origin: Callable[[Edge], Edge] | None = None) -> CrossingReport:
    """The crossings of a drawing of g as `_count_crossings` counts them,
    gap i read by the crossing rule under `classes(i)`."""
    view = _Positions(d.orders, g) if isinstance(d, LevelDrawing) else _Positions(d.cyclic, g, d.left_flag)
    return _count_crossings(g, lambda i: _gap_crossing_pairs(view, i, classes(i)), origin)


def count_crossings_level(d: LevelDrawing, g: LevelGraph) -> CrossingReport:
    return _report(d, g, partial(gap_edge_classes, g, None))


def count_crossings_radial(d: RadialDrawing, g: LevelGraph, refs: ReferenceSets) -> CrossingReport:
    return _report(d, g, partial(gap_edge_classes, g, refs))


# ---------------------------------------------------------------------------
# Contexts bundling the star form machinery for one input graph


@dataclass(frozen=True, kw_only=True)
class LevelContext:
    """One proper input graph; its subdivision and the reduced systems of both
    are built on first use.  Level mode has no reference sets."""

    base: LevelGraph
    refs = None
    plus_refs = None

    @cached_property
    def pg(self) -> PlusGraph:
        return build_plus(build_star_level(self.base))

    @cached_property
    def system(self) -> ConstraintSystem:
        return build_level_reduced(self.base)

    @cached_property
    def plus_system(self) -> ConstraintSystem:
        return build_level_reduced(self.pg.graph)

    @property
    def star_form(self) -> StarForm:
        return self.pg.star_form

    @cached_property
    def plus_gap_classes(self) -> dict[int, GapClasses]:
        """The `gap_edge_classes` of each gap of the subdivision."""
        return {i: gap_edge_classes(self.pg.graph, self.plus_refs, i) for i in range(1, self.pg.graph.k)}

    def segment_origin(self, seg: Edge) -> Edge:
        """The star edge that the subdivision's edge seg subdivides.

        A subdivision point has one edge in and one edge out, both on its star
        edge's path, so an endpoint that is a subdivision point names the star
        edge; a segment with no such endpoint is itself a star edge.
        """
        edge_of = self.pg.prov.vertex_origin
        return edge_of.get(seg[0]) or edge_of.get(seg[1]) or seg


def make_level_context(g: LevelGraph) -> LevelContext:
    return LevelContext(base=g)


@dataclass(frozen=True, kw_only=True)
class RadialContext(LevelContext):
    refs: ReferenceSets = field()  # required; base has its reference edges already inserted

    @cached_property
    def pg(self) -> PlusGraph:
        return build_plus(build_star_radial(self.base, self.refs.alpha_plus, self.refs.alpha_minus))

    @cached_property
    def plus_refs(self) -> ReferenceSets:
        """The reference sets of the subdivision, the beta maps."""
        plus_refs = build_betas(self.pg, self.refs.alpha_plus, self.refs.alpha_minus)
        problems = validate_reference_sets(self.pg.graph, plus_refs)
        if problems:
            raise AssertionError(f"internal error: beta maps are not valid reference sets: {problems}")
        return record_checked_refs(plus_refs, self.pg.graph)

    @cached_property
    def plus_flagged(self) -> tuple[Edge, ...]:
        """The subdivision's edges that carry a left flag: gap by gap, each in
        `gap_flagged_edges` order."""
        return tuple(e for classes in self.plus_gap_classes.values() for e in gap_flagged_edges(classes))

    @cached_property
    def system(self) -> ConstraintSystem:
        return build_radial_reduced(self.base, self.refs)

    @cached_property
    def plus_system(self) -> ConstraintSystem:
        return build_radial_reduced(self.pg.graph, self.plus_refs)


def make_radial_context(g: LevelGraph, refs: ReferenceSets) -> RadialContext:
    return RadialContext(base=g, refs=refs)


def star_report_level(d: LevelDrawing, ctx: LevelContext) -> CrossingReport:
    """Verification: the crossings of a drawing of G+, by star edge pair."""
    return _report(d, ctx.pg.graph, ctx.plus_gap_classes.__getitem__, ctx.segment_origin)


def star_report_radial(d: RadialDrawing, ctx: RadialContext) -> CrossingReport:
    """`star_report_level`: the context holds each mode's gap classes."""
    return star_report_level(d, ctx)


@dataclass(frozen=True)
class LiftedAssignment:
    """The lift of an input solution to G+, as point reads: `pair(x, y)` in
    level mode, `triple(a, u, v)` and `flag(e)` in radial mode, each the bit
    of the variable those G+ points name, computed when read; no variable
    object is built.  The realizers read through them, and `values(system)`
    reads a whole system of G+ through them."""

    pair: Callable[[VertexId, VertexId], bool] | None = None
    triple: Callable[[VertexId, VertexId, VertexId], bool] | None = None
    flag: Callable[[Edge], bool] | None = None

    def values(self, system: ConstraintSystem) -> list[bool]:
        """The system's bits in index order, read at its `points`, then at its flags."""
        if self.pair is not None:
            return list(starmap(self.pair, system.points()))
        return [*starmap(self.triple, system.points()), *map(self.flag, system.flag)]


def _assignment_from_drawing(ctx: LevelContext, view: _Positions, read: Callable[..., bool]) -> list[bool]:
    """The back-conversion rule of both modes: the bits of G+'s reduced
    system, in index order, from a Hanani-Tutte drawing of G+, its raw
    reading corrected by crossing parity.

    Each point of the system (`ConstraintSystem.points`) on sublevel j
    takes its raw value `read(*point)` off the drawing, XOR the sum of
    pcr(e, f, j) over each two of its vertices.  e and f are the star edges
    the two vertices subdivide; pcr counts their crossings in the gaps below
    j, plus one when e and f share their tail and cross an odd number of
    times in total.  A bot or top copy subdivides no star edge and adds
    nothing, nor does a star edge that crosses none, so a point with fewer
    than two vertices on crossing star edges is read raw.  Each flagged edge
    (`ConstraintSystem.flag`), after the points, takes the drawing's flag.
    The crossings are listed once, each gap by the crossing rule under its
    `ctx.plus_gap_classes`, and an independent star edge pair crossing an
    odd number of times is refused.
    """
    g, plus, classes = ctx.pg.graph, ctx.plus_system, ctx.plus_gap_classes
    by_pair = _gap_crossings(g, lambda i: _gap_crossing_pairs(view, i, classes[i]), ctx.segment_origin)
    odd = _odd_independent(pair for pair, gaps in by_pair.items() if len(gaps) % 2)
    if odd:
        raise NotHananiTutteError(odd[0], len(by_pair[odd[0]]))
    crossed = {e for pair in by_pair for e in pair}
    on = {x: e for x, e in ctx.pg.prov.vertex_origin.items() if e in crossed}  # the vertices pcr can count
    level = g.level

    def pcr(p: VertexId, q: VertexId) -> int:
        e, f = on.get(p), on.get(q)
        if e is None or f is None:
            return 0
        gaps = by_pair.get(_pair_key(e, f), ())
        return bisect_left(gaps, level[p]) + (e[0] == f[0] and len(gaps) % 2)

    def corrected(*point: VertexId) -> bool:
        if sum(map(on.__contains__, point)) < 2:
            return read(*point)
        return read(*point) != bool(sum(starmap(pcr, combinations(point, 2))) % 2)

    return [*starmap(corrected if on else read, plus.points()), *(view.left_flag[e] for e in plus.flag)]


# ---------------------------------------------------------------------------
# Level conversions


def assignment_from_drawing_level(d: LevelDrawing, ctx: LevelContext) -> tuple[list[bool], list[bool]]:
    """A satisfying assignment of the subdivision G+, and its projection to
    the input, from a Hanani-Tutte level drawing of G+: the bits of each
    stage's reduced system in index order.

    The raw value of a pair "u left of w" is read off the drawing and
    corrected by crossing parity as `_assignment_from_drawing` states.  The
    result projects through the stretch edges to the input graph, index by
    index.
    """
    pg, sf, plus = ctx.pg, ctx.star_form, ctx.plus_system
    view = _Positions(d.orders, pg.graph)
    at = view.at
    bits_plus = _assignment_from_drawing(ctx, view, lambda u, w: at[u] < at[w])
    star_level, stretch, number = sf.star.level, sf.stretch, plus.number
    bits = []
    for u, w in ctx.system.points():
        su, sw = stretch[u], stretch[w]
        lv = max(star_level[su[0]], star_level[sw[0]])
        bits.append(bits_plus[number(pg.point_at(su, lv), pg.point_at(sw, lv))])
    require_satisfying(plus, bits_plus)
    require_satisfying(ctx.system, bits)
    return bits_plus, bits


def lift_assignment_level(phi: list[bool], ctx: LevelContext) -> LiftedAssignment:
    """Extend a satisfying assignment of the input graph, a bit list as
    `solve_reduced` returns it, to its subdivision.

    Vertices inherit the order of their origins; two subdivision points of
    edges leaving the same origin copy their heads' order, of edges entering
    the same origin their tails' order.
    """
    pg = ctx.pg
    bits = require_satisfying(ctx.system, phi)
    number = ctx.system.number
    origin, edge_of, edge_origin = pg.origin, pg.prov.vertex_origin, ctx.star_form.edge_origin

    def pair(x: VertexId, y: VertexId) -> bool:
        a, b = origin[x], origin[y]
        if a != b:
            return bits[number(a, b)]
        e1 = edge_origin.get(edge_of.get(x, ("", "")))
        e2 = edge_origin.get(edge_of.get(y, ("", "")))
        assert e1 is not None and e2 is not None, "origin collision off the star edges"
        if e1[0] == e2[0]:
            return bits[number(e1[1], e2[1])]
        assert e1[1] == e2[1], f"edges {e1}, {e2} collide without a shared endpoint"
        return bits[number(e1[0], e2[0])]

    return LiftedAssignment(pair=pair)


def _around(pivot: VertexId, vs: tuple[VertexId, ...], lead: tuple[VertexId, ...],
            bit: Callable[[VertexId], bool]) -> tuple[VertexId, ...]:
    """The placement rule of both realizers: lead, then the other vertices of
    vs whose bit is unset, then pivot, then those whose bit is set, each side
    in the order of vs."""
    unset: list[VertexId] = []
    is_set: list[VertexId] = []
    for v in vs:
        if v != pivot and v not in lead:
            (is_set if bit(v) else unset).append(v)
    return (*lead, *unset, pivot, *is_set)


def drawing_from_assignment_level(phi_plus: LiftedAssignment, ctx: LevelContext) -> LevelDrawing:
    """Place each level's lone stretched vertex as pivot; order others by their bit."""
    pair, stars = phi_plus.pair, ctx.star_form.star.by_level
    orders: dict[int, tuple[VertexId, ...]] = {}
    for j, vs in ctx.pg.graph.by_level.items():  # G+ has a vertex on each of its sublevels
        pivots = stars.get(j, ())
        assert len(pivots) == 1, f"level {j} of the plain subdivision must hold one stretched vertex"
        orders[j] = _around(pivots[0], vs, (), partial(pair, pivots[0]))
    return LevelDrawing(orders)


# ---------------------------------------------------------------------------
# Radial conversions


def _psi_gap_order(bits: list[bool], number: TripleNumber, flag: dict[Edge, int], refs: ReferenceSets,
                   i: int, e: Edge, f: Edge) -> bool:
    """Order of two distinct non-reference gap edges around the reference edge,
    read from the bits of a radial system by its `number` and `flag`.

    Several clauses of the defining case split may apply at once; they must
    agree for a satisfying assignment, so any disagreement is a hard error.
    """
    ap = refs.alpha_plus[i]
    am_next = refs.alpha_minus[i + 1]
    (u, u1), (v, v1) = e, f
    vals = []
    if len({ap, u, v}) == 3:
        vals.append(bits[number(ap, u, v)])
    if len({am_next, u1, v1}) == 3:
        vals.append(bits[number(am_next, u1, v1)])
    if (ap == v and v != u) or (am_next == v1 and v1 != u1):
        vals.append(bits[flag[f]])
    if (ap == u and u != v) or (am_next == u1 and u1 != v1):
        vals.append(not bits[flag[e]])
    if not vals:
        raise AssertionError(f"no ordering rule applies to {e}, {f} in gap {i}")
    if len(set(vals)) != 1:
        raise AssertionError(f"ordering rules disagree for {e}, {f} in gap {i}: {vals}")
    return vals[0]


def lift_assignment_radial(phi: list[bool], ctx: RadialContext) -> LiftedAssignment:
    """Extend a satisfying radial assignment of the input, a bit list as
    `solve_reduced` returns it, to its subdivision."""
    pg = ctx.pg
    bits = require_satisfying(ctx.system, phi)
    number, flag = ctx.system.number, ctx.system.flag
    origin, edge_of, edge_origin = pg.origin, pg.prov.vertex_origin, ctx.star_form.edge_origin
    flag_bits = {seg: bits[flag[origin[seg[0]], origin[seg[1]]]] for seg in ctx.plus_flagged}

    def triple(a: VertexId, u: VertexId, v: VertexId) -> bool:
        ox, oy, oz = origin[a], origin[u], origin[v]
        if len({ox, oy, oz}) == 3:
            return bits[number(ox, oy, oz)]
        assert oy == oz and ox != oy, "origin collision must pair two subdivision points"
        e = edge_origin[edge_of[u]]
        f = edge_origin[edge_of[v]]
        return _psi_gap_order(bits, number, flag, ctx.refs, ctx.base.level[e[0]], e, f)

    return LiftedAssignment(triple=triple, flag=flag_bits.__getitem__)


def drawing_from_assignment_radial(phi_plus: LiftedAssignment, ctx: RadialContext) -> RadialDrawing:
    """Realize a satisfying assignment of the subdivision as a radial drawing.

    On a split middle level the two anchors frame the circle and every other
    vertex picks its arc; elsewhere the lone stretched vertex is placed
    against the level's anchor.  Residual order inside an arc is ascending id.
    """
    triple, flag, stars = phi_plus.triple, phi_plus.flag, ctx.star_form.star.by_level
    minus, plus = ctx.plus_refs.alpha_minus, ctx.plus_refs.alpha_plus
    cyclic: dict[int, tuple[VertexId, ...]] = {}
    for j, vs in ctx.pg.graph.by_level.items():  # G+ has a vertex on each of its sublevels
        bm, bp = minus[j], plus[j]
        if bm != bp:
            # the vertices with t(bm, v, bp) set lie on the arc from bm to bp, before bp
            cyclic[j] = _around(bp, vs, (bm,), lambda v: not triple(bm, v, bp))
        else:
            xi = stars[j][0] if j in stars else None
            if xi is None or xi == bm:
                cyclic[j] = tuple(vs)
            else:
                cyclic[j] = _around(xi, vs, (bm,), partial(triple, bm, xi))
    left_flag = {seg: flag(seg) for seg in ctx.plus_flagged}
    return RadialDrawing(cyclic, left_flag)


def assignment_from_drawing_radial(d: RadialDrawing, ctx: RadialContext) -> list[bool]:
    """A satisfying assignment of the subdivision G+ from a radial
    Hanani-Tutte drawing of G+: the bits of its reduced system in index order.

    The raw value of a triple is its clockwise order on the drawing's circle,
    of a flag the drawing's flag; triples are corrected by crossing parity as
    `_assignment_from_drawing` states.
    """
    level = ctx.pg.graph.level
    view = _Positions(d.cyclic, ctx.pg.graph, d.left_flag)
    cut_after = view.cut_after

    def clockwise(a: VertexId, u: VertexId, v: VertexId) -> bool:
        cut = cut_after(level[a], a)
        return cut[u] < cut[v]

    bits = _assignment_from_drawing(ctx, view, clockwise)
    require_satisfying(ctx.plus_system, bits)
    return bits
