"""Combinatorial drawings, crossing counting, and assignment conversions.

A level drawing is a linear vertex order per level; a radial drawing is a
cyclic order per level plus a left/right flag for every edge sharing an
endpoint with its gap's reference edge.  Crossings follow the standard
two-layer model: within one gap a pair of independent edges crosses at most
once, adjacent edges never cross, and a reference edge is never crossed.

The conversion operations translate between satisfying assignments of the
reduced constraint systems and drawings of the subdivided star form G+, in
both directions and in both the level and the radial setting.  The lift of
an input solution to G+ answers point reads, a bit by the G+ points a
variable names, and the realizers read through them without building
variable objects.  From a drawing back to an assignment is one rule for both
modes: each variable of G+ is read off the drawing and corrected by the
parity of the crossings the star edges through its points make below its
sublevel.  The modes differ only in the reading (a pair's left/right order,
a triple's clockwise order) and in the per-gap crossing rule.

Counting, verification, the back-conversion and rendering read a whole
drawing through one view made for that call: every vertex's position is
computed once, with the check that the drawing orders each level exactly
once, and each cut is derived from that table.  Nothing is cached on a
drawing.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import combinations, permutations

from .constraints import (
    Assignment,
    BoolVar,
    ConstraintSystem,
    FlagVar,
    GapClasses,
    PairVar,
    ReferenceSets,
    TripleNumber,
    TripleVar,
    assignment_values,
    build_level_reduced,
    build_radial_reduced,
    evaluate,
    flagged_edges,
    gap_edge_classes,
    gap_flagged_edges,
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


def require_satisfying(system: ConstraintSystem, a: Mapping[BoolVar, bool] | list[bool]) -> list[bool]:
    """The `assignment_values` of a, once they satisfy every constraint of the system."""
    values = assignment_values(system, a)
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
    problems = []
    for i in range(1, g.k + 1):
        want = set(g.on_level(i))
        got = orders.get(i, ())
        if set(got) != want or len(got) != len(want):
            problems.append(f"level {i} order is not a permutation of the level's vertices")
    return problems


class _Positions:
    """A drawing of g as the per-gap crossing rules read it, for one call.

    Every vertex's position on its level is computed once, when the view is
    made, into one table; `positions(i)` is that table, which a rule indexes
    by level i's vertices, and each cut is derived from it.  The table lives
    only as long as the view: the drawing itself keeps nothing.

    A drawing that does not order each level of g exactly once is refused
    with a ValueError listing `check_drawing_covers`'s problems.  For a
    valid g, it orders each level exactly once precisely when it lists no
    vertex twice and lists every vertex of g, each on its own level, and no
    other vertex.
    """

    def __init__(self, orders: dict[int, tuple[VertexId, ...]], g: LevelGraph,
                 left_flag: dict[Edge, bool] | None = None):
        self.orders = {i: orders.get(i, ()) for i in range(1, g.k + 1)}
        drawn = {v: i for i, order in self.orders.items() for v in order}
        if len(drawn) != sum(map(len, self.orders.values())) or drawn != g.level:
            raise ValueError("; ".join(check_drawing_covers(orders, g)))
        self.at = {v: p for order in self.orders.values() for p, v in enumerate(order)}
        self.left_flag = left_flag

    def positions(self, i: int) -> dict[VertexId, int]:
        return self.at

    def cut_after(self, i: int, a: VertexId) -> dict[VertexId, int]:
        """`RadialDrawing.cut_after`, read from the table."""
        at, order = self.at, self.orders[i]
        n, start = len(order), at[a]
        return {v: (at[v] - start) % n for v in order}


# ---------------------------------------------------------------------------
# Crossing model: one rule per gap and mode, shared by counting, verification,
# the back-conversion, the oracles and rendering


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


def _odd_independent(per_pair: dict[tuple[Edge, Edge], int]) -> list[tuple[Edge, Edge]]:
    return [pair for pair, c in sorted(per_pair.items()) if c % 2 and independent(*pair)]


def _gap_crossings(g: LevelGraph, gap_pairs,
                   origin: dict[Edge, Edge] | None = None) -> dict[tuple[Edge, Edge], list[int]]:
    """The drawing's crossings, listed once: the gaps each crossing pair
    crosses in, ascending, one entry per crossing.

    `gap_pairs(i)` lists gap i's crossing segment pairs of a drawing of g;
    `origin`, when given, maps each segment to the star edge it subdivides,
    so that the pairs are star edge pairs.
    """
    by_pair: defaultdict[tuple[Edge, Edge], list[int]] = defaultdict(list)
    for i in range(1, g.k):
        for e, f in gap_pairs(i):
            if origin is not None:
                e, f = origin[e], origin[f]
            by_pair[_pair_key(e, f)].append(i)
    return by_pair


def _report(by_pair: dict[tuple[Edge, Edge], list[int]]) -> CrossingReport:
    per_pair = {pair: len(gaps) for pair, gaps in by_pair.items()}
    return CrossingReport(per_pair, _odd_independent(per_pair), planar=not per_pair)


def _count_crossings(g: LevelGraph, gap_pairs, origin: dict[Edge, Edge] | None = None) -> CrossingReport:
    """Per-pair crossing counts over every gap, as `_gap_crossings` lists them."""
    return _report(_gap_crossings(g, gap_pairs, origin))


def _inverted_pairs(edges, lo: dict[VertexId, int], hi: dict[VertexId, int]) -> list[tuple[Edge, Edge]]:
    """Independent edge pairs whose tails and heads lie in opposite orders.

    All edges lie in one gap, so two of them are independent exactly when
    their tails differ and their heads differ; the crossing rules below use
    the same test.
    """
    return [(e, f) for e, f in combinations(edges, 2)
            if e[0] != f[0] and e[1] != f[1] and (lo[e[0]] < lo[f[0]]) != (hi[e[1]] < hi[f[1]])]


def gap_crossing_pairs_level(d: LevelDrawing, g: LevelGraph, i: int) -> list[tuple[Edge, Edge]]:
    """Segment pairs that cross between levels i and i+1: independent and inverted."""
    return _inverted_pairs(g.gap_edges(i), d.positions(i), d.positions(i + 1))


def gap_crossing_pairs_radial(d: RadialDrawing, g: LevelGraph, refs: ReferenceSets, i: int) -> list[tuple[Edge, Edge]]:
    """Crossing segment pairs in gap i.

    The gap's annulus is cut along the reference edge, which itself is never
    crossed.  Plain edges cross when the cut linearizations invert them; two
    reference-adjacent edges on opposite ends cross when their flags agree; a
    reference-adjacent edge crosses a plain edge when its flag disagrees with
    the plain edge's position relative to the adjacent edge's free endpoint.
    """
    return _flagged_gap_pairs_radial(d, i, gap_edge_classes(g, refs, i))


def _flagged_gap_pairs_radial(d: RadialDrawing, i: int, classes: GapClasses) -> list[tuple[Edge, Edge]]:
    """`_gap_crossing_pairs_radial`, once the drawing flags each reference-adjacent edge of the gap."""
    for e in gap_flagged_edges(classes):
        if e not in d.left_flag:
            raise ValueError(f"drawing lacks a left flag for reference-adjacent edge {e}")
    return _gap_crossing_pairs_radial(d, i, classes)


def _gap_crossing_pairs_radial(d: RadialDrawing, i: int, classes: GapClasses) -> list[tuple[Edge, Edge]]:
    """`gap_crossing_pairs_radial` on gap i's `gap_edge_classes`, for a drawing
    that flags every reference-adjacent edge."""
    eps, plain, plus_adj, minus_adj = classes
    lo = d.cut_after(i, eps[0])
    hi = d.cut_after(i + 1, eps[1])
    out = _inverted_pairs(plain, lo, hi)
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


def count_crossings_level(d: LevelDrawing, g: LevelGraph) -> CrossingReport:
    view = _Positions(d.orders, g)
    return _count_crossings(g, lambda i: gap_crossing_pairs_level(view, g, i))


def count_crossings_radial(d: RadialDrawing, g: LevelGraph, refs: ReferenceSets) -> CrossingReport:
    view = _Positions(d.cyclic, g, d.left_flag)
    return _count_crossings(g, lambda i: gap_crossing_pairs_radial(view, g, refs, i))


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
    def segment_origin(self) -> dict[Edge, Edge]:
        """Each edge of the subdivision mapped to the star edge it subdivides."""
        return {seg: star_edge for star_edge, path in self.pg.prov.paths.items()
                for seg in zip(path, path[1:])}


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
        return plus_refs

    @cached_property
    def plus_gap_classes(self) -> dict[int, GapClasses]:
        """The `gap_edge_classes` of each gap of the subdivision."""
        return {i: gap_edge_classes(self.pg.graph, self.plus_refs, i) for i in range(1, self.pg.graph.k)}

    @cached_property
    def plus_flagged(self) -> tuple[Edge, ...]:
        """The subdivision's edges that carry a left flag, in `flagged_edges` order."""
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
    g = ctx.pg.graph
    view = _Positions(d.orders, g)
    return _count_crossings(g, lambda i: gap_crossing_pairs_level(view, g, i), ctx.segment_origin)


def star_report_radial(d: RadialDrawing, ctx: RadialContext) -> CrossingReport:
    g, classes = ctx.pg.graph, ctx.plus_gap_classes
    view = _Positions(d.cyclic, g, d.left_flag)
    return _count_crossings(g, lambda i: _flagged_gap_pairs_radial(view, i, classes[i]), ctx.segment_origin)


def _points(var: BoolVar) -> tuple[VertexId, ...]:
    """The sublevel points a variable of G+ reads: two for a pair, three for a triple, none for a flag."""
    if type(var) is PairVar:
        return var.u, var.w
    if type(var) is TripleVar:
        return var.anchor, var.u, var.v
    return ()


def _assignment_from_drawing(ctx: LevelContext, gap_pairs, read: Callable[[BoolVar], bool]) -> Assignment:
    """The back-conversion rule of both modes: a Hanani-Tutte drawing of G+,
    its raw reading corrected by crossing parity.

    Each variable of G+ takes its raw value `read(var)` off the drawing, XOR
    the sum of pcr(e, f, j) over each pair of its points on sublevel j.  e
    and f are the star edges the two points subdivide; pcr counts their
    crossings in the gaps below j, plus one when e and f share their tail and
    cross an odd number of times in total.  A bot or top copy subdivides no
    star edge and adds nothing, and a flag has no points.  `gap_pairs(i)`
    lists gap i's crossing segment pairs; the crossings are listed once, and
    an independent star edge pair crossing an odd number of times is refused.
    """
    by_pair = _gap_crossings(ctx.pg.graph, gap_pairs, ctx.segment_origin)
    report = _report(by_pair)
    if report.ht_violations:
        pair = report.ht_violations[0]
        raise NotHananiTutteError(pair, report.count(*pair))

    def pcr(e: Edge | None, f: Edge | None, j: int) -> int:
        if e is None or f is None:
            return 0
        gaps = by_pair.get(_pair_key(e, f), ())
        return bisect_left(gaps, j) + (e[0] == f[0] and len(gaps) % 2)

    edge_of, level = ctx.pg.prov.vertex_origin.get, ctx.pg.graph.level
    phi: Assignment = {}
    for var in ctx.plus_system.variables:
        flips = sum(pcr(edge_of(p), edge_of(q), level[p]) for p, q in combinations(_points(var), 2))
        phi[var] = read(var) != bool(flips % 2)
    return phi


# ---------------------------------------------------------------------------
# Level conversions


def induced_pair_assignment(d: LevelDrawing) -> Assignment:
    """Pair-order values read straight off the positions of a level drawing."""
    out: Assignment = {}
    for i, order in d.orders.items():
        pos = {v: p for p, v in enumerate(order)}
        for u, w in permutations(order, 2):
            out[PairVar(u, w)] = pos[u] < pos[w]
    return out


def assignment_from_drawing_level(d: LevelDrawing, ctx: LevelContext) -> tuple[Assignment, Assignment]:
    """A satisfying assignment of the subdivision G+, and its projection to
    the input, from a Hanani-Tutte level drawing of G+.

    The raw value of a pair "u left of w" is read off the drawing and
    corrected by crossing parity as `_assignment_from_drawing` states.  The
    result projects through the stretch edges to the input graph.
    """
    pg, sf = ctx.pg, ctx.star_form
    view = _Positions(d.orders, pg.graph)
    at = view.at
    phi_plus = _assignment_from_drawing(ctx, lambda i: gap_crossing_pairs_level(view, pg.graph, i),
                                        lambda var: at[var.u] < at[var.w])
    star_level = sf.star.level
    phi: Assignment = {}
    for var in ctx.system.variables:
        su, sw = sf.stretch[var.u], sf.stretch[var.w]
        lv = max(star_level[su[0]], star_level[sw[0]])
        phi[var] = phi_plus[PairVar(pg.point_at(su, lv), pg.point_at(sw, lv))]
    require_satisfying(ctx.plus_system, phi_plus)
    require_satisfying(ctx.system, phi)
    return phi_plus, phi


class LiftedAssignment(Mapping):
    """A satisfying assignment of the subdivision G+, computed bit by bit.

    The lift's rule is exposed as point reads, which take the sublevel
    points a variable names and neither build nor check a variable object:
    `pair(x, y)` in level mode, `triple(a, u, v)` and `flag(e)` (a table of
    precomputed bits) in radial mode.  The realizers read through them.
    Looking a variable up checks that it is a variable of G+'s systems,
    raising KeyError otherwise, and delegates to the read of its kind.  The
    keys are `ctx.plus_system.variables`, so only a caller that iterates the
    mapping or takes its length builds G+'s reduced system and spells its
    variables.
    """

    def __init__(self, ctx: LevelContext, *, pair: Callable[[VertexId, VertexId], bool] | None = None,
                 triple: Callable[[VertexId, VertexId, VertexId], bool] | None = None,
                 flag: Callable[[Edge], bool] | None = None):
        self._ctx = ctx
        self.pair, self.triple, self.flag = pair, triple, flag

    def __getitem__(self, var: BoolVar) -> bool:
        level = self._ctx.pg.graph.level
        if type(var) is PairVar and self.pair is not None:
            if var.u != var.w and level.get(var.u, 0) == level.get(var.w):
                return self.pair(var.u, var.w)
        elif type(var) is TripleVar and self.triple is not None:
            j = level.get(var.anchor)
            if (j is not None and var.anchor in self._ctx.plus_refs.anchors(j) and level.get(var.u) == j
                    and level.get(var.v) == j and len({var.anchor, var.u, var.v}) == 3):
                return self.triple(var.anchor, var.u, var.v)
        elif type(var) is FlagVar and self.flag is not None:
            return self.flag(var.edge)
        raise KeyError(var)

    def __iter__(self) -> Iterator[BoolVar]:
        return iter(self._ctx.plus_system.variables)

    def __len__(self) -> int:
        return len(self._ctx.plus_system.variables)


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

    return LiftedAssignment(ctx, pair=pair)


class _VariableReads:
    """The point reads of an assignment that is a plain mapping: each read
    builds its variable and looks it up."""

    def __init__(self, phi: Mapping[BoolVar, bool]):
        self._phi = phi

    def pair(self, x: VertexId, y: VertexId) -> bool:
        return self._phi[PairVar(x, y)]

    def triple(self, a: VertexId, u: VertexId, v: VertexId) -> bool:
        return self._phi[TripleVar(a, u, v)]

    def flag(self, e: Edge) -> bool:
        return self._phi[FlagVar(*e)]


def _point_reads(phi: Mapping[BoolVar, bool]) -> LiftedAssignment | _VariableReads:
    """The one reader of both realizers: a lift's own point reads, or the variable-building wrapper."""
    return phi if isinstance(phi, LiftedAssignment) else _VariableReads(phi)


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


def drawing_from_assignment_level(phi_plus: Mapping[BoolVar, bool], ctx: LevelContext) -> LevelDrawing:
    """Place each level's lone stretched vertex as pivot; order others by their bit."""
    pg, pair = ctx.pg, _point_reads(phi_plus).pair
    orders: dict[int, tuple[VertexId, ...]] = {}
    for j in range(1, pg.graph.k + 1):
        pivots = pg.star_vertices_on(j)
        assert len(pivots) == 1, f"level {j} of the plain subdivision must hold one stretched vertex"
        orders[j] = _around(pivots[0], pg.graph.on_level(j), (), partial(pair, pivots[0]))
    return LevelDrawing(orders)


# ---------------------------------------------------------------------------
# Radial conversions


def induced_radial_assignment(d: RadialDrawing, g: LevelGraph, refs: ReferenceSets) -> Assignment:
    """Anchored triple and flag values read straight off a radial drawing."""
    out: Assignment = {}
    for i in range(1, g.k + 1):
        vs = g.on_level(i)
        for a in refs.anchors(i):
            cut = d.cut_after(i, a)
            others = [v for v in vs if v != a]
            for u, v in permutations(others, 2):
                out[TripleVar(a, u, v)] = cut[u] < cut[v]
    for e in flagged_edges(g, refs):
        out[FlagVar(*e)] = d.left_flag[e]
    return out


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

    return LiftedAssignment(ctx, triple=triple, flag=flag_bits.__getitem__)


def drawing_from_assignment_radial(phi_plus: Mapping[BoolVar, bool], ctx: RadialContext) -> RadialDrawing:
    """Realize a satisfying assignment of the subdivision as a radial drawing.

    On a split middle level the two anchors frame the circle and every other
    vertex picks its arc; elsewhere the lone stretched vertex is placed
    against the level's anchor.  Residual order inside an arc is ascending id.
    """
    pg, reads = ctx.pg, _point_reads(phi_plus)
    triple = reads.triple
    cyclic: dict[int, tuple[VertexId, ...]] = {}
    for j in range(1, pg.graph.k + 1):
        vs = pg.graph.on_level(j)
        bm, bp = ctx.plus_refs.alpha_minus[j], ctx.plus_refs.alpha_plus[j]
        if bm != bp:
            # the vertices with t(bm, v, bp) set lie on the arc from bm to bp, before bp
            cyclic[j] = _around(bp, vs, (bm,), lambda v: not triple(bm, v, bp))
        else:
            stars = pg.star_vertices_on(j)
            xi = stars[0] if stars else None
            if xi is None or xi == bm:
                cyclic[j] = tuple(vs)
            else:
                cyclic[j] = _around(xi, vs, (bm,), partial(triple, bm, xi))
    left_flag = {seg: reads.flag(seg) for seg in ctx.plus_flagged}
    return RadialDrawing(cyclic, left_flag)


def assignment_from_drawing_radial(d: RadialDrawing, ctx: RadialContext) -> Assignment:
    """A satisfying assignment of the subdivision G+ from a radial
    Hanani-Tutte drawing of G+.

    The raw value of a triple is its clockwise order on the drawing's circle,
    of a flag the drawing's flag; triples are corrected by crossing parity as
    `_assignment_from_drawing` states.
    """
    classes, level = ctx.plus_gap_classes, ctx.pg.graph.level
    view = _Positions(d.cyclic, ctx.pg.graph, d.left_flag)
    at = view.at

    def read(var: BoolVar) -> bool:
        if type(var) is FlagVar:
            return d.left_flag[var.edge]
        a, n = at[var.anchor], len(view.orders[level[var.anchor]])
        return (at[var.u] - a) % n < (at[var.v] - a) % n

    phi = _assignment_from_drawing(ctx, lambda i: _flagged_gap_pairs_radial(view, i, classes[i]), read)
    require_satisfying(ctx.plus_system, phi)
    return phi
