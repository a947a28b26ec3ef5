"""Combinatorial drawings, crossing counting, and assignment conversions.

A level drawing is a linear vertex order per level; a radial drawing is a
cyclic order per level plus a left/right flag for every edge sharing an
endpoint with its gap's reference edge.  Crossings follow the standard
two-layer model: within one gap a pair of independent edges crosses at most
once, adjacent edges never cross, and a reference edge is never crossed.

The conversion operations translate between satisfying assignments of the
reduced constraint systems and drawings of the subdivided star form, in both
directions and in both the level and the radial setting.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations

from .constraints import (
    Assignment,
    BoolVar,
    ConstraintSystem,
    FlagVar,
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
    pair_numbering,
    triple_numbering,
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


def require_satisfying(system: ConstraintSystem, a: Mapping[BoolVar, bool]) -> list[bool]:
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

    def clockwise(self, i: int, a: VertexId, u: VertexId, v: VertexId) -> bool:
        pos = self.positions(i)
        n = len(self.cyclic[i])
        return (pos[u] - pos[a]) % n < (pos[v] - pos[a]) % n

    def cut_after(self, i: int, a: VertexId) -> dict[VertexId, int]:
        """Linearize the circle starting at a; a gets position 0."""
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


# ---------------------------------------------------------------------------
# Crossing model: one rule per gap and mode, shared by counting, verification,
# the oracles and rendering


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


def _require_hanani_tutte(report: CrossingReport) -> None:
    if report.ht_violations:
        pair = report.ht_violations[0]
        raise NotHananiTutteError(pair, report.count(*pair))


def _count_crossings(orders: dict[int, tuple[VertexId, ...]], g: LevelGraph, gap_pairs,
                     aggregate: dict[Edge, Edge] | None) -> CrossingReport:
    """Per-pair crossing counts over every gap; `gap_pairs(i)` lists gap i's
    crossing segment pairs, and `aggregate` rolls them up to pre-image edges."""
    problems = check_drawing_covers(orders, g)
    if problems:
        raise ValueError("; ".join(problems))
    per_pair: dict[tuple[Edge, Edge], int] = {}
    for i in range(1, g.k):
        for e, f in gap_pairs(i):
            if aggregate is not None:
                e, f = aggregate[e], aggregate[f]
                if e == f:
                    continue
            key = _pair_key(e, f)
            per_pair[key] = per_pair.get(key, 0) + 1
    return CrossingReport(per_pair, _odd_independent(per_pair), planar=not per_pair)


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
    classes = _, _, plus_adj, minus_adj = gap_edge_classes(g, refs, i)
    for e in plus_adj + minus_adj:
        if e not in d.left_flag:
            raise ValueError(f"drawing lacks a left flag for reference-adjacent edge {e}")
    return _gap_crossing_pairs_radial(d, i, classes)


def _gap_crossing_pairs_radial(d: RadialDrawing, i: int, classes) -> list[tuple[Edge, Edge]]:
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


def count_crossings_level(d: LevelDrawing, g: LevelGraph,
                          aggregate: dict[Edge, Edge] | None = None) -> CrossingReport:
    """Per-pair crossing counts; with `aggregate`, counts roll up to pre-image edges."""
    return _count_crossings(d.orders, g, lambda i: gap_crossing_pairs_level(d, g, i), aggregate)


def count_crossings_radial(d: RadialDrawing, g: LevelGraph, refs: ReferenceSets,
                           aggregate: dict[Edge, Edge] | None = None) -> CrossingReport:
    return _count_crossings(d.cyclic, g, lambda i: gap_crossing_pairs_radial(d, g, refs, i), aggregate)


# ---------------------------------------------------------------------------
# Contexts bundling the star form machinery for one input graph


@dataclass(frozen=True, kw_only=True)
class LevelContext:
    """One proper input graph; its subdivision and the reduced systems of both
    are built on first use."""

    base: LevelGraph

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

    def segment_origin(self) -> dict[Edge, Edge]:
        return {seg: star_edge for star_edge, path in self.pg.prov.paths.items()
                for seg in zip(path, path[1:])}


def make_level_context(g: LevelGraph) -> LevelContext:
    return LevelContext(base=g)


@dataclass(frozen=True, kw_only=True)
class RadialContext(LevelContext):
    refs: ReferenceSets  # base has its reference edges already inserted

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
    def plus_flagged(self) -> tuple[Edge, ...]:
        """The subdivision's edges that carry a left flag, in `flagged_edges` order."""
        return tuple(flagged_edges(self.pg.graph, self.plus_refs))

    @cached_property
    def system(self) -> ConstraintSystem:
        return build_radial_reduced(self.base, self.refs)

    @cached_property
    def plus_system(self) -> ConstraintSystem:
        return build_radial_reduced(self.pg.graph, self.plus_refs)


def make_radial_context(g: LevelGraph, refs: ReferenceSets) -> RadialContext:
    return RadialContext(base=g, refs=refs)


def star_report_level(d: LevelDrawing, ctx: LevelContext) -> CrossingReport:
    return count_crossings_level(d, ctx.pg.graph, aggregate=ctx.segment_origin())


def star_report_radial(d: RadialDrawing, ctx: RadialContext) -> CrossingReport:
    return count_crossings_radial(d, ctx.pg.graph, ctx.plus_refs, aggregate=ctx.segment_origin())


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
    """Repair a Hanani-Tutte drawing's induced assignment into satisfying ones.

    The drawing's raw assignment need not satisfy the planarity equations.
    Every pair of subdivision vertices instead copies the raw value at the
    pair's limits: independent edge pairs copy at the bottom of their shared
    window, edges sharing a tail copy at their heads' window, edges sharing a
    head at their tails'.  The result satisfies the subdivision's reduced
    system and projects through the stretch edges to one for the input graph.
    """
    pg, sf = ctx.pg, ctx.star_form
    psi = induced_pair_assignment(d)
    _require_hanani_tutte(star_report_level(d, ctx))
    star_level = sf.star.level
    phi_plus: Assignment = {}
    for j in range(1, pg.graph.k + 1):
        vs = pg.graph.on_level(j)
        for x, y in permutations(vs, 2):
            if x in sf.owner or y in sf.owner:
                val = psi[PairVar(x, y)]
            else:
                e1, e2 = pg.edge_of[x], pg.edge_of[y]
                if independent(e1, e2):
                    lv = max(star_level[e1[0]], star_level[e2[0]])
                elif e1[0] == e2[0]:
                    lv = min(star_level[e1[1]], star_level[e2[1]])
                elif e1[1] == e2[1]:
                    lv = max(star_level[e1[0]], star_level[e2[0]])
                else:
                    raise AssertionError(f"edges {e1}, {e2} share a level but meet head to tail")
                val = psi[PairVar(pg.point_at(e1, lv), pg.point_at(e2, lv))]
            phi_plus[PairVar(x, y)] = val
    phi: Assignment = {}
    for i in range(1, ctx.base.k + 1):
        for u, w in permutations(ctx.base.on_level(i), 2):
            su, sw = sf.stretch[u], sf.stretch[w]
            lv = max(star_level[su[0]], star_level[sw[0]])
            phi[PairVar(u, w)] = phi_plus[PairVar(pg.point_at(su, lv), pg.point_at(sw, lv))]
    require_satisfying(ctx.plus_system, phi_plus)
    require_satisfying(ctx.system, phi)
    return phi_plus, phi


class LiftedAssignment(Mapping):
    """A satisfying assignment of the subdivision G+, computed bit by bit.

    `bit(var)` derives one variable's value from the input's solution and
    raises KeyError for anything that is no variable of G+'s systems.  The
    keys are `ctx.plus_system.variables`, so only a caller that iterates the
    mapping or takes its length builds G+'s reduced system.
    """

    def __init__(self, ctx: LevelContext, bit: Callable[[BoolVar], bool]):
        self._ctx = ctx
        self._bit = bit

    def __getitem__(self, var: BoolVar) -> bool:
        return self._bit(var)

    def __iter__(self) -> Iterator[BoolVar]:
        return iter(self._ctx.plus_system.variables)

    def __len__(self) -> int:
        return len(self._ctx.plus_system.variables)


def lift_assignment_level(phi: Assignment, ctx: LevelContext) -> LiftedAssignment:
    """Extend a satisfying assignment of the input graph to its subdivision.

    Vertices inherit the order of their origins; two subdivision points of
    edges leaving the same origin copy their heads' order, of edges entering
    the same origin their tails' order.
    """
    pg = ctx.pg
    bits = require_satisfying(ctx.system, phi)
    number = pair_numbering(ctx.base)
    level, origin, edge_of, edge_origin = pg.graph.level, pg.origin, pg.edge_of, ctx.star_form.edge_origin

    def bit(var: BoolVar) -> bool:
        if type(var) is not PairVar or var.u == var.w or level.get(var.u, 0) != level.get(var.w):
            raise KeyError(var)
        x, y = var.u, var.w
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

    return LiftedAssignment(ctx, bit)


def drawing_from_assignment_level(phi_plus: Mapping[BoolVar, bool], ctx: LevelContext) -> LevelDrawing:
    """Place each level's lone stretched vertex as pivot; order others by their bit."""
    pg = ctx.pg
    orders: dict[int, tuple[VertexId, ...]] = {}
    for j in range(1, pg.graph.k + 1):
        pivots = pg.star_vertices_on(j)
        assert len(pivots) == 1, f"level {j} of the plain subdivision must hold one stretched vertex"
        pivot = pivots[0]
        right = {v: phi_plus[PairVar(pivot, v)] for v in pg.graph.on_level(j) if v != pivot}
        orders[j] = (*(v for v, r in right.items() if not r), pivot, *(v for v, r in right.items() if r))
    return LevelDrawing(orders)


# ---------------------------------------------------------------------------
# Radial conversions


def induced_radial_assignment(d: RadialDrawing, g: LevelGraph, refs: ReferenceSets) -> Assignment:
    """Anchored triple and flag values read straight off a radial drawing."""
    out: Assignment = {}
    for i in range(1, g.k + 1):
        vs = g.on_level(i)
        for a in refs.anchors(i):
            others = [v for v in vs if v != a]
            for u, v in permutations(others, 2):
                out[TripleVar(a, u, v)] = d.clockwise(i, a, u, v)
    for e in flagged_edges(g, refs):
        out[FlagVar(*e)] = d.left_flag[e]
    return out


def _psi_gap_order(bits: list[bool], number: TripleNumber, flag: dict[Edge, int], refs: ReferenceSets,
                   i: int, e: Edge, f: Edge) -> bool:
    """Order of two distinct non-reference gap edges around the reference edge,
    read from the bits of a radial system numbered by `triple_numbering`.

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


def lift_assignment_radial(phi: Assignment, ctx: RadialContext) -> LiftedAssignment:
    """Extend a satisfying radial assignment of the input to its subdivision."""
    pg = ctx.pg
    bits = require_satisfying(ctx.system, phi)
    number, flag = triple_numbering(ctx.base, ctx.refs)
    level, origin, edge_of, edge_origin = pg.graph.level, pg.origin, pg.edge_of, ctx.star_form.edge_origin
    flag_bits = {seg: bits[flag[origin[seg[0]], origin[seg[1]]]] for seg in ctx.plus_flagged}
    anchors = ctx.plus_refs.anchors

    def bit(var: BoolVar) -> bool:
        if type(var) is FlagVar:
            return flag_bits[var.edge]
        if type(var) is not TripleVar:
            raise KeyError(var)
        j = level.get(var.anchor)
        if (j is None or var.anchor not in anchors(j) or level.get(var.u) != j or level.get(var.v) != j
                or len({var.anchor, var.u, var.v}) != 3):
            raise KeyError(var)
        ox, oy, oz = origin[var.anchor], origin[var.u], origin[var.v]
        if len({ox, oy, oz}) == 3:
            return bits[number(ox, oy, oz)]
        assert oy == oz and ox != oy, "origin collision must pair two subdivision points"
        e = edge_origin[edge_of[var.u]]
        f = edge_origin[edge_of[var.v]]
        return _psi_gap_order(bits, number, flag, ctx.refs, ctx.base.level[e[0]], e, f)

    return LiftedAssignment(ctx, bit)


def drawing_from_assignment_radial(phi_plus: Mapping[BoolVar, bool], ctx: RadialContext) -> RadialDrawing:
    """Realize a satisfying assignment of the subdivision as a radial drawing.

    On a split middle level the two anchors frame the circle and every other
    vertex picks its arc; elsewhere the lone stretched vertex is placed
    against the level's anchor.  Residual order inside an arc is ascending id.
    """
    pg = ctx.pg
    cyclic: dict[int, tuple[VertexId, ...]] = {}
    for j in range(1, pg.graph.k + 1):
        vs = pg.graph.on_level(j)
        bm, bp = ctx.plus_refs.alpha_minus[j], ctx.plus_refs.alpha_plus[j]
        if bm != bp:
            between = {v: phi_plus[TripleVar(bm, v, bp)] for v in vs if v not in (bm, bp)}
            cyclic[j] = (bm, *(v for v, t in between.items() if t), bp,
                         *(v for v, t in between.items() if not t))
        else:
            stars = pg.star_vertices_on(j)
            xi = stars[0] if stars else None
            if xi is None or xi == bm:
                cyclic[j] = tuple(vs)
            else:
                after = {v: phi_plus[TripleVar(bm, xi, v)] for v in vs if v not in (bm, xi)}
                cyclic[j] = (bm, *(v for v, t in after.items() if not t), xi,
                             *(v for v, t in after.items() if t))
    left_flag = {seg: phi_plus[FlagVar(*seg)] for seg in ctx.plus_flagged}
    return RadialDrawing(cyclic, left_flag)


def assignment_from_drawing_radial(d: RadialDrawing, ctx: RadialContext) -> Assignment:
    """Extract a satisfying assignment from a radial Hanani-Tutte drawing.

    Raw clockwise values are corrected by the parity of the crossings that
    the involved subdivision paths accumulate below the level in question;
    edges leaving a shared vertex with an odd total crossing count carry an
    extra phantom crossing at that vertex so that every pair ends up even.
    """
    pg = ctx.pg
    _require_hanani_tutte(star_report_radial(d, ctx))
    origin_seg = ctx.segment_origin()
    # crossings of each star edge pair, bucketed by the gap's lower level
    by_gap: dict[tuple[Edge, Edge], dict[int, int]] = {}
    for j in range(1, pg.graph.k):
        for s1, s2 in gap_crossing_pairs_radial(d, pg.graph, ctx.plus_refs, j):
            e1, e2 = origin_seg[s1], origin_seg[s2]
            if e1 == e2:
                continue
            bucket = by_gap.setdefault(_pair_key(e1, e2), {})
            bucket[j] = bucket.get(j, 0) + 1

    def pcr_prefix(e1: Edge | None, e2: Edge | None, j: int) -> int:
        if e1 is None or e2 is None or e1 == e2:
            return 0
        gaps = by_gap.get(_pair_key(e1, e2), {})
        total = sum(gaps.values())
        below = sum(c for g_, c in gaps.items() if g_ + 1 <= j)
        phantom = 1 if e1[0] == e2[0] and total % 2 else 0
        return below + phantom

    phi: Assignment = {}
    for j in range(1, pg.graph.k + 1):
        vs = pg.graph.on_level(j)
        for x in ctx.plus_refs.anchors(j):
            ex = pg.edge_of.get(x)
            for y, z in permutations([v for v in vs if v != x], 2):
                ey, ez = pg.edge_of.get(y), pg.edge_of.get(z)
                psi = d.clockwise(j, x, y, z)
                parity = (pcr_prefix(ex, ey, j) + pcr_prefix(ex, ez, j) + pcr_prefix(ey, ez, j)) % 2
                phi[TripleVar(x, y, z)] = psi != bool(parity)
    for seg in ctx.plus_flagged:
        phi[FlagVar(*seg)] = d.left_flag[seg]
    require_satisfying(ctx.plus_system, phi)
    return phi
