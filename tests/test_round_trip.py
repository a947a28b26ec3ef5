"""The crosscheck round trip on G+'s integer numbering: the lift is checked
and the drawing converted back as bit lists in index order, which the
public back-conversions return.  The references here spell every variable
as an object."""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from itertools import combinations, islice

from planarity_ht import constraints
from planarity_ht.constraints import FlagVar, PairVar, TripleVar
from planarity_ht.corpus import exhaustive_proper_graphs
from planarity_ht.crosscheck import crosscheck_instance
from planarity_ht.drawing import (
    LevelDrawing,
    assignment_from_drawing_level,
    assignment_from_drawing_radial,
    drawing_from_assignment_level,
    drawing_from_assignment_radial,
    gap_crossing_pairs_level,
    gap_crossing_pairs_radial,
    lift_assignment_level,
    lift_assignment_radial,
    require_satisfying,
)
from planarity_ht.graphs import LevelGraph
from planarity_ht.pipeline import solve_reduced, stage_context

MODES = {"level": (lift_assignment_level, drawing_from_assignment_level, assignment_from_drawing_level),
         "radial": (lift_assignment_radial, drawing_from_assignment_radial, assignment_from_drawing_radial)}

# a 3x3 graph planar in both modes whose witnesses both carry (even) crossings
GRID = LevelGraph(3, {f"{c}{i}": i for c in "abc" for i in (1, 2, 3)},
                  (("a1", "a2"), ("a2", "b3"), ("b2", "a3"), ("c2", "a3")))


def test_a_crosscheck_round_trip_builds_no_variable_object(monkeypatch):
    def refuse(*args):
        raise AssertionError("a variable object was built")

    for name in ("PairVar", "TripleVar", "FlagVar"):
        monkeypatch.setattr(constraints, name, refuse)
    assert crosscheck_instance(GRID) == ([], True, True)


def _reference_back(d, ctx) -> tuple[dict, dict | None]:
    """The back-conversion through variable objects: each variable of G+
    read off the drawing and corrected by the parity of the crossings its
    points' star edges make below its sublevel; in level mode also the
    projection to the input by stretch edges."""
    g, level = ctx.pg.graph, ctx.pg.graph.level
    crossings = defaultdict(list)
    for i in range(1, g.k):
        pairs = (gap_crossing_pairs_level(d, g, i) if isinstance(d, LevelDrawing)
                 else gap_crossing_pairs_radial(d, g, ctx.plus_refs, i))
        for s, t in pairs:
            crossings[tuple(sorted((ctx.segment_origin(s), ctx.segment_origin(t))))].append(i)
    edge_of = ctx.pg.prov.vertex_origin.get

    def pcr(p, q) -> int:
        e, f = edge_of(p), edge_of(q)
        if e is None or f is None:
            return 0
        gaps = crossings.get(tuple(sorted((e, f))), [])
        return bisect_left(gaps, level[p]) + (e[0] == f[0] and len(gaps) % 2)

    plus = {}
    for var in ctx.plus_system.variables:
        if type(var) is FlagVar:
            plus[var] = d.left_flag[var.edge]
            continue
        if type(var) is PairVar:
            points, pos = (var.u, var.w), d.positions(level[var.u])
            raw = pos[var.u] < pos[var.w]
        else:
            points, cut = (var.anchor, var.u, var.v), d.cut_after(level[var.anchor], var.anchor)
            raw = cut[var.u] < cut[var.v]
        plus[var] = raw != bool(sum(pcr(p, q) for p, q in combinations(points, 2)) % 2)
    if not isinstance(d, LevelDrawing):
        return plus, None
    sf, star_level = ctx.star_form, ctx.star_form.star.level
    base = {}
    for var in ctx.system.variables:
        su, sw = sf.stretch[var.u], sf.stretch[var.w]
        lv = max(star_level[su[0]], star_level[sw[0]])
        base[var] = plus[PairVar(ctx.pg.point_at(su, lv), ctx.pg.point_at(sw, lv))]
    return plus, base


def _read(lifted, var) -> bool:
    """The lift's point read of the variable var."""
    if type(var) is PairVar:
        return lifted.pair(var.u, var.w)
    if type(var) is TripleVar:
        return lifted.triple(var.anchor, var.u, var.v)
    return lifted.flag(var.edge)


def test_the_round_trip_bits_equal_the_variable_objects_readings():
    checked = {"level": 0, "radial": 0}
    for g in islice(exhaustive_proper_graphs(3, 3), 0, None, 7):
        for mode, (lift, realize, back) in MODES.items():
            ctx = stage_context(g, mode)
            phi = solve_reduced(ctx.system)
            if phi is None:
                continue
            for system in (ctx.system, ctx.plus_system):
                first_flag = system.n - len(system.flag)
                assert [system.number(*p) for p in system.points()] == list(range(first_flag))
                assert list(system.flag.values()) == list(range(first_flag, system.n))
            lifted = lift(phi, ctx)
            assert require_satisfying(ctx.plus_system, lifted) == [_read(lifted, v) for v in ctx.plus_system.variables]
            d = realize(lifted, ctx)
            plus, base = _reference_back(d, ctx)
            if mode == "level":
                back_plus, back_base = back(d, ctx)
                assert back_base == [base[v] for v in ctx.system.variables]
            else:
                back_plus = back(d, ctx)
            assert back_plus == [plus[v] for v in ctx.plus_system.variables]
            assert len(back_plus) == len(plus)
            checked[mode] += 1
    assert min(checked.values()) > 400
