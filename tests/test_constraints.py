from __future__ import annotations

import itertools
import random
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarity_ht.constraints import (
    ConstraintSystem,
    FlagVar,
    PairVar,
    ReferenceSets,
    TripleVar,
    XorEquation,
    build_level_full,
    build_level_reduced,
    build_radial_full,
    build_radial_reduced,
    choose_reference_sets,
    count_transitivity,
    evaluate,
    gap_edge_classes,
    reference_set_variants,
    validate_reference_sets,
)
from planarity_ht.corpus import exhaustive_proper_graphs, random_proper_graph
from planarity_ht.graphs import LevelGraph, independent
from planarity_ht.oracle import brute_level, brute_radial
from planarity_ht.pipeline import solve_reduced, stage_context
from planarity_ht.starform import build_betas
from planarity_ht.xorsat import RowSource
from tests.conftest import make_path
from tests.helpers import flagged_edges, induced_pair_assignment, induced_radial_assignment, reference_set_problems


def test_level_full_two_vertex_level():
    g = LevelGraph(1, {"a": 1, "b": 1}, ())
    s = build_level_full(g)
    assert len(s.variables) == 2
    assert len(s.xors) == 1
    assert len(s.transitivity) == 0


def test_level_full_three_vertex_level_counts():
    g = LevelGraph(1, {"a": 1, "b": 1, "c": 1}, ())
    s = build_level_full(g)
    assert len(s.variables) == 6
    assert len(s.xors) == 3
    assert len(s.transitivity) == 6


def test_k22_planarity_equations(k22):
    s = build_level_full(k22)
    planarity = [eq for eq in s.xors if eq.parity == 0]
    assert planarity == [
        XorEquation((PairVar("a1", "b1"), PairVar("a2", "b2")), 0),
        XorEquation((PairVar("a1", "b1"), PairVar("b2", "a2")), 0),
    ]


def test_reduced_equals_full_without_transitivity(k22):
    full = build_level_full(k22)
    reduced = build_level_reduced(k22)
    assert reduced.xors == full.xors
    assert reduced.transitivity == []
    assert reduced.variables == full.variables


def test_radial_reduced_equals_full_without_transitivity():
    g = LevelGraph(
        2,
        {"a": 1, "b": 1, "c": 1, "d": 1, "x": 2},
        (("a", "x"), ("b", "x"), ("c", "x"), ("d", "x")),
    )
    refs, aug = choose_reference_sets(g)
    full = build_radial_full(aug, refs)
    reduced = build_radial_reduced(aug, refs)
    assert reduced.xors == full.xors
    assert reduced.transitivity == [] and full.transitivity
    assert reduced.variables == full.variables


def test_path_graph_has_no_variables(path3):
    s = build_level_reduced(path3)
    assert s.variables == ()
    assert solve_reduced(s) == []


def test_k22_reduced_unsatisfiable(k22):
    assert solve_reduced(build_level_reduced(k22)) is None


def test_choose_references_on_path():
    g = make_path(4)
    refs, aug = choose_reference_sets(g)
    assert refs.inserted == ()
    assert aug == g
    assert refs.alpha_plus == {1: "p1", 2: "p2", 3: "p3", 4: "p4"}
    assert refs.alpha_minus == {1: "p1", 2: "p2", 3: "p3", 4: "p4"}


def test_choose_references_inserts_edge_for_empty_gap():
    g = LevelGraph(2, {"a": 1, "b": 1, "x": 2}, ())
    refs, aug = choose_reference_sets(g)
    assert refs.inserted == (("a", "x"),)
    assert ("a", "x") in aug.edges
    assert validate_reference_sets(aug, refs) == []


def test_choose_references_k22_no_insertion(k22):
    refs, aug = choose_reference_sets(k22)
    assert refs.inserted == ()
    assert refs.alpha_plus[1] == "a1" and refs.alpha_minus[2] == "a2"


def test_choose_references_rejects_empty_level():
    g = LevelGraph(2, {"a": 1}, ())
    with pytest.raises(ValueError):
        choose_reference_sets(g)


def test_reference_set_variants_distinct_when_possible(k22):
    variants = reference_set_variants(k22)
    assert len(variants) == 2
    assert variants[0][0] != variants[1][0]
    for refs, aug in variants:
        assert validate_reference_sets(aug, refs) == []


def _faulty_selections(g: LevelGraph, refs: ReferenceSets):
    """Valid reference sets of g, each copied with one fault: an anchor
    deleted or moved off its level, level 1's or level k's anchors split, or
    a reference edge removed from the graph; with the graph each applies to."""
    plus, minus = refs.alpha_plus, refs.alpha_minus

    def changed(which: str, i: int, v: str | None) -> ReferenceSets:
        p, m = dict(plus), dict(minus)
        anchors = p if which == "plus" else m
        if v is None:
            del anchors[i]
        else:
            anchors[i] = v
        return ReferenceSets(p, m, refs.inserted)

    for i in range(1, g.k + 1):
        off = g.by_level[i % g.k + 1][0] if g.k > 1 else "zz"  # a vertex not on level i
        for which in ("plus", "minus"):
            yield g, changed(which, i, None)
            yield g, changed(which, i, off)
    for i in {1, g.k} & set(g.by_level):
        yield from ((g, changed("minus", i, v)) for v in g.by_level[i][:2] if v != plus[i])
    for i in range(1, g.k):
        e = refs.reference_edge(i)
        yield LevelGraph(g.k, g.level, tuple(f for f in g.edges if f != e)), refs


def test_the_anchor_check_lists_what_every_levels_anchor_problems_list(bench_gen):
    # validation reads a level's anchor problems only when its anchors fail a
    # direct level test; the reference lists every level's problems
    cases = [(aug, refs) for g in islice(exhaustive_proper_graphs(3, 3), 0, None, 10)
             for refs, aug in reference_set_variants(g)]
    for inst in bench_gen.witness_instances(1, 20):
        ctx = stage_context(inst.graph, "radial")
        cases.append((ctx.pg.graph, build_betas(ctx.pg, ctx.refs.alpha_plus, ctx.refs.alpha_minus)))
    kinds = set()
    for g, refs in cases:
        assert validate_reference_sets(g, refs) == reference_set_problems(g, refs) == []
        for h, faulty in _faulty_selections(g, refs):
            problems = validate_reference_sets(h, faulty)
            assert problems and problems == reference_set_problems(h, faulty), (h, faulty)
            kinds.update(p.split(" ")[0] for p in problems)
    assert kinds == {"level", "plus", "minus", "anchors", "reference"}


def test_reference_set_variants_forced_single_on_path():
    variants = reference_set_variants(make_path(3))
    assert len(variants) == 1


def test_radial_small_level_has_no_triples():
    g = LevelGraph(2, {"a": 1, "b": 2, "c": 2}, (("a", "b"), ("a", "c")))
    refs, aug = choose_reference_sets(g)
    s = build_radial_full(aug, refs)
    # width-2 levels leave no room for anchored triples
    assert [v for v in s.variables if isinstance(v, TripleVar)] == []


def test_radial_path_zero_variables_and_satisfiable(path3):
    refs, aug = choose_reference_sets(path3)
    s = build_radial_reduced(aug, refs)
    assert s.variables == ()
    assert solve_reduced(s) == []


def test_radial_k22_satisfiable(k22):
    refs, aug = choose_reference_sets(k22)
    assert solve_reduced(build_radial_reduced(aug, refs)) is not None


def test_radial_full_satisfied_by_oracle_witness_wide_level():
    # width 4 exercises the anchored transitivity clauses and the cyclic coupling rows
    g = LevelGraph(
        2,
        {"a": 1, "b": 1, "c": 1, "d": 1, "x": 2},
        (("a", "x"), ("b", "x"), ("c", "x"), ("d", "x")),
    )
    refs, aug = choose_reference_sets(g)
    result = brute_radial(aug, refs)
    assert result.planar
    assignment = induced_radial_assignment(result.witness, aug, refs)
    assert evaluate(build_radial_full(aug, refs), assignment) == []


def test_level_full_satisfied_by_oracle_witness():
    rng = random.Random(11)
    checked = 0
    while checked < 15:
        g = random_proper_graph(rng, max_levels=3, max_width=3)
        result = brute_level(g, budget=100_000)
        if result.planar:
            assignment = induced_pair_assignment(result.witness)
            assert evaluate(build_level_full(g), assignment) == []
            checked += 1


def test_xor_parity_convention_over_corpus():
    # order consistency rows carry parity 1, planarity and coupling rows parity 0,
    # opposite-side flag rows parity 1
    for g in exhaustive_proper_graphs(2, 3, cap=40):
        s = build_level_full(g)
        for eq in s.xors:
            if len(eq.vars) == 2 and {eq.vars[0].u, eq.vars[0].w} == {eq.vars[1].u, eq.vars[1].w}:
                assert eq.parity == 1
            else:
                assert eq.parity == 0
        refs, aug = choose_reference_sets(g)
        rs = build_radial_full(aug, refs)
        for eq in rs.xors:
            kinds = {type(v) for v in eq.vars}
            if kinds == {TripleVar} and len(eq.vars) == 2:
                a, b = eq.vars
                if (a.anchor, {a.u, a.v}) == (b.anchor, {b.u, b.v}):
                    assert eq.parity == 1  # orientation consistency
                else:
                    assert eq.parity == 0  # planarity or anchor exchange
            elif kinds == {FlagVar}:
                assert eq.parity == 1
            else:
                assert eq.parity == 0


def test_evaluate_reports_violations(k22):
    s = build_level_reduced(k22)
    zeros = {v: False for v in s.variables}
    bad = evaluate(s, zeros)
    assert all(eq.parity == 1 for eq in bad)
    assert len(bad) == 2  # the two orientation consistency rows


def test_evaluate_rejects_partial_assignment(k22):
    s = build_level_reduced(k22)
    with pytest.raises(ValueError):
        evaluate(s, {})


def test_flip_one_bit_breaks_consistency():
    g = LevelGraph(1, {"a": 1, "b": 1}, ())
    s = build_level_reduced(g)
    a = solve_reduced(s)
    ab = s.number("a", "b")
    a[ab] = not a[ab]
    bad = evaluate(s, a)
    assert len(bad) == 1 and bad[0].parity == 1


def test_full_radial_transitivity_head_is_rotated_negation():
    g = LevelGraph(1, {"a": 1, "b": 1, "c": 1, "d": 1}, ())
    refs = ReferenceSets({1: "a"}, {1: "a"})
    s = build_radial_full(g, refs)
    assert s.transitivity, "width four gives anchored triples"
    for cl in s.transitivity:
        # (x,u,v) and (x,v,w) together forbid (x,w,u)
        assert cl.negated_head
        assert cl.a.anchor == cl.b.anchor == cl.head.anchor
        assert cl.a.v == cl.b.u
        assert cl.head == TripleVar(cl.a.anchor, cl.b.v, cl.a.u)


def test_system_rejects_undeclared_variable():
    system = ConstraintSystem(1, lambda: [("a", "b")], RowSource(lambda: [(False, [((0, 1), 1)])]), [], "t")
    with pytest.raises(ValueError, match=r"row \(0, 1\) references an undeclared variable index"):
        system.rows


def test_system_rejects_undeclared_clause_variable():
    pairs = (("a", "b"), ("b", "c"), ("a", "c"))
    no_rows = RowSource(lambda: ())
    system = ConstraintSystem(3, lambda: pairs, no_rows, [(0, 1, 2, False)], "t")
    assert system.transitivity[0].head == PairVar("a", "c")
    for clause in [(0, 1, 3, False), (-1, 1, 2, True)]:
        with pytest.raises(ValueError, match="references an undeclared variable index"):
            ConstraintSystem(3, lambda: pairs, no_rows, [clause], "t")


@pytest.mark.parametrize("parity", [2, -1])
def test_system_rejects_parity_outside_gf2(parity):
    system = ConstraintSystem(2, lambda: [("a", "b"), ("b", "a")], RowSource(lambda: [(False, [((0, 1), parity)])]),
                              [], "t")
    with pytest.raises(ValueError, match=f"row \\(0, 1\\) has parity {parity}, not 0 or 1"):
        system.rows


def _complete_bipartite(n: int) -> LevelGraph:
    return LevelGraph(2, {f"a{i}": 1 for i in range(n)} | {f"b{i}": 2 for i in range(n)},
                      tuple((f"a{i}", f"b{j}") for i in range(n) for j in range(n)))


@pytest.mark.parametrize("n", [2, 3])
def test_evaluate_on_rows_matches_per_equation_recomputation(n):
    g = _complete_bipartite(n)
    refs, aug = choose_reference_sets(g)
    systems = [build_level_reduced(g), build_level_full(g), build_radial_reduced(aug, refs),
               build_radial_full(aug, refs)]
    rng = random.Random(n)
    for s in systems:
        for _ in range(50):
            a = {v: rng.random() < 0.5 for v in s.variables}
            expect = [eq for eq in s.xors if sum(a[v] for v in eq.vars) % 2 != eq.parity]
            expect += [cl for cl in s.transitivity if a[cl.a] and a[cl.b] and a[cl.head] != (not cl.negated_head)]
            assert evaluate(s, a) == expect


@st.composite
def proper_graphs_with_empty_levels(draw):
    """Valid proper graphs on up to 5 levels of up to 4 vertices; ids come
    unsorted and levels may be empty."""
    k = draw(st.integers(1, 5))
    ids = iter(draw(st.permutations("abcdefghijklmnopqrst")))
    level = {next(ids): i for i in range(1, k + 1) for _ in range(draw(st.integers(0, 4)))}
    upward = [(u, v) for u in level for v in level if level[v] == level[u] + 1]
    edges = draw(st.lists(st.sampled_from(upward), unique=True)) if upward else []
    return LevelGraph(k, level, tuple(edges))


def _level_equations(g: LevelGraph) -> list[XorEquation]:
    """The level system's equations, built one variable object at a time."""
    eqs = []
    for vs in g.by_level.values():
        eqs += [XorEquation((PairVar(u, w), PairVar(w, u)), 1) for u, w in itertools.combinations(vs, 2)]
    for gap in g.by_gap.values():
        eqs += [XorEquation((PairVar(e[0], f[0]), PairVar(e[1], f[1])), 0)
                for e, f in itertools.combinations(gap, 2) if independent(e, f)]
    return eqs


def _radial_equations(g: LevelGraph, refs: ReferenceSets) -> list[XorEquation]:
    """The radial system's equations, built one variable object at a time."""
    eqs = []
    T, F = TripleVar, FlagVar
    for i in range(1, g.k + 1):
        vs = g.on_level(i)
        for a in refs.anchors(i):
            others = [v for v in vs if v != a]
            eqs += [XorEquation((T(a, u, v), T(a, v, u)), 1) for u, v in itertools.combinations(others, 2)]
        ap, am = refs.alpha_plus[i], refs.alpha_minus[i]
        if ap != am:
            others = [v for v in vs if v not in (ap, am)]
            eqs += [XorEquation((T(am, u, v), T(ap, u, v), T(am, u, ap), T(am, v, ap)), 0)
                    for u, v in itertools.permutations(others, 2)]
            eqs += [XorEquation((T(am, v, ap), T(ap, am, v)), 0) for v in others]
    for i in range(1, g.k):
        (ap, am_next), plain, plus_adj, minus_adj = gap_edge_classes(g, refs, i)
        eqs += [XorEquation((T(ap, e[0], f[0]), T(am_next, e[1], f[1])), 0)
                for e, f in itertools.combinations(plain, 2) if independent(e, f)]
        eqs += [XorEquation((F(*e), F(*f)), 1) for e in plus_adj for f in minus_adj]
        eqs += [XorEquation((F(*e), T(am_next, f[1], e[1])), 0)
                for e in plus_adj for f in plain if independent(e, f)]
        eqs += [XorEquation((F(*e), T(ap, f[0], e[0])), 0)
                for e in minus_adj for f in plain if independent(e, f)]
    return eqs


@settings(max_examples=150, deadline=None)
@given(proper_graphs_with_empty_levels())
def test_numbering_matches_the_variable_order(g):
    s = build_level_reduced(g)
    pair = s.number
    for i, v in enumerate(s.variables):
        assert pair(v.u, v.w) == i
    expect = _level_equations(g)
    assert s.xors == expect
    assert s.rows == [(tuple(pair(v.u, v.w) for v in eq.vars), eq.parity) for eq in expect]
    if any(not g.on_level(i) for i in range(1, g.k + 1)):
        return  # radial reference sets need every level nonempty
    refs, aug = choose_reference_sets(g)
    s = build_radial_reduced(aug, refs)
    triple, flags = s.number, s.flag

    def number(v):
        return triple(v.anchor, v.u, v.v) if isinstance(v, TripleVar) else flags[v.edge]

    for i, v in enumerate(s.variables):
        assert number(v) == i
    assert list(flags) == [v.edge for v in s.variables if isinstance(v, FlagVar)] == flagged_edges(aug, refs)
    expect = _radial_equations(aug, refs)
    assert s.xors == expect
    assert s.rows == [(tuple(map(number, eq.vars)), eq.parity) for eq in expect]


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_transitivity_count_matches_the_full_builds(seed, density):
    g = random_proper_graph(random.Random(seed), max_levels=4, max_width=5, edge_density=density)
    assert count_transitivity(g) == len(build_level_full(g).transitivity)
    refs, aug = choose_reference_sets(g)
    assert count_transitivity(aug, refs) == len(build_radial_full(aug, refs).transitivity)


def _documented_order(g: LevelGraph, refs: ReferenceSets | None) -> tuple[list[tuple], list]:
    """The points and flagged edges of g's reduced system in their documented
    index order, enumerated here without the library's numbering: levels
    ascending, each level's vertices by id; within a level its ordered pairs,
    or per anchor the ordered pairs of the level's other vertices, in
    `permutations` order; then the flagged edges gap by gap."""
    levels = sorted(set(g.level.values()))
    on = {i: sorted(v for v, lv in g.level.items() if lv == i) for i in levels}
    if refs is None:
        return [p for i in levels for p in itertools.permutations(on[i], 2)], []
    points = [(a, u, v) for i in levels for a in refs.anchors(i)
              for u, v in itertools.permutations([x for x in on[i] if x != a], 2)]
    return points, flagged_edges(g, refs)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 1.0))
def test_both_numberings_follow_their_documented_order(seed, density):
    g = random_proper_graph(random.Random(seed), max_levels=4, max_width=4, edge_density=density)
    for mode in ("level", "radial"):
        ctx = stage_context(g, mode)
        for graph, refs, system in ((ctx.base, ctx.refs, ctx.system), (ctx.pg.graph, ctx.plus_refs, ctx.plus_system)):
            points, flags = _documented_order(graph, refs)
            assert list(system.points()) == points
            assert [system.number(*p) for p in points] == list(range(len(points)))
            assert system.flag == {e: len(points) + f for f, e in enumerate(flags)}
            assert system.n == len(points) + len(flags)


SPELLED = {"variables", "xors", "transitivity"}


@pytest.mark.parametrize("mode", ["level", "radial"])
def test_evaluate_spells_out_only_what_is_violated(mode):
    rng = random.Random(5)
    checked = 0
    for seed in range(40):
        g = random_proper_graph(random.Random(seed), max_levels=4, max_width=4, edge_density=0.4)
        if mode == "level":
            builds = [lambda: build_level_reduced(g), lambda: build_level_full(g)]
        else:
            refs, aug = choose_reference_sets(g)
            builds = [lambda: build_radial_reduced(aug, refs), lambda: build_radial_full(aug, refs)]
        reduced = builds[0]()
        bits = solve_reduced(reduced)
        if not bits or reduced.n == len(reduced.flag):
            continue  # not planar, or no pair or triple, each of which a consistency row reads
        for build in builds:
            s = build()
            satisfied = evaluate(s, bits) == []
            assert satisfied or s.clauses
            if satisfied:
                assert not SPELLED & vars(s).keys()
            flipped = list(bits)
            flipped[rng.randrange(s.n - len(s.flag))] ^= True
            bad = evaluate(s, flipped)
            reference = build()
            a = dict(zip(reference.variables, flipped))
            expect = [eq for eq in reference.xors if sum(a[v] for v in eq.vars) % 2 != eq.parity]
            expect += [cl for cl in reference.transitivity
                       if a[cl.a] and a[cl.b] and a[cl.head] != (not cl.negated_head)]
            assert bad == expect and bad
            assert "xors" not in vars(s)
        checked += 1
    assert checked > 10
