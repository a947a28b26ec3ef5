from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarity_ht.constraints import (
    build_level_full,
    build_level_reduced,
    build_radial_full,
    build_radial_reduced,
    choose_reference_sets,
)
from planarity_ht.corpus import exhaustive_proper_graphs, random_proper_graph
from planarity_ht.crosscheck import crosscheck_instance
from planarity_ht.graphs import (
    CriticalPair,
    InvalidGraphError,
    LevelGraph,
    critical_pairs,
    independent,
    is_critical,
    limits,
    properize,
    validate,
)
from planarity_ht.oracle import brute_level, brute_radial
from planarity_ht.pipeline import check_level, check_radial, stage_context
from planarity_ht.starform import build_star_level, build_star_radial


def test_validate_single_vertex_ok():
    g = LevelGraph(1, {"a": 1}, ())
    assert validate(g) == []


def test_validate_allows_no_levels_only_without_vertices():
    assert validate(LevelGraph(0, {}, ())) == []
    assert validate(LevelGraph(-1, {}, ())) == ["level count must be positive, got -1"]
    assert validate(LevelGraph(0, {"a": 1}, ()))[0] == "level count must be positive, got 0"


def test_validate_reports_downward_edge():
    g = LevelGraph(2, {"u": 1, "v": 2}, (("v", "u"),))
    problems = validate(g)
    assert len(problems) == 1 and "not upward" in problems[0]


def test_validate_reports_duplicate_edge():
    g = LevelGraph(2, {"a": 1, "b": 2}, (("a", "b"), ("a", "b")))
    assert any("duplicate edge" in p for p in validate(g))


def test_validate_reports_self_loop_and_bad_level():
    g = LevelGraph(1, {"a": 1, "b": 5}, (("a", "a"),))
    problems = validate(g)
    assert any("self-loop" in p for p in problems)
    assert any("outside" in p for p in problems)


def test_validate_reports_unknown_endpoint():
    g = LevelGraph(2, {"a": 1}, (("a", "zz"),))
    assert any("unknown vertex" in p for p in validate(g))


_VALID = LevelGraph(3, {"a": 1, "b": 1, "c": 2, "d": 2, "e": 3}, (("a", "c"), ("b", "d"), ("c", "e")))
_REFS, _ = choose_reference_sets(_VALID)  # for the functions that take reference sets too

PUBLIC_ENTRIES = {
    "properize": properize,
    "build_level_reduced": build_level_reduced,
    "build_level_full": build_level_full,
    "build_radial_reduced": lambda g: build_radial_reduced(g, _REFS),
    "build_radial_full": lambda g: build_radial_full(g, _REFS),
    "choose_reference_sets": choose_reference_sets,
    "build_star_level": build_star_level,
    "build_star_radial": lambda g: build_star_radial(g, _REFS.alpha_plus, _REFS.alpha_minus),
    "brute_level": brute_level,
    "brute_radial": lambda g: brute_radial(g, _REFS),
    "critical_pairs": critical_pairs,
}


@pytest.mark.parametrize("name", PUBLIC_ENTRIES)
def test_public_entries_refuse_an_invalid_graph_with_its_violations(name):
    refuse = {
        ("c", "a"): None,  # points down
        ("a", "z"): None,  # unknown vertex
        ("a", "e"): ["graph is not proper (an edge spans more than one level)"],
    }
    if name in ("properize", "critical_pairs"):
        del refuse[("a", "e")]  # both take long edges
    for edge, violations in refuse.items():
        g = LevelGraph(_VALID.k, _VALID.level, _VALID.edges + (edge,))
        for _ in range(2):  # a repeat call reads the violations kept from the first
            with pytest.raises(InvalidGraphError) as refused:
                PUBLIC_ENTRIES[name](g)
            assert str(refused.value) == "; ".join(violations or validate(g)), edge


def test_a_fresh_input_is_scanned_once_per_call(monkeypatch):
    scans = []
    scan = LevelGraph.violations.func
    monkeypatch.setattr(LevelGraph.violations, "func", lambda g: scans.append(g) or scan(g))
    inputs = [
        _VALID.with_edges([("a", "e")]),  # a long edge, and no gap without edges
        LevelGraph(3, {"a": 1, "b": 2, "c": 3}, (("a", "b"),)),  # radial reference selection fills gap 2
    ]
    calls = {
        "check_level": check_level,
        "check_level witness": lambda g: check_level(g, witness=True),
        "check_radial": check_radial,
        "check_radial witness": lambda g: check_radial(g, witness=True),
        "crosscheck_instance": crosscheck_instance,
    }
    for g in inputs:
        for name, call in calls.items():
            scans.clear()
            call(LevelGraph(g.k, dict(g.level), g.edges))
            assert len(scans) == 1, (name, g)


@pytest.mark.parametrize("mode", ["level", "radial"])
def test_a_graph_recorded_as_checked_is_valid_when_scanned_afresh(mode, bench_gen):
    planted = [bench_gen.planted_planar(random.Random(seed), [4, 3, 5], 1.0).graph for seed in range(4)]
    # long edges from level 1 to level 3, so properize subdivides
    planted = [g.with_edges([(g.on_level(1)[0], g.on_level(3)[-1]), (g.on_level(1)[-1], g.on_level(3)[0])])
               for g in planted]
    for g in [*exhaustive_proper_graphs(3, 3), *planted]:
        proper, _ = properize(g)
        pg = stage_context(g, mode).pg
        for built in (proper, pg.star_form.star, pg.graph):
            afresh = LevelGraph(built.k, dict(built.level), built.edges)
            assert validate(afresh) == [], g
            assert afresh.is_proper() == built.is_proper(), g


def test_properize_is_identity_on_proper_graphs():
    g = LevelGraph(2, {"a": 1, "b": 2}, (("a", "b"),))
    proper, prov = properize(g)
    assert proper == g
    assert prov.vertex_origin == {}
    assert prov.paths == {("a", "b"): ("a", "b")}


def test_properize_splits_two_level_span():
    g = LevelGraph(3, {"a": 1, "b": 3}, (("a", "b"),))
    proper, prov = properize(g)
    assert proper.is_proper()
    mid = "a~b~2"
    assert proper.level[mid] == 2
    assert set(proper.edges) == {("a", mid), (mid, "b")}
    assert prov.vertex_origin == {mid: ("a", "b")}


def test_properize_three_level_span_adds_two_vertices():
    g = LevelGraph(4, {"a": 1, "b": 4}, (("a", "b"),))
    proper, prov = properize(g)
    assert len(proper.edges) == 3
    assert len(prov.vertex_origin) == 2
    assert prov.paths[("a", "b")] == ("a", "a~b~2", "a~b~3", "b")
    assert prov.point_at(("a", "b"), 3, proper.level) == "a~b~3"
    for lv in (0, 5):
        with pytest.raises(ValueError, match=re.escape(f"edge ('a', 'b') does not cross level {lv}")):
            prov.point_at(("a", "b"), lv, proper.level)


def test_properize_names_avoid_every_vertex():
    # a(1)->b(3) would name its point a~b~2, an input id; a(1)->b~c(3) would
    # take a~b~c~2, the name of a~b(1)->c(3)'s point
    g = LevelGraph(3, {"a": 1, "a~b": 1, "a~b~2": 2, "b": 3, "b~c": 3, "c": 3},
                   (("a", "b"), ("a~b", "c"), ("a", "b~c"), ("a~b~2", "b")))
    proper, prov = properize(g)
    assert validate(proper) == [] and proper.is_proper()
    assert prov.paths == {("a", "b"): ("a", "a~b~2'", "b"), ("a~b", "c"): ("a~b", "a~b~c~2", "c"),
                          ("a", "b~c"): ("a", "a~b~c~2'", "b~c"), ("a~b~2", "b"): ("a~b~2", "b")}
    assert len(proper.level) == len(g.level) + 3


def test_properize_idempotent_on_random_graphs():
    rng = random.Random(1)
    for _ in range(50):
        g = random_proper_graph(rng)
        again, prov = properize(g)
        assert again == g
        assert prov.vertex_origin == {}


def test_critical_pairs_excludes_shared_endpoints():
    g = LevelGraph(2, {"a": 1, "b": 2, "c": 2}, (("a", "b"), ("a", "c")))
    assert critical_pairs(g) == []


def test_critical_pairs_same_gap_pair():
    g = LevelGraph(2, {"a": 1, "c": 1, "b": 2, "d": 2}, (("a", "b"), ("c", "d")))
    assert critical_pairs(g) == [CriticalPair(("a", "b"), ("c", "d"))]


def test_critical_pairs_disjoint_ranges_empty():
    g = LevelGraph(4, {"a": 1, "b": 2, "c": 3, "d": 4}, (("a", "b"), ("c", "d")))
    assert critical_pairs(g) == []


def _random_level_graph(rng: random.Random) -> LevelGraph:
    """Arbitrary upward edges, long spans included."""
    k = rng.randint(2, 5)
    level = {f"v{i}": rng.randint(1, k) for i in range(rng.randint(2, 8))}
    vs = sorted(level)
    edges = []
    for u in vs:
        for v in vs:
            if level[u] < level[v] and rng.random() < 0.4:
                edges.append((u, v))
    return LevelGraph(k, level, tuple(edges))


def test_critical_pairs_match_definition_by_exhaustive_scan():
    rng = random.Random(7)
    for _ in range(30):
        g = _random_level_graph(rng)
        listed = {(p.e, p.f) for p in critical_pairs(g)}
        from itertools import combinations

        for e, f in combinations(sorted(g.edges), 2):
            expect = (
                independent(e, f)
                and g.level[e[0]] <= g.level[f[1]]
                and g.level[e[1]] >= g.level[f[0]]
            )
            assert ((e, f) in listed) == expect
            assert is_critical(g, e, f) == expect


def test_limits_of_single_gap_pair_are_endpoints():
    g = LevelGraph(2, {"a": 1, "c": 1, "b": 2, "d": 2}, (("a", "b"), ("c", "d")))
    proper, prov = properize(g)
    lim = limits(CriticalPair(("a", "b"), ("c", "d")), proper, prov)
    assert (lim.e_low, lim.e_high, lim.f_low, lim.f_high) == ("a", "b", "c", "d")
    assert (lim.low, lim.high) == (1, 2)


def test_limits_nested_spans():
    g = LevelGraph(4, {"a": 1, "b": 4, "c": 2, "d": 3}, (("a", "b"), ("c", "d")))
    proper, prov = properize(g)
    lim = limits(CriticalPair(("a", "b"), ("c", "d")), proper, prov)
    assert (lim.e_low, lim.e_high) == ("a~b~2", "a~b~3")
    assert (lim.f_low, lim.f_high) == ("c", "d")


def test_limits_staggered_spans():
    # hand-checked: spans 1..3 and 2..4 share the window 2..3
    g = LevelGraph(4, {"a": 1, "b": 3, "c": 2, "d": 4}, (("a", "b"), ("c", "d")))
    proper, prov = properize(g)
    lim = limits(CriticalPair(("a", "b"), ("c", "d")), proper, prov)
    assert (lim.low, lim.high) == (2, 3)
    assert (lim.e_low, lim.e_high) == ("a~b~2", "b")
    assert (lim.f_low, lim.f_high) == ("c", "c~d~3")
    assert proper.level[lim.e_low] == proper.level[lim.f_low]
    assert proper.level[lim.e_high] == proper.level[lim.f_high]


def test_limits_rejects_non_critical_pair():
    g = LevelGraph(4, {"a": 1, "b": 2, "c": 3, "d": 4}, (("a", "b"), ("c", "d")))
    proper, prov = properize(g)
    with pytest.raises(ValueError):
        limits(CriticalPair(("a", "b"), ("c", "d")), proper, prov)
    with pytest.raises(ValueError, match=re.escape("edges ('a', 'b') and ('a', 'c') are not independent")):
        limits(CriticalPair(("a", "b"), ("a", "c")), proper, prov)


def test_limit_levels_always_aligned():
    rng = random.Random(9)
    for _ in range(30):
        g = _random_level_graph(rng)
        proper, prov = properize(g)
        for pair in critical_pairs(g):
            lim = limits(pair, proper, prov)
            assert proper.level[lim.e_low] == proper.level[lim.f_low] == lim.low
            assert proper.level[lim.e_high] == proper.level[lim.f_high] == lim.high


@st.composite
def graphs_with_empty_levels(draw, names="hgfedcba"):
    """Valid graphs on up to 6 levels over ids drawn from `names`; ids come
    unsorted, levels may be empty and edges may be long."""
    k = draw(st.integers(1, 6))
    ids = draw(st.lists(st.sampled_from(names), max_size=8, unique=True))
    level = {v: draw(st.integers(1, k)) for v in ids}
    upward = [(u, v) for u in ids for v in ids if level[u] < level[v]]
    edges = draw(st.lists(st.sampled_from(upward), unique=True)) if upward else []
    return LevelGraph(k, level, tuple(edges)), upward


@settings(max_examples=200, deadline=None)
@given(graphs_with_empty_levels())
def test_level_index_equals_the_scans(case):
    g, upward = case
    assert validate(g) == []
    for i in range(0, g.k + 2):
        assert g.on_level(i) == tuple(sorted(v for v, lv in g.level.items() if lv == i))
        assert g.gap_edges(i) == tuple(sorted(e for e in g.edges if g.level[e[0]] == i))
    extra = [e for e in upward if e not in g.edges]
    h = g.with_edges(extra)
    for e in extra:
        assert e in h.gap_edges(g.level[e[0]])
        assert e not in g.gap_edges(g.level[e[0]])


# ids that subdivision points of edges among them are named after, so some
# points take a primed name
POINT_LIKE_IDS = ["a", "b", "c", "d", "a~b", "b~c", "a~b~2", "a~b~2'", "a~b~3", "a~b~c~2", "a~d~3"]


def _assert_indexed_as_the_scans(proper: LevelGraph, paths) -> None:
    """The index equals sorted scans of the level map and the edges, and every
    path point lies on the level its position on the path gives it."""
    for i in range(0, proper.k + 2):
        assert proper.on_level(i) == tuple(sorted(v for v, lv in proper.level.items() if lv == i))
        assert proper.gap_edges(i) == tuple(sorted(e for e in proper.edges if proper.level[e[0]] == i))
    assert list(proper.by_level) == sorted(set(proper.level.values()))
    assert list(proper.by_gap) == sorted({proper.level[u] for u, _ in proper.edges})
    for path in paths.values():
        low = proper.level[path[0]]
        for j, w in enumerate(path):
            assert w in proper.on_level(low + j)
        for j, seg in enumerate(zip(path, path[1:])):
            assert seg in proper.gap_edges(low + j)


@settings(max_examples=200, deadline=None)
@given(graphs_with_empty_levels(POINT_LIKE_IDS))
def test_a_properizations_index_equals_the_scans(case):
    proper, prov = properize(case[0])
    _assert_indexed_as_the_scans(proper, prov.paths)


def test_a_properization_with_primed_points_is_indexed_by_level():
    # a(1)->d(4) names its points a~d~2 and a~d~3, an input id, so the second is primed
    g = LevelGraph(4, {"d": 4, "a~d~3": 3, "a": 1, "a~b~2": 2, "b": 3, "c": 1},
                   (("a", "d"), ("a", "b"), ("c", "d"), ("a~b~2", "b")))
    proper, prov = properize(g)
    assert prov.paths[("a", "d")] == ("a", "a~d~2", "a~d~3'", "d")
    assert prov.paths[("a", "b")] == ("a", "a~b~2'", "b")
    assert proper.on_level(2) == ("a~b~2", "a~b~2'", "a~d~2", "c~d~2")
    assert proper.on_level(3) == ("a~d~3", "a~d~3'", "b", "c~d~3")
    _assert_indexed_as_the_scans(proper, prov.paths)


def test_the_stretched_subdivisions_are_indexed_by_level(bench_gen):
    for inst in bench_gen.witness_instances(1, 6):
        for mode in ("level", "radial"):
            pg = stage_context(inst.graph, mode).pg
            _assert_indexed_as_the_scans(pg.graph, pg.prov.paths)
