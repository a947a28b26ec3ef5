from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarity_ht.corpus import random_proper_graph
from planarity_ht.graphs import (
    CriticalPair,
    LevelGraph,
    critical_pairs,
    independent,
    is_critical,
    limits,
    properize,
    validate,
)


def test_validate_single_vertex_ok():
    g = LevelGraph(1, {"a": 1}, ())
    assert validate(g) == []


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
def graphs_with_empty_levels(draw):
    """Valid graphs on up to 6 levels; ids come unsorted and levels may be empty."""
    k = draw(st.integers(1, 6))
    ids = draw(st.lists(st.sampled_from("hgfedcba"), max_size=8, unique=True))
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
