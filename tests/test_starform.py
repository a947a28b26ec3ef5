from __future__ import annotations

import random

import pytest

from planarity_ht.constraints import choose_reference_sets
from planarity_ht.corpus import exhaustive_proper_graphs, random_proper_graph
from planarity_ht.graphs import LevelGraph
from planarity_ht.starform import (
    build_betas,
    build_plus,
    build_star_level,
    build_star_radial,
)
from tests.conftest import make_path


def test_single_edge_star_form():
    g = LevelGraph(2, {"u": 1, "v": 2}, (("u", "v"),))
    sf = build_star_level(g)
    assert sf.star.k == 4
    assert sf.star.level == {"u~bot": 1, "u~top": 2, "v~bot": 3, "v~top": 4}
    assert set(sf.star.edges) == {("u~bot", "u~top"), ("u~top", "v~bot"), ("v~bot", "v~top")}


def test_level_with_three_vertices_expands_to_six_sublevels():
    g = LevelGraph(1, {"a": 1, "b": 1, "c": 1}, ())
    sf = build_star_level(g)
    assert len(sf.block(1)) == 6
    assert sf.star.k == 6


def test_k22_star_form_counts(k22):
    sf = build_star_level(k22)
    assert sf.star.k == 8
    assert len(sf.star.level) == 8
    assert len(sf.star.edges) == 8  # 4 stretch + 4 edge images
    # one vertex per sublevel
    assert sorted(sf.star.level.values()) == list(range(1, 9))


def test_star_form_single_vertex_per_sublevel_over_corpus():
    for g in exhaustive_proper_graphs(2, 3, cap=100):
        sf = build_star_level(g)
        assert sorted(sf.star.level.values()) == list(range(1, sf.star.k + 1))
        for i in range(1, g.k + 1):
            assert len(sf.block(i)) == 2 * len(g.on_level(i))


def test_radial_block_width_unequal_anchors():
    # anchors fed directly: plus anchor a, minus anchor c on a level of width 3
    g = LevelGraph(2, {"a": 1, "b": 1, "c": 1, "x": 2}, (("a", "x"), ("c", "x")))
    sf = build_star_radial(g, {1: "a", 2: "x"}, {1: "c", 2: "x"})
    assert len(sf.block(1)) == 2 * 3 - 1
    assert sf.middle[1] == 3
    # the middle holds top of the minus anchor and bot of the plus anchor
    on_middle = [v for v, lv in sf.star.level.items() if lv == 3]
    assert sorted(on_middle) == ["a~bot", "c~top"]


def test_radial_block_width_equal_anchors():
    g = LevelGraph(1, {"a": 1, "b": 1, "c": 1}, ())
    sf = build_star_radial(g, {1: "a"}, {1: "a"})
    assert len(sf.block(1)) == 2 * 3 + 1
    assert sf.middle[1] == 4
    # anchor's stretch edge spans the whole block; middle sublevel holds no vertex
    assert sf.star.level["a~bot"] == 1 and sf.star.level["a~top"] == 7
    assert all(lv != 4 for lv in sf.star.level.values())


def test_radial_path_every_level_three_sublevels():
    g = make_path(4)
    refs, aug = choose_reference_sets(g)
    sf = build_star_radial(aug, refs.alpha_plus, refs.alpha_minus)
    for i in range(1, 5):
        assert len(sf.block(i)) == 3


def test_build_plus_identity_when_star_already_proper():
    g = LevelGraph(1, {"a": 1}, ())
    sf = build_star_level(g)
    pg = build_plus(sf)
    assert pg.graph == sf.star
    assert all(len(p) == 2 for p in pg.prov.paths.values())
    # a single edge stretches into a chain of adjacent sublevels: nothing to subdivide
    sf2 = build_star_level(LevelGraph(2, {"u": 1, "v": 2}, (("u", "v"),)))
    pg2 = build_plus(sf2)
    assert pg2.graph == sf2.star


def test_k22_origin_map_hand_checked(k22):
    sf = build_star_level(k22)
    pg = build_plus(sf)
    # a1..b2 stretch spans: a1 1..3, b1 2..4, a2 5..7, b2 6..8
    lv = pg.graph.level
    assert lv["a1~bot"] == 1 and lv["a1~top"] == 3
    assert lv["b1~bot"] == 2 and lv["b1~top"] == 4
    expected = {
        "a1~bot": "a1", "a1~top": "a1", "b1~bot": "b1", "b1~top": "b1",
        "a2~bot": "a2", "a2~top": "a2", "b2~bot": "b2", "b2~top": "b2",
        # stretch subdivision points inherit their owner
        "a1~bot~a1~top~2": "a1", "b1~bot~b1~top~3": "b1",
        "a2~bot~a2~top~6": "a2", "b2~bot~b2~top~7": "b2",
        # (a1,a2) image: top at 3, bot at 5 -> one point in level 1's block
        "a1~top~a2~bot~4": "a1",
        # (a1,b2) image: 3 -> 6 crosses level 4 (tail block) and level 5 (head block)
        "a1~top~b2~bot~4": "a1", "a1~top~b2~bot~5": "b2",
        # (b1,b2) image: 4 -> 6 crosses level 5 (head block)
        "b1~top~b2~bot~5": "b2",
    }
    assert pg.origin == expected


def test_every_stretch_edge_crosses_its_middle_sublevel():
    rng = random.Random(3)
    for _ in range(20):
        g = random_proper_graph(rng, max_levels=3, max_width=4)
        refs, aug = choose_reference_sets(g)
        sf = build_star_radial(aug, refs.alpha_plus, refs.alpha_minus)
        for v in aug.level:
            lo = sf.star.level[sf.bot[v]]
            hi = sf.star.level[sf.top[v]]
            m = sf.middle[aug.level[v]]
            assert lo <= m <= hi


def test_origin_total_and_injective_on_middles():
    rng = random.Random(4)
    for _ in range(20):
        g = random_proper_graph(rng, max_levels=3, max_width=4)
        refs, aug = choose_reference_sets(g)
        sf = build_star_radial(aug, refs.alpha_plus, refs.alpha_minus)
        pg = build_plus(sf)
        assert set(pg.origin) == set(pg.graph.level)
        for i in range(1, aug.k + 1):
            middle = sf.middle[i]
            on_m = [v for v, lv in pg.graph.level.items() if lv == middle]
            mapped = [pg.origin[v] for v in on_m]
            assert len(set(mapped)) == len(mapped)


def test_betas_follow_anchor_stretch_paths():
    # middle level with distinct anchors: enters at m1, leaves at m2
    g = LevelGraph(
        3,
        {"a": 1, "m1": 2, "m2": 2, "z": 3},
        (("a", "m1"), ("a", "m2"), ("m2", "z")),
    )
    refs, aug = choose_reference_sets(g)
    assert refs.alpha_minus[2] == "m1" and refs.alpha_plus[2] == "m2"
    sf = build_star_radial(aug, refs.alpha_plus, refs.alpha_minus)
    pg = build_plus(sf)
    betas = build_betas(pg, refs.alpha_plus, refs.alpha_minus)
    for j in range(1, pg.graph.k + 1):
        i = sf.level_origin[j]
        if refs.alpha_plus[i] == refs.alpha_minus[i]:
            assert betas.alpha_minus[j] == betas.alpha_plus[j]
        elif j == sf.middle[i]:
            assert betas.alpha_minus[j] == sf.top[refs.alpha_minus[i]]
            assert betas.alpha_plus[j] == sf.bot[refs.alpha_plus[i]]
        else:
            assert betas.alpha_minus[j] == betas.alpha_plus[j]
    # consecutive betas joined by edges of the subdivision
    edge_set = set(pg.graph.edges)
    for j in range(1, pg.graph.k):
        assert (betas.alpha_plus[j], betas.alpha_minus[j + 1]) in edge_set
