from __future__ import annotations

import json
import random
from itertools import islice

import pytest

from planarity_ht.cli import main
from planarity_ht.constraints import _per_gap_edges, _selections, choose_reference_sets
from planarity_ht.corpus import exhaustive_proper_graphs, random_proper_graph
from planarity_ht.graphs import LevelGraph
from planarity_ht.iofmt import graph_to_json
from planarity_ht.pipeline import check_level, check_radial, stage_context
from planarity_ht.starform import (
    build_betas,
    build_plus,
    build_star_level,
    build_star_radial,
)
from tests.conftest import make_path
from tests.helpers import plus_by_properize
from tests.test_planted_families import _families


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
    # middle level with distinct anchors: enters at m1, leaves at m2, under
    # the smallest-edge selection (the default follows the path a, m2, z)
    g = LevelGraph(
        3,
        {"a": 1, "m1": 2, "m2": 2, "z": 3},
        (("a", "m1"), ("a", "m2"), ("m2", "z")),
    )
    ((refs, aug),) = _selections(g, [_per_gap_edges])
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


@pytest.mark.parametrize("mode", ["level", "radial"])
def test_star_vertices_on_is_the_owner_filtered_plus_level(mode):
    # G+ keeps the star graph's vertices, their sublevels and their ids
    for g in islice(exhaustive_proper_graphs(3, 3), 0, None, 50):
        if mode == "level":
            sf = build_star_level(g)
        else:
            refs, aug = choose_reference_sets(g)
            sf = build_star_radial(aug, refs.alpha_plus, refs.alpha_minus)
        pg = build_plus(sf)
        for j in range(pg.graph.k + 2):
            assert pg.star_vertices_on(j) == tuple(v for v in pg.graph.on_level(j) if v in sf.owner)


def _expected_layout(g, refs):
    """Each copy's sublevel, `level_origin` and `middle`, by the rules the builders' docstrings state.

    Plain form (refs None): occupied levels ascending, vertices by id; the j-th
    of n gets its bottom copy on offset + j and its top copy on offset + n + j.
    Radial form, anchors differ: order [am, *rest, ap], top copies one sublevel
    lower, middle offset + n.  Anchors coincide: order [am, *rest], as the plain
    form except the anchor's top copy on offset + 2n + 1, middle offset + n + 1.
    """
    level, level_origin, middle = {}, {}, {}
    offset = 0
    for i in sorted(set(g.level.values())):
        vs = sorted(v for v, lv in g.level.items() if lv == i)
        n = len(vs)
        if refs is None:
            order, top_from, width, spanning = vs, offset + n, 2 * n, None
        else:
            ap, am = refs.alpha_plus[i], refs.alpha_minus[i]
            rest = [v for v in vs if v not in (ap, am)]
            if ap != am:
                order, top_from, width, spanning = [am, *rest, ap], offset + n - 1, 2 * n - 1, None
                middle[i] = offset + n
            else:
                order, top_from, width, spanning = [am, *rest], offset + n, 2 * n + 1, am
                middle[i] = offset + n + 1
        for j, v in enumerate(order, start=1):
            level[f"{v}~bot"] = offset + j
            level[f"{v}~top"] = top_from + j
        if spanning is not None:
            level[f"{spanning}~top"] = offset + 2 * n + 1
        for s in range(offset + 1, offset + width + 1):
            level_origin[s] = i
        offset += width
    return level, level_origin, (None if refs is None else middle)


@pytest.mark.parametrize("mode", ["level", "radial"])
def test_every_copy_sits_where_the_layout_rule_puts_it(mode):
    rng = random.Random(11)
    sample = [random_proper_graph(rng, 5, 5) for _ in range(60)]
    for g in [*exhaustive_proper_graphs(3, 3), *sample]:
        if mode == "level":
            refs, base = None, g
            sf = build_star_level(g)
        else:
            refs, base = choose_reference_sets(g)
            sf = build_star_radial(base, refs.alpha_plus, refs.alpha_minus)
        level, level_origin, middle = _expected_layout(base, refs)
        assert sf.star.level == level
        assert sf.level_origin == level_origin
        assert sf.middle == middle
        assert sf.star.k == len(level_origin)


def test_radial_star_form_refuses_an_empty_level_before_reading_its_anchors():
    g = LevelGraph(3, {"a": 1, "b": 3}, ())
    with pytest.raises(ValueError, match=r"^radial star form needs a nonempty level, level 2 is empty$"):
        build_star_radial(g, {1: "a", 3: "b"}, {1: "a", 3: "b"})


def test_radial_star_form_refuses_an_anchor_off_its_level():
    g = LevelGraph(2, {"a": 1, "b": 1, "c": 2, "d": 2}, (("a", "c"), ("b", "d")))
    refused = {
        "c": "plus anchor 'c' does not lie on level 1; minus anchor 'c' does not lie on level 1",
        "z": "plus anchor 'z' does not lie on level 1; minus anchor 'z' does not lie on level 1",
    }
    for anchor, problems in refused.items():
        with pytest.raises(ValueError, match=rf"^invalid anchors: {problems}$"):
            build_star_radial(g, {1: anchor, 2: "c"}, {1: anchor, 2: "c"})
    with pytest.raises(ValueError, match=r"^invalid anchors: level 2 has no plus anchor$"):
        build_star_radial(g, {1: "a"}, {1: "a", 2: "c"})


def test_plain_star_form_gives_an_empty_level_no_sublevels():
    sf = build_star_level(LevelGraph(3, {"a": 1, "b": 3}, ()))
    assert sf.star.k == 4
    assert sf.level_origin == {1: 1, 2: 1, 3: 3, 4: 3}
    assert sf.block(2) == []


@pytest.mark.parametrize("mode", ["level", "radial"])
def test_build_plus_equals_the_properized_star_form(mode, bench_gen):
    # build_plus subdivides the star form itself and indexes the result as it
    # goes; graphs.properize with a second walk for the origins is the reference
    graphs = [*islice(exhaustive_proper_graphs(3, 3), 0, None, 5),
              *(inst.graph for inst in bench_gen.witness_instances(1, 200)),
              *(g for family, g, _ in _families(bench_gen) if family in ("split", "long"))]
    for g in graphs:
        ctx = stage_context(g, mode)
        pg, ref = ctx.pg, plus_by_properize(ctx.star_form)
        assert pg.graph.k == ref.graph.k
        assert list(pg.graph.level.items()) == list(ref.graph.level.items())
        assert pg.graph.edges == ref.graph.edges
        assert list(pg.graph.by_level.items()) == list(ref.graph.by_level.items())
        assert list(pg.graph.by_gap.items()) == list(ref.graph.by_gap.items())
        assert list(pg.prov.vertex_origin.items()) == list(ref.prov.vertex_origin.items())
        assert list(pg.prov.paths.items()) == list(ref.prov.paths.items())
        assert list(pg.origin.items()) == list(ref.origin.items())
        # the layout fills the star graph's index as it places the copies
        star = ctx.star_form.star
        assert list(star.by_level.items()) == list(LevelGraph(star.k, star.level, star.edges).by_level.items())


# level mode stretches p -> q~top~r and p~top~q -> r into (p~top, q~top~r~bot)
# and (p~top~q~top, r~bot), whose points on sublevel 5 take one name
PRIMING = LevelGraph(2, {"p": 1, "p~top~q": 1, "a": 2, "q~top~r": 2, "r": 2},
                     (("p", "q~top~r"), ("p~top~q", "r")))


def test_two_edge_images_naming_one_point_prime_the_later_one():
    pg = build_plus(build_star_level(PRIMING))
    first, second = ("p~top", "q~top~r~bot"), ("p~top~q~top", "r~bot")
    assert pg.prov.paths[first] == ("p~top", "p~top~q~top~r~bot~4", "p~top~q~top~r~bot~5", "q~top~r~bot")
    assert pg.prov.paths[second] == ("p~top~q~top", "p~top~q~top~r~bot~5'", "p~top~q~top~r~bot~6", "r~bot")
    assert pg.graph.on_level(5) == ("a~bot", "p~top~q~top~r~bot~5", "p~top~q~top~r~bot~5'")
    assert [pg.origin[w] for w in pg.prov.paths[first][1:-1]] == ["p", "q~top~r"]
    assert [pg.origin[w] for w in pg.prov.paths[second][1:-1]] == ["r", "r"]


@pytest.mark.parametrize("mode, check, crossings", [("level", check_level, 0), ("radial", check_radial, 2)])
def test_the_priming_graph_gets_a_witness_that_renders(mode, check, crossings, tmp_path):
    result = check(PRIMING, witness=True)
    assert result.planar and result.witness_crossings == crossings
    graph, witness = tmp_path / "prime.json", tmp_path / "w.json"
    graph.write_text(json.dumps(graph_to_json(PRIMING)))
    assert main(["check", mode, str(graph), "--witness", str(witness)]) == 0
    assert main(["render", str(witness), str(graph), "--out", str(tmp_path / "w.svg")]) == 0
