from __future__ import annotations

import random

from planarity_ht.constraints import choose_reference_sets
from planarity_ht.corpus import random_proper_graph
from planarity_ht.drawing import LevelDrawing, count_crossings_level, count_crossings_radial
from planarity_ht.oracle import brute_level, brute_radial
from planarity_ht.render import count_markers, render_level_svg, render_radial_svg
from tests.conftest import make_path
from tests.helpers import random_level_drawing, random_radial_drawing


def test_path_level_svg_has_k_lines_and_no_markers():
    g = make_path(4)
    d = brute_level(g).witness
    svg = render_level_svg(g, d)
    assert svg.count('class="level"') == 4
    assert svg.count('class="edge"') == 3
    assert count_markers(svg) == 0


def test_path_radial_svg_has_k_circles():
    g = make_path(3)
    refs, aug = choose_reference_sets(g)
    d = brute_radial(aug, refs).witness
    svg = render_radial_svg(aug, d, refs)
    assert svg.count('class="level"') == 3
    assert count_markers(svg) == 0


def test_k22_radial_witness_renders_without_crossings(k22):
    refs, aug = choose_reference_sets(k22)
    d = brute_radial(aug, refs).witness
    svg = render_radial_svg(aug, d, refs)
    assert count_markers(svg) == 0


def test_double_crossing_fixture_renders_two_markers():
    from tests.test_drawing import _double_crossing_drawing

    g, ctx, d, az, by = _double_crossing_drawing()
    svg = render_level_svg(ctx.pg.graph, d)
    assert count_markers(svg) == 2


def test_fixed_coordinates():
    g = make_path(2)
    d = LevelDrawing({1: ("p1",), 2: ("p2",)})
    svg = render_level_svg(g, d)
    # level 1 sits at y = 60 * k, first position at x = 60
    assert 'cx="60.0" cy="120.0"' in svg
    assert 'cx="60.0" cy="60.0"' in svg


def test_every_crossing_of_a_random_drawing_is_marked():
    rng = random.Random(29)
    crossings = {"level": 0, "radial": 0}
    for _ in range(60):
        g = random_proper_graph(rng, 4, 4, edge_density=0.6)
        d = random_level_drawing(rng, g)
        total = count_crossings_level(d, g).total()
        assert count_markers(render_level_svg(g, d)) == total
        crossings["level"] += total
        refs, aug = choose_reference_sets(g)
        d = random_radial_drawing(rng, aug, refs)
        total = count_crossings_radial(d, aug, refs).total()
        assert count_markers(render_radial_svg(aug, d, refs)) == total
        crossings["radial"] += total
    assert min(crossings.values()) > 0
