"""Metamorphic relations of the decision.

Each relation fixes a graph's answer from the answers of others, so it checks
decisions without an oracle.  Reversing the levels (level l becomes k + 1 - l
and every edge turns around) and renaming every vertex id, which changes
every tie-break and the radial reference choice, keep the answer in both
modes.  In radial mode every reference selection decides alike.  In level
mode a disjoint union is planar exactly when each part is, since the parts
can be drawn side by side; in radial mode it is not, as two copies of K2,2
on the same two levels show.
"""

from __future__ import annotations

import random

from planarity_ht.constraints import build_radial_reduced, choose_reference_sets, reference_set_variants
from planarity_ht.corpus import random_proper_graph
from planarity_ht.drawing import (
    drawing_from_assignment_radial,
    lift_assignment_radial,
    make_radial_context,
    star_report_radial,
)
from planarity_ht.graphs import LevelGraph
from planarity_ht.oracle import brute_radial
from planarity_ht.pipeline import check_level, check_radial, solve_reduced


def _reversed(g: LevelGraph) -> LevelGraph:
    return LevelGraph(g.k, {v: g.k + 1 - lv for v, lv in g.level.items()},
                      tuple(sorted((v, u) for u, v in g.edges)))


def _renamed(g: LevelGraph, rng: random.Random) -> LevelGraph:
    ids = [f"r{n}" for n in range(len(g.level))]
    rng.shuffle(ids)
    name = dict(zip(sorted(g.level), ids))
    return LevelGraph(g.k, {name[v]: lv for v, lv in g.level.items()},
                      tuple(sorted((name[u], name[v]) for u, v in g.edges)))


def _disjoint_union(g: LevelGraph, h: LevelGraph) -> LevelGraph:
    """g beside h, whose vertex ids get a prefix that no id of g has."""
    name = {v: f"h.{v}" for v in h.level}
    return LevelGraph(max(g.k, h.k), g.level | {name[v]: lv for v, lv in h.level.items()},
                      g.edges + tuple((name[u], name[v]) for u, v in h.edges))


def test_reversing_the_levels_and_renaming_the_vertices_keep_both_decisions():
    rng, names = random.Random(3), random.Random(4)
    nonplanar = {"level": 0, "radial": 0}
    for n in range(150):
        g = random_proper_graph(rng, 5, 5, edge_density=(0.3, 0.5, 0.7)[n % 3])
        # every tenth graph also builds, realizes and verifies its images' witnesses
        witness = n % 10 == 0
        for mode, check in (("level", check_level), ("radial", check_radial)):
            planar = check(g).planar
            nonplanar[mode] += not planar
            for image in (_reversed(g), _renamed(g, names)):
                result = check(image, witness=witness)
                assert result.planar == planar, (mode, g, image)
                assert (result.witness is not None) == (witness and planar)
    # the sample must hold both answers in both modes for the relations to bite
    assert 0 < nonplanar["level"] < 150 and 0 < nonplanar["radial"] < 150


def test_every_reference_selection_decides_a_graph_alike():
    # graphs past the oracle's reach: the default, the smallest-edge and the
    # largest-edge reference selection, each where it differs from those
    # before it, check each other
    rng = random.Random(5)
    several = three = nonplanar = witnessed = 0
    for n in range(150):
        g = random_proper_graph(rng, 6, 6, 0.4)
        variants = reference_set_variants(g)
        decisions = [solve_reduced(build_radial_reduced(augmented, refs)) for refs, augmented in variants]
        planar = decisions[0] is not None
        assert [phi is not None for phi in decisions] == [planar] * len(variants), g
        several += len(variants) > 1
        three += len(variants) == 3
        nonplanar += not planar
        # every tenth graph also realizes and verifies the other selections' witnesses
        if n % 10 == 0 and len(variants) > 1 and planar:
            for (refs, augmented), phi in zip(variants[1:], decisions[1:]):
                ctx = make_radial_context(augmented, refs)
                d = drawing_from_assignment_radial(lift_assignment_radial(phi, ctx), ctx)
                assert star_report_radial(d, ctx).ht_violations == []
                witnessed += 1
    assert several > 100 and three > 50 and 0 < nonplanar < 150 and witnessed > 0


def test_a_disjoint_union_is_level_planar_exactly_when_both_parts_are():
    rng = random.Random(11)
    answers = {True: 0, False: 0}
    for _ in range(1000):
        g, h = random_proper_graph(rng, 5, 5, 0.45), random_proper_graph(rng, 5, 5, 0.45)
        union = check_level(_disjoint_union(g, h)).planar
        assert union == (check_level(g).planar and check_level(h).planar), (g, h)
        answers[union] += 1
    assert min(answers.values()) > 200


def test_a_disjoint_union_of_radial_planar_graphs_can_be_radially_nonplanar(k22):
    # K2,2 closes into a cycle around the center; two such cycles on the same
    # two levels would have to cross
    union = _disjoint_union(k22, k22)
    assert check_radial(k22).planar and not check_radial(union).planar
    for g, planar in ((k22, True), (union, False)):
        refs, augmented = choose_reference_sets(g)
        assert brute_radial(augmented, refs).planar == planar
