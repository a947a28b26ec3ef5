"""Metamorphic relations of the decision.

Each relation transforms a graph into one whose answer must be the same in
both modes, so it checks decisions without an oracle: reversing the levels
(level l becomes k + 1 - l and every edge turns around), and renaming every
vertex id, which changes every tie-break and the radial reference choice.
"""

from __future__ import annotations

import random

from planarity_ht.corpus import random_proper_graph
from planarity_ht.graphs import LevelGraph
from planarity_ht.pipeline import check_level, check_radial


def _reversed(g: LevelGraph) -> LevelGraph:
    return LevelGraph(g.k, {v: g.k + 1 - lv for v, lv in g.level.items()},
                      tuple(sorted((v, u) for u, v in g.edges)))


def _renamed(g: LevelGraph, rng: random.Random) -> LevelGraph:
    ids = [f"r{n}" for n in range(len(g.level))]
    rng.shuffle(ids)
    name = dict(zip(sorted(g.level), ids))
    return LevelGraph(g.k, {name[v]: lv for v, lv in g.level.items()},
                      tuple(sorted((name[u], name[v]) for u, v in g.edges)))


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
