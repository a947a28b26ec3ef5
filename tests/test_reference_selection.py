"""The default reference selection keeps as many middle levels as any
selection can to one anchor.

Level i's two anchors are the head of gap i - 1's reference edge and the
tail of gap i's; where they coincide, the radial system gives the level one
block of triples and no coupling row.  A selection takes one edge per gap,
and a gap with no edge may take any pair of vertices of its two levels.
The brute force below tries every selection.
"""

from __future__ import annotations

import random
from itertools import product

from planarity_ht.constraints import ReferenceSets, _per_gap_edges, _selections, choose_reference_sets
from planarity_ht.corpus import exhaustive_proper_graphs, random_proper_graph
from planarity_ht.graphs import LevelGraph
from tests.conftest import make_path


def _coinciding(edges) -> int:
    """The middle levels whose anchors coincide under a selection given gap by gap."""
    return sum(below[1] == above[0] for below, above in zip(edges, edges[1:]))


def _edges(g: LevelGraph, refs: ReferenceSets) -> tuple:
    return tuple(map(refs.reference_edge, range(1, g.k)))


def _check(g: LevelGraph) -> bool:
    """Check g's default selection against every selection of g; returns
    whether it differs from the smallest-edge selection."""
    refs, aug = choose_reference_sets(g)
    chosen = _edges(g, refs)
    assert refs.inserted == tuple(e for i, e in enumerate(chosen, 1) if not g.gap_edges(i))
    assert sum(len(refs.anchors(i)) == 1 for i in range(2, g.k)) == _coinciding(chosen)
    every = [g.gap_edges(i) or tuple(product(g.on_level(i), g.on_level(i + 1))) for i in range(1, g.k)]
    most = max(map(_coinciding, product(*every)))
    assert _coinciding(chosen) == most, g
    # of the best selections, the lexicographically smallest gap by gap
    assert chosen == min(s for s in product(*every) if _coinciding(s) == most), g
    ((smallest, _),) = _selections(g, [_per_gap_edges])
    if _coinciding(_edges(g, smallest)) == most:
        assert refs == smallest, g
    return refs != smallest


def test_the_default_selection_is_best_on_the_3x3_corpus():
    moved = sum(map(_check, exhaustive_proper_graphs(3, 3)))
    # the smallest-edge selection falls short on 1,411 of the 6,310 graphs
    assert moved == 1411


def test_the_default_selection_is_best_on_random_graphs():
    rng = random.Random(29)
    moved = sum(_check(random_proper_graph(rng, 5, 5, 0.4)) for _ in range(400))
    assert moved > 50


def test_an_edgeless_gap_continues_the_path_below_it():
    # gap 2 has no edge: its inserted edge leaves level 2 at the anchor
    # below (b) and enters level 3 at f, where gap 3's only edge begins; the
    # smallest-edge selection inserts (b, e) and gives level 3 two anchors
    g = LevelGraph(4, {"a": 1, "b": 2, "c": 2, "e": 3, "f": 3, "h": 4},
                   (("a", "b"), ("a", "c"), ("f", "h")))
    refs, aug = choose_reference_sets(g)
    assert _edges(g, refs) == (("a", "b"), ("b", "f"), ("f", "h"))
    assert refs.inserted == (("b", "f"),) and aug.edges == g.edges + (("b", "f"),)
    assert all(len(refs.anchors(i)) == 1 for i in range(1, g.k + 1))
    ((smallest, _),) = _selections(g, [_per_gap_edges])
    assert smallest.inserted == (("b", "e"),) and smallest.anchors(3) == ("e", "f")


def test_a_path_keeps_its_own_edges():
    g = make_path(3000)
    refs, aug = choose_reference_sets(g)
    assert aug is g and refs.inserted == ()
    assert _edges(g, refs) == g.edges
