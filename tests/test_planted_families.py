"""Radial decisions on graphs past the oracle's reach, whose answer is known
by construction.

The benchmark's planted graphs are planar in both modes, and a planted
K3,3 makes them planar in neither.  Two variants keep the answer:
splitting each vertex v into `v_in`, which takes v's in-edges, and `v_out`,
which takes its out-edges, drawn side by side where v was; and adding long
edges from fresh vertices on level 1 to fresh vertices on level k, drawn
nested beside the planted drawing.  A split graph has no monotone path
through a middle level, so every middle level keeps two anchors there; a
long graph's smallest edges leave the long paths, since the fresh ids sort
after the planted ones.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import planarity_ht
from planarity_ht.constraints import (
    _per_gap_edges,
    _selections,
    build_radial_reduced,
    choose_reference_sets,
    reference_set_variants,
)
from planarity_ht.graphs import LevelGraph, properize
from planarity_ht.iofmt import graph_to_json
from planarity_ht.pipeline import check_level, check_radial, solve_reduced
from tests.helpers import witness_report


def _split(g: LevelGraph) -> LevelGraph:
    level = {f"{v}_{end}": lv for v, lv in g.level.items() for end in ("in", "out")}
    return LevelGraph(g.k, level, tuple(sorted((f"{u}_out", f"{v}_in") for u, v in g.edges)))


def _long(g: LevelGraph, m: int) -> LevelGraph:
    ends = [(f"w{j:02}lo", f"w{j:02}hi") for j in range(m)]
    level = g.level | {lo: 1 for lo, _ in ends} | {hi: g.k for _, hi in ends}
    return LevelGraph(g.k, level, tuple(sorted(g.edges + tuple(ends))))


def _families(bench_gen):
    """(family, graph, planar) for planted graphs of 6 to 12 levels, every
    second one with a K3,3, and their split and long variants."""
    rng = random.Random(29)
    for n, (k, w) in enumerate([(6, 12), (8, 10), (10, 8), (12, 6)] * 2):
        inst = bench_gen.planted_planar(rng, [w] * k, keep=0.8)
        if n % 2:
            inst = bench_gen.plant_k33(rng, inst)
        g = inst.graph
        yield from (("planted", g, inst.planar), ("split", _split(g), inst.planar),
                    ("long", _long(g, 4 + n), inst.planar))


def test_every_reference_selection_decides_the_planted_families_as_built(bench_gen):
    seen = {True: 0, False: 0}
    moved = 0
    for family, g, planar in _families(bench_gen):
        assert check_level(g).planar == planar, (family, g)
        result = check_radial(g, witness=True)
        assert result.planar == planar, (family, g)
        if planar:
            assert witness_report(g, result).ht_violations == []
        proper, _ = properize(g)
        variants = reference_set_variants(proper)
        decisions = [solve_reduced(build_radial_reduced(aug, refs)) is not None for refs, aug in variants]
        assert decisions == [planar] * len(variants), (family, g)
        ((smallest, _),) = _selections(proper, [_per_gap_edges])
        moved += smallest != variants[0][0]
        seen[planar] += 1
    assert seen == {True: 12, False: 12}
    assert moved > 10


def test_a_tall_planted_graph_gets_no_coupling_row(bench_gen):
    # planted 10x40: each middle level has a monotone path through it, so
    # the default selection gives every level one anchor; the smallest-edge
    # selection gives 8 levels two, and 26,709 variables
    g = bench_gen.planted_planar(random.Random(7), [40] * 10, 1.0).graph
    refs, aug = choose_reference_sets(g)
    assert all(len(refs.anchors(i)) == 1 for i in range(1, g.k + 1))
    system = build_radial_reduced(aug, refs)
    # a level with two anchors gives coupling rows of four triples each
    assert all(len(idx) == 2 for idx, _ in system.rows)
    assert system.n <= 15_000


def test_a_split_graph_decides_at_once(bench_gen, tmp_path):
    # split 10x30: every middle level keeps two anchors, so the radial
    # decision leaves 26,448 rows over 20,636 columns to elimination, which
    # takes about half a second only if each row is reduced by just the
    # pivots it hits (against every pivot row, it takes minutes)
    g = _split(bench_gen.planted_planar(random.Random(7), [30] * 10, keep=1.0).graph)
    p = tmp_path / "split.json"
    p.write_text(json.dumps(graph_to_json(g)))
    env = dict(os.environ, PYTHONPATH=str(Path(planarity_ht.__file__).resolve().parent.parent))
    for mode in ("radial", "level"):
        done = subprocess.run([sys.executable, "-m", "planarity_ht.cli", "--json", "check", mode, str(p)], env=env,
                              capture_output=True, text=True, timeout=20)
        assert done.returncode == 0, mode
        assert json.loads(done.stdout)["planar"] is True, mode
