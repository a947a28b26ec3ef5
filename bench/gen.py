"""Seeded, labelled instance families for the benchmark.

Every label comes from how the graph is built, never from running a decider:

* planted-planar: each level gets a hidden left-to-right order, and each gap
  gets edges taken from one monotone staircase between the two hidden
  orders, so no two edges cross.  The hidden orders are a level-planar
  drawing, which is also a radial one, so the graph is planar in both modes.
* planted K3,3: a planted-planar graph plus all nine edges between three
  vertices of level i and three of level i+1.  K3,3 has no planar drawing
  at all, so the graph is non-planar in both modes.

Vertex ids are random tokens, so the ascending-id tie-breaks the pipeline
uses know nothing of the hidden orders.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, permutations

from planarity_ht.corpus import exhaustive_proper_graphs
from planarity_ht.graphs import Edge, LevelGraph, VertexId


@dataclass(frozen=True)
class Instance:
    graph: LevelGraph
    planar: bool | None                               # known answer in both modes, or None
    hidden: dict[int, tuple[VertexId, ...]] | None    # a crossing-free order per level


def _fresh_ids(rng: random.Random, count: int) -> list[VertexId]:
    ids: set[VertexId] = set()
    while len(ids) < count:
        ids.add(f"v{rng.getrandbits(24):06x}")
    out = sorted(ids)
    rng.shuffle(out)
    return out


def _staircase(rng: random.Random, a: int, b: int) -> list[tuple[int, int]]:
    """A random monotone lattice path from (0, 0) to (a-1, b-1): a+b-1 pairwise non-crossing edges."""
    steps = [0] * (a - 1) + [1] * (b - 1)
    rng.shuffle(steps)
    x = y = 0
    out = [(0, 0)]
    for s in steps:
        if s:
            y += 1
        else:
            x += 1
        out.append((x, y))
    return out


def planted_planar(rng: random.Random, widths: list[int], keep: float) -> Instance:
    """Planar by construction; each gap keeps round(keep * (a + b - 1)) staircase edges."""
    ids = _fresh_ids(rng, sum(widths))
    hidden: dict[int, tuple[VertexId, ...]] = {}
    level: dict[VertexId, int] = {}
    for i, w in enumerate(widths, start=1):
        hidden[i], ids = tuple(ids[:w]), ids[w:]
        level.update((v, i) for v in hidden[i])
    edges: list[Edge] = []
    for i in range(1, len(widths)):
        lo, hi = hidden[i], hidden[i + 1]
        stairs = _staircase(rng, len(lo), len(hi))
        kept = rng.sample(stairs, max(1, round(keep * len(stairs))))
        edges.extend((lo[x], hi[y]) for x, y in kept)
    return Instance(LevelGraph(len(widths), level, tuple(sorted(edges))), True, hidden)


def plant_k33(rng: random.Random, inst: Instance) -> Instance:
    """Add a complete K3,3 between three vertices of a random gap whose levels hold at least three."""
    g = inst.graph
    widths = g.widths()
    gaps = [i for i in range(1, g.k) if widths[i - 1] >= 3 and widths[i] >= 3]
    i = rng.choice(gaps)
    lo = rng.sample(sorted(g.on_level(i)), 3)
    hi = rng.sample(sorted(g.on_level(i + 1)), 3)
    edges = set(g.edges) | {(u, v) for u in lo for v in hi}
    return Instance(LevelGraph(g.k, dict(g.level), tuple(sorted(edges))), False, None)


def _shapes(levels: range, widths: range) -> list[tuple[int, int]]:
    return [(k, w) for k in levels for w in widths]


def decide_instances(seed: int, count: int) -> list[Instance]:
    """Planted-planar graphs with 3..5 levels of 3..5 vertices; every second one gets a K3,3.

    Shapes are dealt round-robin so every pool has the same mix of sizes,
    and each (shape, planted) pair appears equally often.
    """
    rng = random.Random(f"decide/{seed}")
    shapes = _shapes(range(3, 6), range(3, 6))
    rng.shuffle(shapes)
    out = []
    for n in range(count):
        k, w = shapes[(n // 2) % len(shapes)]
        inst = planted_planar(rng, [w] * k, keep=0.8)
        out.append(plant_k33(rng, inst) if n % 2 else inst)
    return out


def witness_instances(seed: int, count: int) -> list[Instance]:
    """Tall, narrow planted-planar graphs: 4..8 levels of 3..4 vertices."""
    rng = random.Random(f"witness/{seed}")
    shapes = _shapes(range(4, 9), range(3, 5))
    rng.shuffle(shapes)
    out = []
    for n in range(count):
        k, w = shapes[n % len(shapes)]
        out.append(planted_planar(rng, [w] * k, keep=0.8))
    return out


def corpus_sample(seed: int, count: int) -> list[Instance]:
    """A sample of the exhaustive 3x3 corpus, stratified by (level widths, edge count).

    Each stratum contributes in proportion to its size (largest remainders
    first), so the mix of instance sizes is the same for every seed.  The
    corpus carries no answers; the crosscheck workload checks them itself.
    """
    rng = random.Random(f"crosscheck/{seed}")
    strata: dict[tuple, list[LevelGraph]] = {}
    for g in exhaustive_proper_graphs(3, 3):
        strata.setdefault((tuple(g.widths()), len(g.edges)), []).append(g)
    total = sum(len(v) for v in strata.values())
    quotas = {key: count * len(gs) / total for key, gs in strata.items()}
    take = {key: int(q) for key, q in quotas.items()}
    short = count - sum(take.values())
    for key in sorted(quotas, key=lambda s: (take[s] - quotas[s], s))[:short]:
        take[key] += 1
    out = []
    for key in sorted(strata):
        out.extend(rng.sample(strata[key], take[key]))
    rng.shuffle(out)
    return [Instance(g, None, None) for g in out]


def level_planar(g: LevelGraph) -> bool:
    """Level planarity of a proper graph by a search over per-level orders.

    Independent of the library's deciders and oracles: orders are fixed
    level by level, and a prefix is dropped as soon as two independent edges
    of its top gap are inverted.
    """
    levels = [g.on_level(i) for i in range(1, g.k + 1)]
    gaps = [g.gap_edges(i) for i in range(1, g.k)]

    def crossing_free(lo: dict, hi: dict, edges) -> bool:
        return not any(
            a != c and b != d and (lo[a] < lo[c]) != (hi[b] < hi[d])
            for (a, b), (c, d) in combinations(edges, 2)
        )

    def extend(i: int, below: dict | None) -> bool:
        if i == len(levels):
            return True
        for order in permutations(levels[i]):
            pos = {v: p for p, v in enumerate(order)}
            if (below is None or crossing_free(below, pos, gaps[i - 1])) and extend(i + 1, pos):
                return True
        return False

    return extend(0, None)
