"""Instance generation for cross-checking: exhaustive small corpora and random graphs.

The exhaustive generator walks every proper level graph with bounded level
count and width, one representative per class of level-preserving
isomorphisms (vertices may be permuted within each level).  Orbits are marked
in a seen-table, so each class costs one pass over its members and the whole
sweep stays cheap.
"""

from __future__ import annotations

import random
from itertools import islice, permutations, product
from math import factorial
from typing import Iterator

from .graphs import Edge, LevelGraph, VertexId


def level_vertex_names(sizes: list[int] | tuple[int, ...]) -> list[list[VertexId]]:
    """Deterministic ids: level i gets a<i>, b<i>, c<i>, ..."""
    return [[f"{chr(97 + j)}{i + 1}" for j in range(n)] for i, n in enumerate(sizes)]


def graph_from_masks(sizes: tuple[int, ...], masks: tuple[int, ...]) -> LevelGraph:
    """Build the graph whose gap g edges are the set bits r * n_{g+1} + c of masks[g]."""
    names = level_vertex_names(sizes)
    level = {v: i + 1 for i, vs in enumerate(names) for v in vs}
    edges: list[Edge] = []
    for g, mask in enumerate(masks):
        n2 = sizes[g + 1]
        bit = 0
        while mask >> bit:
            if mask >> bit & 1:
                edges.append((names[g][bit // n2], names[g + 1][bit % n2]))
            bit += 1
    return LevelGraph(len(sizes), level, tuple(sorted(edges)))


def _gap_tables(n1: int, n2: int) -> dict[tuple[int, int], list[int]]:
    """mask -> relabeled mask, for every pair of (level, next level) permutations."""
    perms1 = list(permutations(range(n1)))
    perms2 = list(permutations(range(n2)))
    bits = n1 * n2
    tables: dict[tuple[int, int], list[int]] = {}
    for i1, p1 in enumerate(perms1):
        for i2, p2 in enumerate(perms2):
            bit_map = [1 << (p1[b // n2] * n2 + p2[b % n2]) for b in range(bits)]
            table = [0] * (1 << bits)
            for m in range(1, 1 << bits):
                low = (m & -m).bit_length() - 1
                table[m] = table[m & (m - 1)] | bit_map[low]
            tables[(i1, i2)] = table
    return tables


def exhaustive_proper_graphs(max_levels: int = 3, max_width: int = 3,
                             cap: int = 20_000) -> Iterator[LevelGraph]:
    """All proper level graphs within the bounds, deduplicated; the first `cap` of them."""
    return islice(_class_representatives(max_levels, max_width), max(cap, 0))


def _class_representatives(max_levels: int, max_width: int) -> Iterator[LevelGraph]:
    """One graph per isomorphism class, size vector by size vector."""
    for k in range(1, max_levels + 1):
        for sizes in product(range(1, max_width + 1), repeat=k):
            gap_bits = [sizes[g] * sizes[g + 1] for g in range(k - 1)]
            tables = [_gap_tables(sizes[g], sizes[g + 1]) for g in range(k - 1)]
            # relabelings per level; one level has no edges to relabel
            combos = list(product(*(range(factorial(n)) for n in sizes))) if k > 1 else []
            total = 1 << sum(gap_bits)
            seen = bytearray(total)
            for joint in range(total):
                if seen[joint]:
                    continue
                masks = []
                rest = joint
                for b in reversed(gap_bits):
                    masks.append(rest & ((1 << b) - 1))
                    rest >>= b
                masks.reverse()
                yield graph_from_masks(sizes, tuple(masks))
                for combo in combos:
                    image = 0
                    for g in range(k - 1):
                        image = image << gap_bits[g] | tables[g][(combo[g], combo[g + 1])][masks[g]]
                    seen[image] = 1


def random_proper_graph(rng: random.Random, max_levels: int = 4, max_width: int = 4,
                        edge_density: float = 0.5) -> LevelGraph:
    k = rng.randint(1, max_levels)
    sizes = tuple(rng.randint(1, max_width) for _ in range(k))
    names = level_vertex_names(sizes)
    level = {v: i + 1 for i, vs in enumerate(names) for v in vs}
    edges = [
        (u, v)
        for g in range(k - 1)
        for u in names[g]
        for v in names[g + 1]
        if rng.random() < edge_density
    ]
    return LevelGraph(k, level, tuple(sorted(edges)))


def random_level_drawing(rng: random.Random, g: LevelGraph):
    from .drawing import LevelDrawing

    orders = {}
    for i in range(1, g.k + 1):
        vs = list(g.on_level(i))
        rng.shuffle(vs)
        orders[i] = tuple(vs)
    return LevelDrawing(orders)


def random_radial_drawing(rng: random.Random, g: LevelGraph, refs) -> "RadialDrawing":
    from .constraints import flagged_edges
    from .drawing import RadialDrawing

    cyclic = {}
    for i in range(1, g.k + 1):
        vs = list(g.on_level(i))
        rng.shuffle(vs)
        cyclic[i] = tuple(vs)
    return RadialDrawing(cyclic, {e: rng.random() < 0.5 for e in flagged_edges(g, refs)})
