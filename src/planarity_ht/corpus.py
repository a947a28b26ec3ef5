"""Instance generation for cross-checking: exhaustive small corpora and random graphs.

The exhaustive generator lists every proper level graph with bounded level
count and width, one per class of level-preserving isomorphisms (vertices
may be permuted within each level): the class's least joint edge mask.  Per
size vector it scans the joint masks in ascending order, marks each new
class's orbit in a seen-table and jumps to the next unmarked mask.  Orbits
are built gap by gap from tables of one level's permutations (a row's image
under each column permutation, each row permutation's slot shifts), so a
class costs about its orbit and a size vector about its number of masks.
The seen-table holds one byte per mask, 2^(sum of n_i * n_{i+1}) bytes: 16 MiB
at widths (2, 4, 4) and 4 GiB at (4, 4, 4), which the default cap of 20,000
classes keeps a (3, 4) bound from reaching.
"""

from __future__ import annotations

import random
from itertools import islice, permutations, product
from operator import lshift
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


class _Gap:
    """Relabeling tables for the edge masks of one gap, n1 upper by n2 lower vertices.

    Edge (r, c) is bit r * n2 + c, so each upper vertex owns a row of n2 bits.
    Permutations (p1, p2) of the two levels move bit r * n2 + c to
    p1[r] * n2 + p2[c]: cols[i2][row] is a row's image under the i2-th
    permutation of the lower level, shifts[i1][r] = p1[r] * n2 for the i1-th
    permutation of the upper level.  The shifted rows fill disjoint slots, so
    their sum is the relabeled mask.
    """

    def __init__(self, n1: int, n2: int):
        self.n2 = n2
        self.bits = n1 * n2
        self.cols = [[sum(1 << p[c] for c in range(n2) if row >> c & 1) for row in range(1 << n2)]
                     for p in permutations(range(n2))]
        self.shifts = [tuple(p[r] * n2 for r in range(n1)) for p in permutations(range(n1))]

    def columns(self, mask: int) -> list[tuple[int, ...]]:
        """The mask's rows under each permutation of the lower level."""
        full = (1 << self.n2) - 1
        rows = [mask >> r & full for r in range(0, self.bits, self.n2)]
        return [tuple([col[row] for row in rows]) for col in self.cols]

    def extend(self, prefixes_by_perm: list[set[int]], mask: int) -> list[set[int]]:
        """Append the mask's images to the images of the gaps above it.

        prefixes_by_perm[i1] holds the images of the gaps above under every
        relabeling that gives the upper level its i1-th permutation; the
        result is the same, one set per permutation of the lower level.
        Permutations that move the mask's columns alike share one set.
        """
        by_columns: dict[tuple[int, ...], set[int]] = {}
        out = []
        for rows in self.columns(mask):
            reached = by_columns.get(rows)
            if reached is None:
                reached = by_columns[rows] = set()
                for shift, prefixes in zip(self.shifts, prefixes_by_perm):
                    image = sum(map(lshift, rows, shift))
                    reached.update([prefix << self.bits | image for prefix in prefixes])
            out.append(reached)
        return out

    def images(self, mask: int) -> list[tuple[int, ...]]:
        """The mask's distinct images, one tuple per permutation of the upper level."""
        columns = set(self.columns(mask))
        return [tuple({sum(map(lshift, rows, shift)) for rows in columns}) for shift in self.shifts]


# masks whose images the last gap keeps at a time: every mask of a 3 x 3 gap,
# so at most 512 * 4! * 4! ints at width 4
_MEMO_MASKS = 512


def exhaustive_proper_graphs(max_levels: int = 3, max_width: int = 3,
                             cap: int = 20_000) -> Iterator[LevelGraph]:
    """All proper level graphs within the bounds, deduplicated; the first `cap` of them."""
    return islice(_class_representatives(max_levels, max_width), max(cap, 0))


def _class_representatives(max_levels: int, max_width: int) -> Iterator[LevelGraph]:
    """One graph per isomorphism class, size vector by size vector."""
    for k in range(1, max_levels + 1):
        for sizes in product(range(1, max_width + 1), repeat=k):
            for masks in _least_masks(sizes):
                yield graph_from_masks(sizes, masks)


def _least_masks(sizes: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Each class's least joint mask, split into gap masks, in ascending order.

    The joint mask puts gap 0 in its highest bits.  The scan marks each
    class's orbit in `seen` and then jumps to the next unmarked mask.  The
    orbit is built gap by gap: states[g][i] holds the images of gaps
    0..g-1 under every relabeling that gives level g its i-th permutation.
    The states of the leading gaps are kept while their masks stay the same.
    """
    gaps = [_Gap(sizes[g], sizes[g + 1]) for g in range(len(sizes) - 1)]
    if not gaps:
        yield ()
        return
    last = gaps[-1]
    total = sum(gap.bits for gap in gaps)
    seen = bytearray(1 << total)
    built: list[int] = []
    states = [[{0}] * len(gaps[0].shifts)]
    memo: dict[int, list[tuple[int, ...]]] = {}
    joint = 0
    while joint >= 0:
        masks = []
        low = total
        for gap in gaps:
            low -= gap.bits
            masks.append(joint >> low & ((1 << gap.bits) - 1))
        yield tuple(masks)
        kept = 0
        while kept < len(built) and built[kept] == masks[kept]:
            kept += 1
        del built[kept:], states[kept + 1:]
        for g in range(kept, len(gaps) - 1):
            built.append(masks[g])
            states.append(gaps[g].extend(states[g], masks[g]))
        images = memo.get(masks[-1])
        if images is None:
            if len(memo) == _MEMO_MASKS:
                memo.clear()
            images = memo[masks[-1]] = last.images(masks[-1])
        orbit: set[int] = set()
        for prefixes, gap_images in zip(states[-1], images):
            orbit.update([prefix << last.bits | image for prefix in prefixes for image in gap_images])
        for image in orbit:
            seen[image] = 1
        joint = seen.find(0, joint + 1)


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
