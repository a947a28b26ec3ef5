"""Instance generation for cross-checking: exhaustive small corpora and random graphs.

The exhaustive generator lists every proper level graph with bounded level
count and width, one per class of level-preserving isomorphisms (vertices
may be permuted within each level): the class's least joint edge mask.  Per
size vector it walks the gaps from the top (canonical augmentation, one gap
at a time): gap 0's classes under both levels' permutations, then, for each,
the next gap's classes under the projection of that class's stabilizer on
the shared level, times every permutation of the level below, and so on.  Each
gap's scan marks each new class's orbit in a seen-table of one byte per
mask of that gap and jumps to the next unmarked mask; orbits are built from
tables of one level's permutations (a row's image under each column
permutation, each row permutation's slot shifts).  One listing scans each
(gap shape, group) pair once and keeps its class list, which every later
visit of that gap under that group reads, across size vectors too; a
listing's tables live as long as the listing.  Memory is one set of
relabeling tables per gap shape, a seen-table of 2^(n_i * n_{i+1}) bytes
while a gap is scanned (64 KiB for a 4 x 4 gap), and the class lists held
for one listing, whatever the number of levels.  The seen-table doubles with
each edge slot, so a listing of two or more levels is refused when a level
could be wider than `MAX_GAP_WIDTH`: a 5 x 5 gap takes 32 MiB, a 5 x 6 gap
would take 1 GiB and a 6 x 6 gap 64 GiB.  A one-level listing scans no gap
and takes any width.
"""

from __future__ import annotations

import random
from itertools import islice, permutations, product
from math import factorial
from operator import lshift
from typing import Callable, Iterator, Sequence

from .graphs import LevelGraph, VertexId

MAX_GAP_WIDTH = 5  # the widest level an exhaustive listing of two or more levels takes


def level_vertex_names(sizes: list[int] | tuple[int, ...]) -> list[list[VertexId]]:
    """Deterministic ids: level i gets a<i>, b<i>, c<i>, ..."""
    return [[f"{chr(97 + j)}{i + 1}" for j in range(n)] for i, n in enumerate(sizes)]


def graph_from_masks(sizes: tuple[int, ...], masks: tuple[int, ...]) -> LevelGraph:
    """Build the graph whose gap g edges are the set bits r * n_{g+1} + c of masks[g]."""
    return _builder(sizes)(masks)


def _builder(sizes: tuple[int, ...]) -> Callable[[tuple[int, ...]], LevelGraph]:
    """The graph builder of one size vector.

    Its graphs share the vertex names and the level map, and read their
    edges off one list of every possible edge, sorted, with its gap and bit.
    """
    names = level_vertex_names(sizes)
    level = {v: i + 1 for i, vs in enumerate(names) for v in vs}
    slots = sorted(((names[g][bit // n2], names[g + 1][bit % n2]), g, bit)
                   for g, n2 in enumerate(sizes[1:]) for bit in range(sizes[g] * n2))
    k = len(sizes)

    def build(masks: tuple[int, ...]) -> LevelGraph:
        return LevelGraph(k, level, tuple([e for e, g, bit in slots if masks[g] >> bit & 1]))
    return build


class _Gap:
    """Relabeling tables for the edge masks of one gap, n1 upper by n2 lower vertices.

    Edge (r, c) is bit r * n2 + c, so each upper vertex owns a row of n2 bits.
    Permutations (p1, p2) of the two levels move bit r * n2 + c to
    p1[r] * n2 + p2[c]: cols[i2][row] is a row's image under the i2-th
    permutation of the lower level, shifts[i1][r] = p1[r] * n2 for the i1-th
    permutation of the upper level.  The shifted rows fill disjoint slots, so
    their sum is the relabeled mask.  Both levels' permutations are indexed
    in `itertools.permutations` order, so the lower level's index here is
    the upper level's index in the next gap.
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

    def classes(self, upper: Sequence[int]) -> Iterator[tuple[int, tuple[int, ...]]]:
        """The gap's masks up to the upper permutations indexed by `upper`
        (a group) times every lower permutation, each class as its least
        mask, ascending.

        The scan marks each class's orbit in a seen-table of one byte per
        mask, then jumps to the next unmarked mask.  With each class comes
        the lower permutations that some upper permutation pairs with to fix
        its mask: the stabilizer's projection on the lower level, a group.
        """
        shifts = [self.shifts[i] for i in upper]
        seen = bytearray(1 << self.bits)
        mask = 0
        while mask >= 0:
            fixes: dict[tuple[int, ...], bool] = {}
            lower = []
            for i2, rows in enumerate(self.columns(mask)):
                fixed = fixes.get(rows)
                if fixed is None:
                    images = [sum(map(lshift, rows, shift)) for shift in shifts]
                    for image in images:
                        seen[image] = 1
                    fixed = fixes[rows] = mask in images
                if fixed:
                    lower.append(i2)
            yield mask, tuple(lower)
            mask = seen.find(0, mask + 1)


class _Listing:
    """The tables of one listing, shared across its size vectors: each gap
    shape's `_Gap`, and each (gap shape, group) pair's classes as a list.

    A walk revisits a later gap once per class above it, but under few
    distinct groups: 21 pairs serve the whole 4 x 3 corpus.  The tables live
    as long as the listing, so every listing pays for its own scans.
    """

    def __init__(self) -> None:
        self.gaps: dict[tuple[int, int], _Gap] = {}
        self.lists: dict[tuple[int, int, tuple[int, ...]], list[tuple[int, tuple[int, ...]]]] = {}

    def classes(self, n1: int, n2: int, upper: Sequence[int]) -> list[tuple[int, tuple[int, ...]]]:
        """`_Gap(n1, n2).classes(upper)` as a list, scanned on first use."""
        key = (n1, n2, tuple(upper))
        got = self.lists.get(key)
        if got is None:
            gap = self.gaps.get((n1, n2))
            if gap is None:
                gap = self.gaps[n1, n2] = _Gap(n1, n2)
            got = self.lists[key] = list(gap.classes(upper))
        return got


def exhaustive_proper_graphs(max_levels: int = 3, max_width: int = 3,
                             cap: int = 20_000) -> Iterator[LevelGraph]:
    """All proper level graphs within the bounds, deduplicated; the first `cap` of them.

    Bounds whose gaps could be wider than `MAX_GAP_WIDTH` are refused at the
    call with a ValueError, before any graph is listed."""
    if max_levels >= 2 and max_width > MAX_GAP_WIDTH:
        raise ValueError(f"the exhaustive listing of two or more levels takes widths up to "
                         f"{MAX_GAP_WIDTH}, got {max_width}")
    return islice(_class_representatives(max_levels, max_width), max(cap, 0))


def _class_representatives(max_levels: int, max_width: int) -> Iterator[LevelGraph]:
    """One graph per isomorphism class, size vector by size vector."""
    listing = _Listing()
    for k in range(1, max_levels + 1):
        for sizes in product(range(1, max_width + 1), repeat=k):
            yield from map(_builder(sizes), _least_masks(sizes, listing))


def _least_masks(sizes: tuple[int, ...], listing: _Listing | None = None) -> Iterator[tuple[int, ...]]:
    """Each class's least joint mask, split into gap masks, in ascending order.

    The joint mask puts gap 0 in its highest bits, so it is least in its
    orbit exactly when gap 0's mask is least under both levels'
    permutations and each later gap's mask is least under the stabilizer
    of the gaps above, projected on the gap's upper level, times every
    permutation of its lower level.  The walk lists the classes gap by gap
    in that order, reading each gap's classes from the listing's tables
    (a fresh listing's by default).
    """
    classes = (_Listing() if listing is None else listing).classes
    shapes = list(zip(sizes, sizes[1:]))

    def walk(g: int, upper: Sequence[int]) -> Iterator[tuple[int, ...]]:
        if g == len(shapes):
            yield ()
            return
        for mask, lower in classes(*shapes[g], upper):
            for rest in walk(g + 1, lower):
                yield (mask, *rest)

    # the top level's group as a range: a one-level size vector never reads it
    yield from walk(0, range(factorial(sizes[0])))


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
