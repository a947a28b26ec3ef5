"""The exhaustive corpus: which graphs it lists, in which order, at what memory cost.

Each class of level-preserving isomorphisms is listed once, as its least
joint mask: gap 0's edge mask in the highest bits, edge (r, c) of a gap with
n2 lower vertices at bit r * n2 + c.  Classes come in ascending joint mask
order, size vectors in `itertools.product` order.  The CLI golden digests,
`crosscheck` output and the benchmark's corpus sample all depend on it.
"""

from __future__ import annotations

import hashlib
import json
import tracemalloc
from itertools import islice, permutations, product

import pytest

from planarity_ht import corpus
from planarity_ht.corpus import _least_masks, exhaustive_proper_graphs, graph_from_masks
from planarity_ht.iofmt import graph_to_json

# sha256 over json.dumps(graph_to_json(g), sort_keys=True) + "\n" for each
# graph of exhaustive_proper_graphs(3, 3), in order
DIGEST_3X3 = "69a81e27d6ba963307a1cbd23ce26f46ffd90b1dd97a720580fbdce13f483c20"

# the same digest past 3 x 3: (4, 2) in full, 1,536 classes over walks of up
# to three gaps; (4, 3) and (3, 4) capped at 20,000 classes, the latter
# ending inside size vector (2, 4, 4), whose second gap is 4 x 4
DIGESTS_PAST_3X3 = [
    ((4, 2), 20_000, "4b67d517798d654b8074d280d2c2cf144825f8ab3a3deadf77469f5aa5735d9c"),
    ((4, 3), 20_000, "4ca26bed040cdbdbd40e67f56db234a07638525718f913eb16e1f7212b3b817f"),
    ((3, 4), 20_000, "0df800b8bfadf6a81324d9426219625207b7dcef0873d108448ee5ca56633b62"),
]

# sha256 over f"{tuple(g.widths())} {g.edges}\n" for each graph of the whole
# 4 x 3 corpus, in order: cheaper than the JSON digest above, which would
# add about 11 s
DIGEST_4X3 = "5e5dc2c4c48bb010bdc4f0ec8236c8cad59c7e5e88b9f374a0319c01e2a19fb3"


def _split(joint: int, sizes: tuple[int, ...]) -> tuple[int, ...]:
    widths = [a * b for a, b in zip(sizes, sizes[1:])]
    masks = []
    for bits in reversed(widths):
        masks.append(joint & ((1 << bits) - 1))
        joint >>= bits
    return tuple(reversed(masks))


def _relabel(masks: tuple[int, ...], sizes: tuple[int, ...], perms: tuple[tuple[int, ...], ...]) -> int:
    """The joint mask of the graph with level i's vertex j renamed perms[i][j]."""
    joint = 0
    for g, mask in enumerate(masks):
        n2 = sizes[g + 1]
        image = 0
        for bit in range(sizes[g] * n2):
            if mask >> bit & 1:
                image |= 1 << (perms[g][bit // n2] * n2 + perms[g + 1][bit % n2])
        joint = joint << (sizes[g] * n2) | image
    return joint


def _brute_force(max_levels: int, max_width: int) -> list:
    """Each class's least joint mask over all relabelings, ascending, per size vector."""
    out = []
    for k in range(1, max_levels + 1):
        for sizes in product(range(1, max_width + 1), repeat=k):
            relabelings = list(product(*(permutations(range(n)) for n in sizes)))
            total = sum(a * b for a, b in zip(sizes, sizes[1:]))
            least = {min(_relabel(_split(joint, sizes), sizes, p) for p in relabelings)
                     for joint in range(1 << total)}
            out += [graph_from_masks(sizes, _split(joint, sizes)) for joint in sorted(least)]
    return out


@pytest.mark.parametrize("bounds, classes", [
    ((1, 1), 1), ((2, 2), 17), ((3, 2), 158), ((2, 3), 88), ((4, 2), 1_536), ((2, 4), 634), ((3, 3), 6_310),
])
def test_class_counts(bounds, classes):
    assert sum(1 for _ in exhaustive_proper_graphs(*bounds)) == classes


def _digest(graphs) -> str:
    h = hashlib.sha256()
    for g in graphs:
        h.update((json.dumps(graph_to_json(g), sort_keys=True) + "\n").encode())
    return h.hexdigest()


def test_the_3x3_sequence_is_pinned():
    assert _digest(exhaustive_proper_graphs(3, 3)) == DIGEST_3X3


@pytest.mark.parametrize("bounds, cap, digest", DIGESTS_PAST_3X3)
def test_the_sequence_past_3x3_is_pinned(bounds, cap, digest):
    assert _digest(exhaustive_proper_graphs(*bounds, cap=cap)) == digest


def test_the_whole_4x3_sequence_is_pinned():
    h = hashlib.sha256()
    count = 0
    for g in exhaustive_proper_graphs(4, 3, cap=600_000):
        h.update(f"{tuple(g.widths())} {g.edges}\n".encode())
        count += 1
    assert (count, h.hexdigest()) == (573_252, DIGEST_4X3)


# every bound up to (3, 2) and (2, 3)
@pytest.mark.parametrize("bounds", sorted({(k, w) for k in (1, 2, 3) for w in (1, 2)}
                                          | {(k, w) for k in (1, 2) for w in (1, 2, 3)}))
def test_each_class_is_its_least_relabeling_in_ascending_order(bounds):
    assert list(exhaustive_proper_graphs(*bounds)) == _brute_force(*bounds)


@pytest.mark.parametrize("bounds, cap", [((3, 3), 1_000), ((3, 3), 2_777), ((2, 4), 300), ((2, 2), 0)])
def test_a_capped_run_is_a_prefix_of_the_uncapped_run(bounds, cap):
    full = list(exhaustive_proper_graphs(*bounds))
    assert cap < len(full)
    assert list(exhaustive_proper_graphs(*bounds, cap=cap)) == full[:cap]


def test_width_four_enumerates_in_bounded_memory():
    # a relabeling table over every 4 x 4 gap mask per pair of level
    # permutations would take about 1.5 GB; per-level tables and orbit sets
    # stay far below the bound
    tracemalloc.start()
    try:
        assert sum(1 for _ in exhaustive_proper_graphs(2, 4)) == 634
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_a_width_four_size_vector_starts_in_bounded_memory():
    # a seen-table over the joint masks of (2, 4, 4) would take 2^24 bytes,
    # 16 MiB, before the first class; one table per gap takes 2^16
    tracemalloc.start()
    try:
        assert len(list(islice(_least_masks((2, 4, 4)), 200))) == 200
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_a_listing_scans_each_gap_shape_and_group_once(monkeypatch):
    scans = 0
    classes = corpus._Gap.classes

    def counted(gap, upper):
        nonlocal scans
        scans += 1
        return classes(gap, upper)
    monkeypatch.setattr(corpus._Gap, "classes", counted)
    # the 3 x 3 walks revisit later gaps 291 times under 21 distinct
    # (gap shape, group) pairs
    assert sum(1 for _ in exhaustive_proper_graphs(3, 3)) == 6_310
    assert scans == 21
    # no table outlives its listing: the next one scans again
    assert sum(1 for _ in exhaustive_proper_graphs(3, 3)) == 6_310
    assert scans == 42


@pytest.mark.parametrize("bounds, classes, bound", [
    # a one-level size vector has no gap, so its level's W! permutations are
    # never listed; at W = 10 a list of them would take about 140 MiB
    ((1, 10), 10, 2**20),
    # a listing holds the class lists of each gap shape under each group it met
    ((3, 4), 20_000, 4 * 2**20),
])
def test_a_listing_holds_its_class_lists_in_bounded_memory(bounds, classes, bound):
    tracemalloc.start()
    try:
        assert sum(1 for _ in exhaustive_proper_graphs(*bounds, cap=20_000)) == classes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound


def test_a_listing_too_wide_to_scan_is_refused_at_the_call():
    # widths past corpus.MAX_GAP_WIDTH (5) would need a seen-table of 1 GiB or more
    # per gap; a one-level listing scans no gap and takes any width
    for bounds in ((2, 6), (4, 9)):
        with pytest.raises(ValueError, match=rf"takes widths up to 5, got {bounds[1]}"):
            exhaustive_proper_graphs(*bounds)
    assert [g.widths() for g in exhaustive_proper_graphs(1, 7)] == [[w] for w in range(1, 8)]
