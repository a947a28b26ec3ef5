from __future__ import annotations

import hashlib
import json
import os
import random
import re
import resource
import subprocess
import sys
import tracemalloc
from collections import Counter
from functools import partial
from itertools import islice, permutations, product
from math import factorial, prod
from pathlib import Path

import pytest

import planarity_ht
from planarity_ht import oracle
from planarity_ht.constraints import (
    ReferenceSets,
    _per_gap_edges,
    _selections,
    build_radial_reduced,
    choose_reference_sets,
    gap_edge_classes,
    gap_flagged_edges,
    reference_set_variants,
)
from planarity_ht.corpus import exhaustive_proper_graphs
from planarity_ht.crosscheck import crosscheck_instance
from planarity_ht.drawing import (
    LevelDrawing,
    RadialDrawing,
    _gap_crossing_pairs,
    count_crossings_level,
    count_crossings_radial,
)
from planarity_ht.graphs import LevelGraph
from planarity_ht.iofmt import drawing_to_json
from planarity_ht.oracle import BudgetExceededError, OracleResult, brute_level, brute_radial
from tests.conftest import make_path


def test_path_is_level_planar_in_one_state(path3):
    result = brute_level(path3)
    assert result.planar and result.states_examined == 1
    assert count_crossings_level(result.witness, path3).planar


def test_k22_level_nonplanar_after_four_states(k22):
    result = brute_level(k22)
    assert not result.planar
    assert result.states_examined == 4
    assert result.witness is None


def test_a_graph_with_no_level_is_planar_after_one_state_in_both_modes():
    g = LevelGraph(0, {}, ())
    assert brute_level(g) == OracleResult(True, LevelDrawing({}), 1)
    assert brute_radial(g, ReferenceSets({}, {})) == OracleResult(True, RadialDrawing({}, {}), 1)
    assert choose_reference_sets(g) == (ReferenceSets({}, {}), g)
    assert crosscheck_instance(g) == ([], True, True)


def test_two_disjoint_edges_level_planar():
    g = LevelGraph(2, {"a": 1, "c": 1, "b": 2, "d": 2}, (("a", "b"), ("c", "d")))
    assert brute_level(g).planar


def test_k22_radial_planar(k22):
    refs, aug = choose_reference_sets(k22)
    result = brute_radial(aug, refs)
    assert result.planar
    assert count_crossings_radial(result.witness, aug, refs).planar


def test_radial_oracle_refuses_invalid_reference_sets_as_the_system_builder_does():
    g = LevelGraph(2, {"a": 1, "b": 1, "c": 2, "d": 2}, (("a", "c"), ("b", "d")))
    refused = [
        (ReferenceSets({1: "a", 2: "d"}, {1: "a", 2: "d"}), "reference edge ('a', 'd') missing from graph"),
        (ReferenceSets({1: "a"}, {1: "a"}), "level 2 has no plus anchor; level 2 has no minus anchor"),
        (ReferenceSets({1: "a", 2: "c"}, {1: "b", 2: "c"}), "anchors on level 1 must coincide"),
        (ReferenceSets({1: "b", 2: "c"}, {1: "b", 2: "d"}), "anchors on level 2 must coincide"),
    ]
    for refs, problem in refused:
        for build in (brute_radial, build_radial_reduced):
            with pytest.raises(ValueError, match=rf"^invalid reference sets: {re.escape(problem)}$"):
                build(g, refs)


def test_budget_exceeded(k22):
    with pytest.raises(BudgetExceededError):
        brute_level(k22, budget=3)
    refs, aug = choose_reference_sets(k22)
    with pytest.raises(BudgetExceededError):
        brute_radial(aug, refs, budget=1)


def test_path_radial_planar(path3):
    refs, aug = choose_reference_sets(path3)
    result = brute_radial(aug, refs)
    assert result.planar


def test_level_planar_implies_radial_planar_on_sample():
    for g in exhaustive_proper_graphs(2, 3, cap=60):
        if brute_level(g).planar:
            refs, aug = choose_reference_sets(g)
            assert brute_radial(aug, refs).planar


def test_radial_decision_invariant_under_reference_choice():
    for g in exhaustive_proper_graphs(2, 3, cap=60):
        decisions = {
            brute_radial(aug, refs).planar for refs, aug in reference_set_variants(g)
        }
        assert len(decisions) == 1


def test_oracle_invariant_under_relabeling():
    rng = random.Random(13)
    for g in exhaustive_proper_graphs(2, 3, cap=25):
        names = list(g.level)
        shuffled = names[:]
        rng.shuffle(shuffled)
        rename = dict(zip(names, shuffled))
        h = LevelGraph(
            g.k,
            {rename[v]: lv for v, lv in g.level.items()},
            tuple(sorted((rename[u], rename[v]) for u, v in g.edges)),
        )
        assert brute_level(g).planar == brute_level(h).planar
        refs_g, aug_g = choose_reference_sets(g)
        refs_h, aug_h = choose_reference_sets(h)
        assert brute_radial(aug_g, refs_g).planar == brute_radial(aug_h, refs_h).planar


def test_witness_reverification():
    for g in exhaustive_proper_graphs(2, 2, cap=30):
        result = brute_level(g)
        if result.planar:
            assert count_crossings_level(result.witness, g).planar
        refs, aug = choose_reference_sets(g)
        radial = brute_radial(aug, refs)
        if radial.planar:
            assert count_crossings_radial(radial.witness, aug, refs).planar


def test_long_path_planar_both_modes():
    # 3,000 levels: the search walks the levels without recursion, so a deep
    # graph raises no RecursionError; the first state is crossing-free
    for k in (6, 3000):
        g = make_path(k)
        refs, aug = choose_reference_sets(g)
        for result in (brute_level(g), brute_radial(aug, refs)):
            assert result.planar and result.states_examined == 1


def _late_conflict(k, w):
    """k levels of w vertices, one edge in each of the lower k - 2 gaps, and a
    K3,3 between three vertices of level k - 1 and three of level k: every
    state fails only in the top gap, so the search backs off every level."""
    names = {i: [f"{chr(96 + i)}{j}" for j in range(1, w + 1)] for i in range(1, k + 1)}
    edges = [(names[i][0], names[i + 1][0]) for i in range(1, k - 1)]
    edges += [(u, v) for u in names[k - 1][:3] for v in names[k][:3]]
    return LevelGraph(k, {v: i for i, vs in names.items() for v in vs}, tuple(edges))


def _runs(g):
    """Each oracle run on g as (graph searched, reference sets or None, pinned
    vertices per level, result thunk): level mode, then radial mode under each
    reference selection."""
    yield g, None, 0, lambda: brute_level(g)
    for refs, aug in reference_set_variants(g):
        yield aug, refs, 1, lambda refs=refs, aug=aug: brute_radial(aug, refs)


def test_each_level_order_is_searched_at_most_once(monkeypatch):
    # an order with no crossing-free completion above it is never searched
    # again, so the gap rule reads each pair of adjacent orders at most once
    # per flag setting: at most sum_i |O_i| |O_i+1| 2^f_i reads, where the
    # full count is prod_i |O_i| times 2^(sum_i f_i)
    calls = 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return _gap_crossing_pairs(*args)

    monkeypatch.setattr(oracle, "_gap_crossing_pairs", counting)

    def within_bound(g, refs, pinned, run):
        nonlocal calls
        orders = [factorial(len(g.on_level(i)) - pinned) for i in range(1, g.k + 1)]
        flags = [len(gap_flagged_edges(gap_edge_classes(g, refs, i))) for i in range(1, g.k)]
        bound = sum(a * b * 2 ** f for a, b, f in zip(orders, orders[1:], flags))
        calls = 0
        result = run()
        assert calls <= bound, (calls, bound)
        return result, prod(orders) * 2 ** sum(flags)

    # a search that searches dead orders again reads the gap rule 1,548
    # (level) and 268 (radial) times on 4x3, 9,324 and 540 on 5x3, and
    # 8,308,800 in level mode on 5x4
    for k, w in ((4, 3), (5, 3), (5, 4)):
        g = _late_conflict(k, w)
        for run in _runs(g):
            result, full = within_bound(*run)
            assert not result.planar and result.states_examined == full
    for g in islice(exhaustive_proper_graphs(3, 3), 0, None, 25):
        for run in _runs(g):
            within_bound(*run)


def _reference_level(g):
    """Every combination of linear orders, each judged by its full crossing report."""
    states = 0
    for combo in product(*(permutations(g.on_level(i)) for i in range(1, g.k + 1))):
        states += 1
        d = LevelDrawing({i + 1: order for i, order in enumerate(combo)})
        if count_crossings_level(d, g).planar:
            return True, d, states
    return False, None, states


def _reference_radial(g, refs):
    """Every cyclic order (smallest vertex first) and flag combination, judged the same way."""
    flagged = []
    for i in range(1, g.k):
        _, _, plus_adj, minus_adj = gap_edge_classes(g, refs, i)
        flagged.extend(plus_adj + minus_adj)
    levels = [g.on_level(i) for i in range(1, g.k + 1)]
    cyclic = [[(vs[0], *rest) for rest in permutations(vs[1:])] for vs in levels]
    states = 0
    for combo in product(*cyclic):
        for bits in product((False, True), repeat=len(flagged)):
            states += 1
            d = RadialDrawing({i + 1: order for i, order in enumerate(combo)}, dict(zip(flagged, bits)))
            if count_crossings_radial(d, g, refs).planar:
                return True, d, states
    return False, None, states


def _answer(result):
    return result.planar, result.witness, result.states_examined


def test_oracles_match_a_plain_enumeration():
    for g in exhaustive_proper_graphs(2, 3, cap=60):
        assert _answer(brute_level(g)) == _reference_level(g)
        refs, aug = choose_reference_sets(g)
        assert _answer(brute_radial(aug, refs)) == _reference_radial(aug, refs)
    # every 25th graph of the 3x3 corpus, every reference-set variant: these
    # reach non-planar answers, flags in gap 2 and witnesses late in the last
    # level's order, which the 2x3 sample above does not
    seen = Counter()
    for g in islice(exhaustive_proper_graphs(3, 3), 0, None, 25):
        last = g.on_level(g.k)
        result = brute_level(g)
        assert _answer(result) == _reference_level(g)
        seen["level nonplanar"] += not result.planar
        if result.planar and g.k == 3 and len(last) > 1:
            # the last level's last order is its reversed vertex list
            seen["level late"] += result.witness.orders[3] == last[::-1]
        for refs, aug in reference_set_variants(g):
            result = brute_radial(aug, refs)
            assert _answer(result) == _reference_radial(aug, refs)
            seen["radial nonplanar"] += not result.planar
            if result.planar and g.k == 3:
                _, _, plus_adj, minus_adj = gap_edge_classes(aug, refs, 2)
                seen["radial gap-2 flag set"] += any(result.witness.left_flag[e] for e in plus_adj + minus_adj)
                if len(last) > 2:
                    seen["radial late"] += result.witness.cyclic[3] == (last[0], *last[:0:-1])
    assert all(seen[case] for case in ("level nonplanar", "level late", "radial nonplanar",
                                       "radial gap-2 flag set", "radial late")), seen
    # the 3x3 corpus (k <= 3) skips dead orders on level 2 only; these skip
    # them on levels 2 to k - 1
    for k in (4, 5):
        g = _late_conflict(k, 3)
        assert _answer(brute_level(g)) == _reference_level(g)
        for refs, aug in reference_set_variants(g):
            assert _answer(brute_radial(aug, refs)) == _reference_radial(aug, refs)


def test_budget_is_checked_before_any_order_is_built():
    # one level of 13 vertices has 13! linear and 12! cyclic orders; listing
    # them would take tens of GB, so the check runs in a child process capped
    # at 1 GiB of address space and 20 s
    script = """
from planarity_ht.constraints import choose_reference_sets
from planarity_ht.graphs import LevelGraph
from planarity_ht.oracle import BudgetExceededError, OracleResult, brute_level, brute_radial
g = LevelGraph(1, {f"v{j:02}": 1 for j in range(13)}, ())
refs, aug = choose_reference_sets(g)
for run in (lambda: brute_level(g, budget=1000), lambda: brute_radial(aug, refs, budget=1000)):
    try:
        run()
    except BudgetExceededError as exc:
        print(exc)
"""

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=str(Path(planarity_ht.__file__).resolve().parent.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                          timeout=20, preexec_fn=cap_memory)
    assert done.returncode == 0, done.stderr
    assert done.stdout == ("enumeration needs 6227020800 states, budget is 1000\n"
                           "enumeration needs 479001600 states, budget is 1000\n")


def test_a_wide_level_is_searched_without_listing_its_orders():
    # an edgeless level of 9 vertices is crossing-free in its first order;
    # listing its 9! linear (8! cyclic) orders would take tens of MiB
    g = LevelGraph(1, {f"v{j}": 1 for j in range(9)}, ())
    refs, aug = choose_reference_sets(g)
    for run in (lambda: brute_level(g), lambda: brute_radial(aug, refs)):
        tracemalloc.start()
        try:
            result = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.planar and result.states_examined == 1
        assert peak < 1 << 20, peak


def test_the_oracles_answers_on_the_3x3_corpus_are_pinned():
    # every oracle call of the exhaustive 3x3 corpus, level mode and radial
    # mode under the smallest-edge and, where it differs, the largest-edge
    # reference selection, hashed as (planar, states_examined, witness JSON):
    # a refactor of the search or of the crossing rules must keep each
    # answer, its rank and its witness
    digest, calls = hashlib.sha256(), 0
    per_gap = [_per_gap_edges, partial(_per_gap_edges, pick=max)]
    for g in exhaustive_proper_graphs(3, 3):
        results = [brute_level(g), *(brute_radial(aug, refs) for refs, aug in _selections(g, per_gap))]
        for result in results:
            witness = None if result.witness is None else drawing_to_json(result.witness)
            digest.update(json.dumps([result.planar, result.states_examined, witness], sort_keys=True).encode())
            digest.update(b"\n")
            calls += 1
    assert calls == 18_867
    assert digest.hexdigest() == "649d586a381ee7069299aa0ada7ab92a53aead743627f3bf0e56daac7a3219a7"
