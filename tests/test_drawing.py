from __future__ import annotations

import random
from itertools import combinations, permutations

import pytest

from planarity_ht.constraints import (
    PairVar,
    build_level_reduced,
    build_radial_reduced,
    choose_reference_sets,
    evaluate,
)
from planarity_ht.corpus import (
    random_level_drawing,
    random_proper_graph,
    random_radial_drawing,
)
from planarity_ht.drawing import (
    LevelDrawing,
    NotHananiTutteError,
    RadialDrawing,
    assignment_from_drawing_level,
    assignment_from_drawing_radial,
    count_crossings_level,
    count_crossings_radial,
    drawing_from_assignment_level,
    drawing_from_assignment_radial,
    gap_crossing_pairs_radial,
    induced_pair_assignment,
    induced_radial_assignment,
    lift_assignment_level,
    lift_assignment_radial,
    make_level_context,
    make_radial_context,
    star_report_level,
    star_report_radial,
)
from planarity_ht.graphs import LevelGraph, critical_pairs, independent, limits
from planarity_ht.pipeline import solve_reduced


def test_parallel_edges_do_not_cross():
    g = LevelGraph(2, {"a": 1, "b": 1, "c": 2, "d": 2}, (("a", "c"), ("b", "d")))
    d = LevelDrawing({1: ("a", "b"), 2: ("c", "d")})
    assert count_crossings_level(d, g).planar


def test_inverted_edges_cross_once():
    g = LevelGraph(2, {"a": 1, "b": 1, "c": 2, "d": 2}, (("a", "c"), ("b", "d")))
    d = LevelDrawing({1: ("a", "b"), 2: ("d", "c")})
    report = count_crossings_level(d, g)
    assert report.count(("a", "c"), ("b", "d")) == 1
    assert report.ht_violations == [(("a", "c"), ("b", "d"))]


def test_k22_every_order_combination_has_one_crossing(k22):
    for o1 in permutations(("a1", "b1")):
        for o2 in permutations(("a2", "b2")):
            report = count_crossings_level(LevelDrawing({1: o1, 2: o2}), k22)
            assert report.total() == 1


def test_adjacent_edges_never_cross_in_level_model():
    g = LevelGraph(2, {"a": 1, "b": 2, "c": 2}, (("a", "b"), ("a", "c")))
    for o2 in permutations(("b", "c")):
        assert count_crossings_level(LevelDrawing({1: ("a",), 2: o2}), g).planar


def test_matching_crossing_total_equals_inversion_count():
    # on two levels with all endpoints distinct, total crossings = inversions
    # of the head sequence read in tail order
    rng = random.Random(53)
    for _ in range(30):
        n = rng.randint(2, 6)
        tails = [f"t{i}" for i in range(n)]
        heads = [f"h{i}" for i in range(n)]
        targets = heads[:]
        rng.shuffle(targets)
        g = LevelGraph(
            2,
            {**{t: 1 for t in tails}, **{h: 2 for h in heads}},
            tuple(zip(tails, targets)),
        )
        o1, o2 = tails[:], heads[:]
        rng.shuffle(o1)
        rng.shuffle(o2)
        d = LevelDrawing({1: tuple(o1), 2: tuple(o2)})
        pos2 = {h: p for p, h in enumerate(o2)}
        edge_of_tail = dict(zip(tails, targets))
        seq = [pos2[edge_of_tail[t]] for t in o1]
        inversions = sum(
            1 for i in range(n) for j in range(i + 1, n) if seq[i] > seq[j]
        )
        assert count_crossings_level(d, g).total() == inversions


# ---------------------------------------------------------------------------
# Radial crossing model


def _radial_fixture():
    g = LevelGraph(
        2,
        {"a": 1, "u": 1, "w": 1, "x": 2, "v": 2, "y": 2},
        (("a", "x"), ("a", "v"), ("u", "v"), ("w", "x"), ("u", "y")),
    )
    refs, aug = choose_reference_sets(g)
    assert refs.reference_edge(1) == ("a", "v")
    return aug, refs


def test_equal_linearizations_no_crossing():
    aug, refs = _radial_fixture()
    d = RadialDrawing(
        {1: ("a", "u", "w"), 2: ("v", "y", "x")},
        {("a", "x"): False, ("u", "v"): True},
    )
    # plain edges (u,y) and (w,x): tails u before w, heads y before x -> no crossing
    pairs = gap_crossing_pairs_radial(d, aug, refs, 1)
    assert (("u", "y"), ("w", "x")) not in pairs and (("w", "x"), ("u", "y")) not in pairs


def test_plus_and_minus_adjacent_edges_cross_iff_flags_equal():
    aug, refs = _radial_fixture()
    for fe in (False, True):
        for ff in (False, True):
            d = RadialDrawing(
                {1: ("a", "u", "w"), 2: ("v", "y", "x")},
                {("a", "x"): fe, ("u", "v"): ff},
            )
            pairs = gap_crossing_pairs_radial(d, aug, refs, 1)
            crossed = (("a", "x"), ("u", "v")) in pairs or (("u", "v"), ("a", "x")) in pairs
            assert crossed == (fe == ff)


def test_reference_edge_never_listed_as_crossing():
    aug, refs = _radial_fixture()
    rng = random.Random(2)
    eps = refs.reference_edge(1)
    for _ in range(20):
        d = random_radial_drawing(rng, aug, refs)
        for e, f in gap_crossing_pairs_radial(d, aug, refs, 1):
            assert eps not in (e, f)
            assert independent(e, f)


def test_radial_k22_oracle_witness_counts_zero(k22):
    from planarity_ht.oracle import brute_radial

    refs, aug = choose_reference_sets(k22)
    witness = brute_radial(aug, refs).witness
    assert count_crossings_radial(witness, aug, refs).planar


# ---------------------------------------------------------------------------
# Consistent limits: crossing parity of a critical pair equals limit agreement


def _limit_parity_agrees(g: LevelGraph, rng: random.Random, samples: int = 10) -> None:
    star_ctx = make_level_context(g)
    pg = star_ctx.pg
    star = star_ctx.star_form.star
    crits = critical_pairs(star)
    plus_proper = pg.graph
    for _ in range(samples):
        d = random_level_drawing(rng, plus_proper)
        psi = induced_pair_assignment(d)
        report = star_report_level(d, star_ctx)
        for pair in crits:
            lim = limits(pair, plus_proper, pg.prov)
            even = report.count(pair.e, pair.f) % 2 == 0
            agree = psi[PairVar(lim.e_low, lim.f_low)] == psi[PairVar(lim.e_high, lim.f_high)]
            assert even == agree


def test_crossing_parity_equals_limit_agreement():
    rng = random.Random(21)
    for _ in range(15):
        g = random_proper_graph(rng, max_levels=3, max_width=3)
        _limit_parity_agrees(g, rng, samples=5)


# ---------------------------------------------------------------------------
# Level conversions


def test_assignment_from_planar_single_edge_drawing():
    g = LevelGraph(2, {"u": 1, "v": 2}, (("u", "v"),))
    ctx = make_level_context(g)
    d = LevelDrawing({i: tuple(ctx.pg.graph.on_level(i)) for i in range(1, ctx.pg.graph.k + 1)})
    phi_plus, phi = assignment_from_drawing_level(d, ctx)
    assert phi == {}
    assert evaluate(build_level_reduced(ctx.pg.graph), phi_plus) == []


def _double_crossing_drawing():
    """A drawing where two independent edge images swap twice and nothing else crosses."""
    g = LevelGraph(2, {"a": 1, "b": 1, "c": 1, "x": 2, "y": 2, "z": 2},
                   (("a", "z"), ("b", "y")))
    ctx = make_level_context(g)
    sf, pg = ctx.star_form, ctx.pg
    az = sf.star_edge[("a", "z")]
    by = sf.star_edge[("b", "y")]
    p = pg.point_at
    sa, sb, sc = (sf.stretch[v] for v in "abc")
    sx, sy, sz = (sf.stretch[v] for v in "xyz")
    orders = {
        1: (p(sa, 1),),
        2: (p(sa, 2), p(sb, 2)),
        3: (p(sa, 3), p(sb, 3), p(sc, 3)),
        4: (p(sa, 4), p(sb, 4), p(sc, 4)),
        5: (p(az, 5), p(sb, 5), p(sc, 5)),
        6: (p(by, 6), p(az, 6), p(sc, 6)),
        7: (p(by, 7), p(az, 7), p(sx, 7)),
        8: (p(az, 8), p(by, 8), p(sx, 8)),
        9: (p(az, 9), p(sy, 9), p(sx, 9)),
        10: (p(sz, 10), p(sy, 10), p(sx, 10)),
        11: (p(sz, 11), p(sy, 11)),
        12: (p(sz, 12),),
    }
    return g, ctx, LevelDrawing(orders), az, by


def test_even_crossing_drawing_repairs_assignment():
    g, ctx, d, az, by = _double_crossing_drawing()
    report = star_report_level(d, ctx)
    assert report.count(az, by) == 2
    assert not report.planar
    assert report.ht_violations == []
    phi_plus, phi = assignment_from_drawing_level(d, ctx)
    psi = induced_pair_assignment(d)
    assert any(phi_plus[v] != psi[v] for v in phi_plus), "repair should differ from the raw values"
    assert evaluate(build_level_reduced(ctx.pg.graph), phi_plus) == []
    assert evaluate(build_level_reduced(g), phi) == []


def test_not_hanani_tutte_rejected():
    # undo the second swap of the double-crossing fixture: the image pair now
    # crosses exactly once
    g, ctx, d, az, by = _double_crossing_drawing()
    orders = dict(d.orders)
    p = ctx.pg.point_at
    sx = ctx.star_form.stretch["x"]
    orders[8] = (p(by, 8), p(az, 8), p(sx, 8))
    broken = LevelDrawing(orders)
    report = star_report_level(broken, ctx)
    assert report.count(az, by) == 1
    with pytest.raises(NotHananiTutteError):
        assignment_from_drawing_level(broken, ctx)


def test_lift_rejects_unsatisfying_input(k22):
    ctx = make_level_context(k22)
    system = build_level_reduced(k22)
    bogus = {v: False for v in system.variables}
    with pytest.raises(Exception):
        lift_assignment_level(bogus, ctx)


def test_lift_of_parallel_paths_satisfies_everything():
    g = LevelGraph(2, {"a": 1, "c": 1, "b": 2, "d": 2}, (("a", "b"), ("c", "d")))
    ctx = make_level_context(g)
    phi = solve_reduced(build_level_reduced(g))
    phi_plus = lift_assignment_level(phi, ctx)
    assert evaluate(build_level_reduced(ctx.pg.graph), phi_plus) == []


def test_drawing_from_assignment_single_subdivision_bit():
    g = LevelGraph(2, {"a": 1, "c": 1, "b": 2, "d": 2}, (("a", "b"), ("c", "d")))
    ctx = make_level_context(g)
    phi = solve_reduced(build_level_reduced(g))
    phi_plus = lift_assignment_level(phi, ctx)
    d = drawing_from_assignment_level(phi_plus, ctx)
    pg = ctx.pg
    for j in range(1, pg.graph.k + 1):
        vs = pg.graph.on_level(j)
        pivot = [v for v in vs if v in ctx.star_form.owner][0]
        pos = d.positions(j)
        for w in vs:
            if w != pivot:
                assert (pos[pivot] < pos[w]) == phi_plus[PairVar(pivot, w)]


def test_level_round_trip_random_instances():
    rng = random.Random(31)
    done = 0
    while done < 25:
        g = random_proper_graph(rng, max_levels=3, max_width=3)
        phi = solve_reduced(build_level_reduced(g))
        if phi is None:
            continue
        ctx = make_level_context(g)
        phi_plus = lift_assignment_level(phi, ctx)
        d = drawing_from_assignment_level(phi_plus, ctx)
        report = star_report_level(d, ctx)
        assert not report.ht_violations
        extracted_plus, extracted = assignment_from_drawing_level(d, ctx)
        assert evaluate(build_level_reduced(ctx.pg.graph), extracted_plus) == []
        assert evaluate(build_level_reduced(g), extracted) == []
        done += 1


# ---------------------------------------------------------------------------
# Radial conversions


def test_radial_round_trip_k22(k22):
    refs, aug = choose_reference_sets(k22)
    ctx = make_radial_context(aug, refs)
    phi = solve_reduced(build_radial_reduced(aug, refs))
    phi_plus = lift_assignment_radial(phi, ctx)
    assert evaluate(build_radial_reduced(ctx.pg.graph, ctx.plus_refs), phi_plus) == []
    d = drawing_from_assignment_radial(phi_plus, ctx)
    report = star_report_radial(d, ctx)
    assert not report.ht_violations
    extracted = assignment_from_drawing_radial(d, ctx)
    assert evaluate(build_radial_reduced(ctx.pg.graph, ctx.plus_refs), extracted) == []


def test_radial_round_trip_random_instances():
    rng = random.Random(37)
    done = 0
    while done < 25:
        g = random_proper_graph(rng, max_levels=3, max_width=4)
        refs, aug = choose_reference_sets(g)
        phi = solve_reduced(build_radial_reduced(aug, refs))
        if phi is None:
            continue
        ctx = make_radial_context(aug, refs)
        phi_plus = lift_assignment_radial(phi, ctx)
        d = drawing_from_assignment_radial(phi_plus, ctx)
        report = star_report_radial(d, ctx)
        assert not report.ht_violations
        assignment_from_drawing_radial(d, ctx)
        done += 1


def test_radial_extraction_of_single_path(path3):
    refs, aug = choose_reference_sets(path3)
    ctx = make_radial_context(aug, refs)
    phi = solve_reduced(build_radial_reduced(aug, refs))
    phi_plus = lift_assignment_radial(phi, ctx)
    d = drawing_from_assignment_radial(phi_plus, ctx)
    assert star_report_radial(d, ctx).planar


def test_extraction_from_planar_drawing_equals_raw_values():
    # with no crossings there are no parity corrections: the extracted values
    # are exactly the clockwise orientations read off the drawing
    g = LevelGraph(2, {"a": 1, "b": 1, "x": 2, "y": 2}, (("a", "x"), ("b", "y")))
    refs, aug = choose_reference_sets(g)
    ctx = make_radial_context(aug, refs)
    phi = solve_reduced(build_radial_reduced(aug, refs))
    phi_plus = lift_assignment_radial(phi, ctx)
    d = drawing_from_assignment_radial(phi_plus, ctx)
    report = star_report_radial(d, ctx)
    if not report.planar:
        pytest.skip("witness happens to carry even crossings; parity branch covered elsewhere")
    extracted = assignment_from_drawing_radial(d, ctx)
    raw = induced_radial_assignment(d, ctx.pg.graph, ctx.plus_refs)
    assert extracted == raw


# ---------------------------------------------------------------------------
# Three monotone paths through a shared window


def _cyclic_triple_clockwise(order: tuple[str, ...], a: str, b: str, c: str) -> bool:
    pos = {v: i for i, v in enumerate(order)}
    n = len(order)
    return (pos[b] - pos[a]) % n < (pos[c] - pos[a]) % n


def test_three_paths_order_agreement_iff_even_pairwise_crossings():
    rng = random.Random(41)
    checked = 0
    for _ in range(60):
        g = random_proper_graph(rng, max_levels=3, max_width=4)
        refs, aug = choose_reference_sets(g)
        ctx = make_radial_context(aug, refs)
        pg = ctx.pg
        d = random_radial_drawing(rng, pg.graph, ctx.plus_refs)
        star = ctx.star_form.star
        cross_by_gap = {
            j: gap_crossing_pairs_radial(d, pg.graph, ctx.plus_refs, j)
            for j in range(1, pg.graph.k)
        }
        origin = ctx.segment_origin()
        edges = sorted(star.edges)
        for e1, e2, e3 in combinations(edges, 3):
            if not (independent(e1, e2) and independent(e1, e3) and independent(e2, e3)):
                continue
            lo = max(star.level[e[0]] for e in (e1, e2, e3))
            hi = min(star.level[e[1]] for e in (e1, e2, e3))
            if lo >= hi:
                continue
            pts_lo = [pg.point_at(e, lo) for e in (e1, e2, e3)]
            pts_hi = [pg.point_at(e, hi) for e in (e1, e2, e3)]
            total = 0
            for j in range(lo, hi):
                for s, t in cross_by_gap[j]:
                    o1, o2 = origin[s], origin[t]
                    if {o1, o2} <= {e1, e2, e3} and o1 != o2:
                        total += 1
            same = _cyclic_triple_clockwise(d.cyclic[lo], *pts_lo) == _cyclic_triple_clockwise(
                d.cyclic[hi], *pts_hi
            )
            assert same == (total % 2 == 0)
            checked += 1
    assert checked > 50
