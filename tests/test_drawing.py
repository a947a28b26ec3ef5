from __future__ import annotations

import random
import re
from itertools import combinations, islice, permutations

import pytest

from planarity_ht.constraints import (
    FlagVar,
    PairVar,
    TripleVar,
    build_level_reduced,
    build_radial_reduced,
    choose_reference_sets,
    evaluate,
)
from planarity_ht.corpus import (
    exhaustive_proper_graphs,
    random_level_drawing,
    random_proper_graph,
    random_radial_drawing,
)
from planarity_ht import drawing
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
    gap_crossing_pairs_level,
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
from planarity_ht.pipeline import solve_reduced, stage_context


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


def _lacks_flag(e) -> str:
    return re.escape(f"drawing lacks a left flag for reference-adjacent edge {e}")


def test_a_radial_drawing_missing_a_left_flag_is_refused():
    aug, refs = _radial_fixture()
    d = RadialDrawing({1: ("a", "u", "w"), 2: ("v", "y", "x")}, {("a", "x"): False, ("u", "v"): True})
    count_crossings_radial(d, aug, refs)  # every flag present: no error
    del d.left_flag[("u", "v")]
    with pytest.raises(ValueError, match=_lacks_flag(("u", "v"))):
        count_crossings_radial(d, aug, refs)
    # a witness of the subdivision G+, checked against the context's gap classes
    ctx = make_radial_context(aug, refs)
    witness = drawing_from_assignment_radial(lift_assignment_radial(solve_reduced(ctx.system), ctx), ctx)
    assert star_report_radial(witness, ctx).ht_violations == []
    last = list(witness.left_flag)[-1]
    del witness.left_flag[last]
    with pytest.raises(ValueError, match=_lacks_flag(last)):
        star_report_radial(witness, ctx)


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
    with pytest.raises(NotHananiTutteError) as exc:
        assignment_from_drawing_level(broken, ctx)
    assert (exc.value.pair, exc.value.count) == ((min(az, by), max(az, by)), 1)


def _repairs_copy_the_limits(d: LevelDrawing, ctx) -> int:
    """The paper's limit characterization, kept as a reference: each repaired
    pair x(p,q) of two star-edge points equals the raw order at the pair's
    limit, the bottom of the window the two star edges share when they are
    independent or share a head, its top when they share a tail.  A pair with
    a bot or top copy keeps its raw order.  Returns how many pairs differ
    from their raw order."""
    phi_plus, _ = assignment_from_drawing_level(d, ctx)
    psi = induced_pair_assignment(d)
    pg, star_level = ctx.pg, ctx.star_form.star.level
    repaired = 0
    for var, value in phi_plus.items():
        e, f = pg.prov.vertex_origin.get(var.u), pg.prov.vertex_origin.get(var.w)
        if e is None or f is None:
            assert value == psi[var]
            continue
        if e[0] == f[0]:
            lv = min(star_level[e[1]], star_level[f[1]])
        else:
            lv = max(star_level[e[0]], star_level[f[0]])
        assert value == psi[PairVar(pg.point_at(e, lv), pg.point_at(f, lv))], (var, e, f, lv)
        repaired += value != psi[var]
    return repaired


def test_repaired_pairs_equal_the_raw_order_at_their_limits():
    _, ctx, d, _, _ = _double_crossing_drawing()
    assert _repairs_copy_the_limits(d, ctx) > 0
    # level witnesses that carry crossings
    rng = random.Random(13)
    witnesses = repaired = 0
    while witnesses < 6:
        g = random_proper_graph(rng, max_levels=4, max_width=3)
        ctx = make_level_context(g)
        phi = solve_reduced(ctx.system)
        if phi is None:
            continue
        d = drawing_from_assignment_level(lift_assignment_level(phi, ctx), ctx)
        if star_report_level(d, ctx).planar:
            continue
        repaired += _repairs_copy_the_limits(d, ctx)
        witnesses += 1
    assert repaired > 0


def _counting_gap_rule(monkeypatch, name: str, gap_arg: int) -> list[int]:
    """Record the gap, argument `gap_arg`, of every call to the drawing module's crossing rule `name`."""
    gaps: list[int] = []
    rule = getattr(drawing, name)

    def counted(*args):
        gaps.append(args[gap_arg])
        return rule(*args)

    monkeypatch.setattr(drawing, name, counted)
    return gaps


def test_each_back_conversion_runs_each_gap_rule_once(monkeypatch):
    _, ctx, d, _, _ = _double_crossing_drawing()
    gaps = _counting_gap_rule(monkeypatch, "gap_crossing_pairs_level", 2)
    assignment_from_drawing_level(d, ctx)
    assert gaps == list(range(1, ctx.pg.graph.k))

    aug, refs = _radial_fixture()
    ctx = make_radial_context(aug, refs)
    d = drawing_from_assignment_radial(lift_assignment_radial(solve_reduced(ctx.system), ctx), ctx)
    gaps = _counting_gap_rule(monkeypatch, "_gap_crossing_pairs_radial", 1)
    assignment_from_drawing_radial(d, ctx)
    assert gaps == list(range(1, ctx.pg.graph.k))


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
        origin = ctx.segment_origin
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


# ---------------------------------------------------------------------------
# Whole drawings read through one position table; the realizers' point reads

MODES = {"level": (lift_assignment_level, drawing_from_assignment_level, star_report_level),
         "radial": (lift_assignment_radial, drawing_from_assignment_radial, star_report_radial)}


def _corpus_witnesses(step: int = 1):
    """(mode, stage context, lift, witness) for every `step`-th graph of the
    exhaustive 3x3 corpus, in each mode it is planar in."""
    for g in islice(exhaustive_proper_graphs(3, 3), 0, None, step):
        for mode, (lift, realize, _) in MODES.items():
            ctx = stage_context(g, mode)
            phi = solve_reduced(ctx.system)
            if phi is not None:
                lifted = lift(phi, ctx)
                yield mode, ctx, lifted, realize(lifted, ctx)


def _reference_count(d, g: LevelGraph, rule, origin=None):
    """The crossing count of the per-gap rule reading the drawing itself,
    after a cover check that sorts each level's order."""
    orders = d.orders if isinstance(d, LevelDrawing) else d.cyclic
    problems = [f"level {i} order is not a permutation of the level's vertices"
                for i in range(1, g.k + 1) if sorted(orders.get(i, ())) != list(g.on_level(i))]
    if problems:
        raise ValueError("; ".join(problems))
    return drawing._count_crossings(g, lambda i: rule(d, i), origin)


def _reference_star_report(d, ctx):
    g = ctx.pg.graph
    if isinstance(d, LevelDrawing):
        return _reference_count(d, g, lambda d, i: gap_crossing_pairs_level(d, g, i), ctx.segment_origin)
    classes = ctx.plus_gap_classes
    return _reference_count(d, g, lambda d, i: drawing._flagged_gap_pairs_radial(d, i, classes[i]),
                            ctx.segment_origin)


def _outcome(count, *args):
    """A report as its pair counts in listing order, its violations and its
    planarity, or the refusal's message."""
    try:
        report = count(*args)
    except ValueError as exc:
        return f"ValueError: {exc}"
    return list(report.per_pair.items()), report.ht_violations, report.planar


def _with(d, orders=None, flags=None):
    """d with its orders and, in radial mode, its flags replaced."""
    if isinstance(d, LevelDrawing):
        return LevelDrawing(d.orders if orders is None else orders)
    return RadialDrawing(d.cyclic if orders is None else orders, d.left_flag if flags is None else flags)


def _corrupted(rng: random.Random, d):
    """Copies of d with crossings added (a level shuffled, in radial mode some
    flags flipped), and copies that no longer draw the graph: a level, a
    vertex or a flag missing, a vertex listed twice, two vertices swapped
    across levels."""
    orders = d.orders if isinstance(d, LevelDrawing) else d.cyclic
    flags = getattr(d, "left_flag", {})
    wide = [i for i, order in orders.items() if len(order) > 1]
    i = rng.choice(wide)
    shuffled = list(orders[i])
    rng.shuffle(shuffled)
    crossing = [_with(d, {**orders, i: tuple(shuffled)})]
    if flags:
        crossing.append(_with(d, flags={e: b != (rng.random() < 0.3) for e, b in flags.items()}))
    j, k = rng.sample(sorted(orders), 2)
    refused = [
        _with(d, {lv: order for lv, order in orders.items() if lv != j}),
        _with(d, {**orders, j: orders[j][1:]}),
        _with(d, {**orders, j: orders[j] + orders[j][:1]}),
        _with(d, {**orders, j: (orders[k][0], *orders[j][1:]), k: (orders[j][0], *orders[k][1:])}),
    ]
    if flags:
        dropped = rng.choice(sorted(flags))
        refused.append(_with(d, flags={e: b for e, b in flags.items() if e != dropped}))
    return crossing, refused


def test_verification_equals_the_per_gap_rules_reading_the_drawing():
    """`star_report_*` reads one position table per drawing; it must report
    what the per-gap rules report reading the drawing itself, refusals included."""
    rng = random.Random(53)
    witnesses = crossing = violated = refused = 0
    for mode, ctx, _, d in _corpus_witnesses():
        report = MODES[mode][2]
        assert _outcome(report, d, ctx) == _outcome(_reference_star_report, d, ctx)
        witnesses += 1
        if witnesses % 20 or ctx.pg.graph.k < 2 or max(ctx.pg.graph.widths()) < 2:
            continue
        bent, broken = _corrupted(rng, d)
        for c in bent:
            outcome = _outcome(report, c, ctx)
            assert outcome == _outcome(_reference_star_report, c, ctx)
            crossing += 1
            violated += bool(outcome[1])
        for c in broken:
            outcome = _outcome(report, c, ctx)
            assert outcome.startswith("ValueError")
            assert outcome == _outcome(_reference_star_report, c, ctx)
            refused += 1
    assert witnesses > 7000 and crossing > 500 and refused > 1500
    assert 0 < violated < crossing


def test_counting_equals_the_per_gap_rules_reading_the_drawing():
    """`count_crossings_*` read drawings of the input through the same view."""
    rng = random.Random(59)
    for _ in range(150):
        g = random_proper_graph(rng, max_levels=4, max_width=4, edge_density=0.6)
        refs, aug = choose_reference_sets(g)
        cases = [(random_level_drawing(rng, g), g, lambda d: count_crossings_level(d, g),
                  lambda d, i: gap_crossing_pairs_level(d, g, i)),
                 (random_radial_drawing(rng, aug, refs), aug, lambda d: count_crossings_radial(d, aug, refs),
                  lambda d, i: gap_crossing_pairs_radial(d, aug, refs, i))]
        for d, h, count, rule in cases:
            bent, broken = _corrupted(rng, d) if h.k > 1 and max(h.widths()) > 1 else ([], [])
            for c in (d, *bent, *broken):
                assert _outcome(count, c) == _outcome(_reference_count, c, h, rule)


def test_realizers_read_a_lift_and_a_plain_mapping_alike():
    """A lifted assignment is realized through its point reads, any other
    mapping through variable objects; both must give the same drawing."""
    drawn = {"level": 0, "radial": 0}
    for mode, ctx, lifted, d in _corpus_witnesses(step=15):
        plain = {v: lifted[v] for v in ctx.plus_system.variables}
        assert MODES[mode][1](plain, ctx) == d
        drawn[mode] += 1
    assert min(drawn.values()) > 100


def test_a_lift_refuses_every_key_that_is_no_variable():
    g = LevelGraph(2, {"a": 1, "b": 1, "c": 1, "x": 2, "y": 2}, (("a", "x"), ("b", "y"), ("c", "y")))
    ctx = make_level_context(g)
    lifted = lift_assignment_level(solve_reduced(ctx.system), ctx)
    level = ctx.pg.graph.level
    x, y = next(vs for vs in ctx.pg.graph.by_level.values() if len(vs) > 1)[:2]
    z = next(v for v in level if level[v] != level[x])
    assert lifted[PairVar(x, y)] in (False, True)
    for key in (PairVar(x, x), PairVar(x, z), PairVar(x, "nowhere"), TripleVar(x, y, x), FlagVar(x, z), "a"):
        with pytest.raises(KeyError):
            lifted[key]
        assert key not in lifted

    aug, refs = _radial_fixture()
    ctx = make_radial_context(aug, refs)
    lifted = lift_assignment_radial(solve_reduced(ctx.system), ctx)
    pg = ctx.pg.graph
    j = next(i for i in range(1, pg.k + 1) if len(pg.on_level(i)) >= 3)
    a = ctx.plus_refs.anchors(j)[0]
    outsider = next(w for w in pg.on_level(j) if w not in ctx.plus_refs.anchors(j))
    u = next(w for w in pg.on_level(j) if w not in (a, outsider))
    other = next(w for w in pg.level if pg.level[w] != j)
    flagged = ctx.plus_flagged[0]
    assert lifted[TripleVar(a, u, outsider)] in (False, True) and lifted[FlagVar(*flagged)] in (False, True)
    unflagged = next(e for e in pg.edges if e not in ctx.plus_flagged)
    for key in (TripleVar(a, u, u), TripleVar(a, a, u), TripleVar(a, u, other), TripleVar(outsider, a, u),
                TripleVar("nowhere", u, a), PairVar(u, a), FlagVar(*unflagged), "a"):
        with pytest.raises(KeyError):
            lifted[key]
        assert key not in lifted
