from __future__ import annotations

import dataclasses
import gc
import json
import random
import sys
import tracemalloc
from itertools import islice

import pytest

from planarity_ht import constraints, crosscheck, drawing, graphs, pipeline, xorsat
from planarity_ht.cli import main
from planarity_ht.constraints import build_level_reduced, build_radial_reduced, choose_reference_sets
from planarity_ht.corpus import exhaustive_proper_graphs, random_proper_graph
from planarity_ht.crosscheck import crosscheck_instance, run_crosscheck
from planarity_ht.graphs import LevelGraph, properize, subdivision_name
from planarity_ht.iofmt import graph_to_json
from planarity_ht.oracle import brute_level, brute_radial
from planarity_ht.pipeline import check_level, check_radial, solve_reduced, stage_context, system_for_stage
from tests.conftest import make_path
from tests.helpers import witness_report


def test_k22_level_nonplanar(k22):
    assert not check_level(k22).planar


def test_k33_nonplanar_in_both_modes():
    k33 = LevelGraph(
        2,
        {f"a{i}": 1 for i in range(3)} | {f"b{i}": 2 for i in range(3)},
        tuple((f"a{i}", f"b{j}") for i in range(3) for j in range(3)),
    )
    assert not check_level(k33).planar
    assert not check_radial(k33).planar
    refs, aug = choose_reference_sets(k33)
    assert not brute_radial(aug, refs).planar


def test_six_cycle_on_two_levels_splits_the_modes():
    # a 6-cycle drawn across two levels needs the circle to close around the
    # center: radial planar but not level planar
    c6 = LevelGraph(
        2,
        {"a": 1, "b": 1, "c": 1, "x": 2, "y": 2, "z": 2},
        (("a", "x"), ("a", "y"), ("b", "y"), ("b", "z"), ("c", "z"), ("c", "x")),
    )
    assert not check_level(c6).planar
    assert check_radial(c6, witness=True).planar


def test_k22_radial_planar_with_witness(k22):
    result = check_radial(k22, witness=True)
    assert result.planar
    assert result.witness is not None
    assert witness_report(k22, result).ht_violations == []


def test_paths_planar_both_modes():
    for k in (1, 2, 5):
        g = make_path(k)
        assert check_level(g, witness=True).planar
        assert check_radial(g, witness=True).planar


def test_improper_input_is_properized_transparently():
    g = LevelGraph(3, {"a": 1, "b": 3, "c": 2}, (("a", "b"),))
    assert check_level(g).planar
    assert check_radial(g).planar


def test_a_witness_result_keeps_its_verified_crossing_count(bench_gen):
    # the result keeps the count, not the report: it must equal the total of
    # the witness verified afresh, and be None wherever no witness is drawn
    planted = [inst.graph for inst in (*bench_gen.witness_instances(3, 6), *bench_gen.decide_instances(3, 6))]
    answers, crossings = set(), 0
    for g in (*planted, *islice(exhaustive_proper_graphs(3, 3), 0, None, 50)):
        for check in (check_level, check_radial):
            assert check(g).witness_crossings is None
            result = check(g, witness=True)
            answers.add(result.planar)
            if result.planar:
                assert result.witness_crossings == witness_report(g, result).total()
                crossings += result.witness_crossings
            else:
                assert result.witness is None and result.witness_crossings is None
    assert answers == {True, False}
    assert crossings > 0


def test_level_witness_passes_verification_on_random_instances():
    rng = random.Random(19)
    planar_seen = 0
    for _ in range(40):
        g = random_proper_graph(rng, max_levels=3, max_width=3)
        result = check_level(g, witness=True)
        if result.planar:
            planar_seen += 1
            assert witness_report(g, result).ht_violations == []
    assert planar_seen > 5


def test_stage_decisions_agree_with_each_other_and_oracle():
    for g in exhaustive_proper_graphs(2, 3, cap=50):
        proper, _ = properize(g)
        sat_g = solve_reduced(build_level_reduced(proper)) is not None
        sat_gp = solve_reduced(system_for_stage(g, "level", "Gplus")) is not None
        assert sat_g == sat_gp == check_level(g).planar == brute_level(proper).planar
        refs, aug = choose_reference_sets(proper)
        sat_rg = solve_reduced(build_radial_reduced(aug, refs)) is not None
        sat_rgp = solve_reduced(system_for_stage(g, "radial", "Gplus")) is not None
        assert sat_rg == sat_rgp == check_radial(g).planar == brute_radial(aug, refs).planar


def test_decision_without_witness_builds_no_subdivision(monkeypatch, k22):
    def refuse(*args):
        raise AssertionError("the subdivision was built for a decision")

    for name in ("build_plus", "build_star_level", "build_star_radial"):
        monkeypatch.setattr(drawing, name, refuse)
    rng = random.Random(4)
    graphs = [k22, make_path(3)] + [random_proper_graph(rng, max_levels=4, max_width=3) for _ in range(20)]
    for g in graphs:
        check_level(g)
        check_radial(g)
    with pytest.raises(AssertionError, match="subdivision"):
        check_radial(k22, witness=True)


def _record_builds(monkeypatch) -> list[tuple]:
    """(graph, reference sets) of every reduced-system build, wherever it is looked up."""
    builds: list[tuple] = []
    for module in (pipeline, drawing, crosscheck, constraints):
        for name in ("build_level_reduced", "build_radial_reduced"):
            build = getattr(module, name, None)
            if build is not None:
                def record(g, *refs, _build=build):
                    builds.append((g, *refs))
                    return _build(g, *refs)
                monkeypatch.setattr(module, name, record)
    return builds


def _witness_cases(k22) -> list[tuple]:
    path = make_path(3)
    return [(check_level, path, "level"), (check_radial, path, "radial"), (check_radial, k22, "radial")]


def test_witness_check_builds_one_system(monkeypatch):
    # the lift answers G+'s bits from G's solution: G+ is built, its system is not
    builds: list[LevelGraph] = []
    for name in ("build_level_reduced", "build_radial_reduced"):
        def record(g, *refs, _build=getattr(drawing, name)):
            builds.append(g)
            return _build(g, *refs)
        monkeypatch.setattr(drawing, name, record)
    g = _staircase(4, 3)
    for check, mode in ((check_level, "level"), (check_radial, "radial")):
        builds.clear()
        assert check(g, witness=True).witness is not None
        assert builds == [stage_context(g, mode).base]


def test_witness_check_builds_the_input_system_once(monkeypatch, k22):
    cases = [(check, g, stage_context(g, mode).base) for check, g, mode in _witness_cases(k22)]
    builds = _record_builds(monkeypatch)
    for check, g, base in cases:
        builds.clear()
        assert check(g, witness=True).witness is not None
        assert sum(b[0] == base for b in builds) == 1
        assert len(builds) == 1


def _staircase(k: int, w: int) -> LevelGraph:
    """k levels of w vertices; vertex j of each level reaches j and j + 1 above it."""
    level = {f"v{i}_{j}": i for i in range(1, k + 1) for j in range(w)}
    edges = tuple((f"v{i}_{j}", f"v{i + 1}_{t}") for i in range(1, k) for j in range(w) for t in (j, j + 1) if t < w)
    return LevelGraph(k, level, edges)


def test_witness_check_builds_no_equation_objects(monkeypatch):
    # systems are integer rows: a satisfied check never spells an equation out
    def refuse(*args):
        raise AssertionError("an equation object was built")

    monkeypatch.setattr(constraints, "XorEquation", refuse)
    g = _staircase(4, 3)
    assert check_level(g, witness=True).witness is not None
    assert check_radial(g, witness=True).witness is not None


def test_a_decision_never_makes_the_row_list(monkeypatch, bench_gen):
    # a decision solves G's system from its row source and counts the rows as it reads them
    def refuse(system):
        raise AssertionError(f"the rows of {system.meta} were made")

    monkeypatch.setattr(constraints.ConstraintSystem, "rows", property(refuse))
    answers = []
    for g in (_staircase(4, 3), *(inst.graph for inst in bench_gen.decide_instances(2, 12))):
        for check in (check_level, check_radial):
            result = check(g)
            assert result.equations > 0
            answers.append(result.planar)
    assert True in answers and False in answers


def test_a_witness_check_and_a_crosscheck_never_make_the_row_list(monkeypatch, bench_gen, k22):
    # a witness holds its systems' runs, which the solves, the lift checks and
    # the round trip read; the flat row list is never made
    def refuse(system):
        raise AssertionError(f"the rows of {system.meta} were made")

    monkeypatch.setattr(constraints.ConstraintSystem, "rows", property(refuse))
    for g in (_staircase(4, 3), *(inst.graph for inst in bench_gen.witness_instances(2, 3))):
        for check in (check_level, check_radial):
            assert check(g, witness=True).witness is not None
    rng = random.Random(5)
    answers = set()
    for g in (k22, _staircase(3, 3), *(random_proper_graph(rng) for _ in range(20))):
        problems, level_planar, radial_planar = crosscheck_instance(g)
        assert problems == []
        answers |= {level_planar, radial_planar}
    assert answers == {True, False}


@pytest.mark.parametrize("check, builder", [(check_level, "build_level_reduced"),
                                            (check_radial, "build_radial_reduced")])
def test_a_witness_check_refuses_a_row_out_of_range_in_the_solve(monkeypatch, check, builder):
    # no row list checks the rows before the solve: the solver checks each
    # index as it reads it, and checks the held rows after a conflict too,
    # so a non-planar answer is not given over a bad row
    real = getattr(drawing, builder)

    def with_a_row_out_of_range(*args):
        system = real(*args)
        runs = system.source.runs
        system.source = xorsat.RowSource(lambda: [*runs(), (False, [((0, system.n), 0)])])
        return system

    monkeypatch.setattr(drawing, builder, with_a_row_out_of_range)
    k33 = LevelGraph(2, {f"a{i}": 1 for i in range(3)} | {f"b{i}": 2 for i in range(3)},
                     tuple((f"a{i}", f"b{j}") for i in range(3) for j in range(3)))
    for g in (_staircase(4, 3), k33):
        with pytest.raises(ValueError, match=r"references an undeclared variable index"):
            check(g, witness=True)


def test_a_level_decision_peaks_far_below_its_rows(bench_gen):
    # planted 3x120: 42,840 variables and 77,395 rows.  Making the row list
    # and solving it peaked at 19.1 MiB; reading the row source, with the
    # consistency rows linked as twins and the union tree held as row
    # indices, at 2.5 MiB on Python 3.10 to 3.13
    g = bench_gen.planted_planar(random.Random(7), [120] * 3, 1.0).graph
    check_level(g)  # the input's own indexes are built outside the trace
    gc.collect()
    tracemalloc.start()
    try:
        result = check_level(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.planar, result.variables, result.equations) == (True, 42840, 77395)
    assert peak < 6 * 2**20


def _count_calls(monkeypatch, name: str) -> list[int]:
    """Count the calls of a constraints function, patched wherever it is looked up."""
    calls = [0]

    def counted(*args, _fn=getattr(constraints, name)):
        calls[0] += 1
        return _fn(*args)

    for module in (constraints, drawing):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counted)
    return calls


def test_a_witness_check_derives_each_table_once(monkeypatch):
    # G's system carries its numbering to the full builders and the lifts, and
    # the radial context splits each gap of G+ once for all its readers
    g = _staircase(4, 3)
    ctx = stage_context(g, "radial")
    classes = _count_calls(monkeypatch, "gap_edge_classes")
    assert check_radial(g, witness=True).witness is not None
    assert classes[0] == (ctx.base.k - 1) + (ctx.pg.graph.k - 1)
    for name, check, build_full in (("pair_numbering", check_level, lambda: constraints.build_level_full(g)),
                                    ("_triple_blocks", check_radial,
                                     lambda: constraints.build_radial_full(ctx.base, ctx.refs))):
        calls = _count_calls(monkeypatch, name)
        assert check(g, witness=True).witness is not None
        assert calls[0] == 1
        calls[0] = 0
        build_full()
        assert calls[0] == 1


def test_a_witness_check_properizes_only_its_input(monkeypatch):
    # build_plus subdivides the star form itself, so graphs.properize,
    # patched wherever the package looks it up, runs once: on the input
    properized = []

    def counted(g, _properize=graphs.properize):
        properized.append(g)
        return _properize(g)

    sites = [module for name, module in sys.modules.items()
             if name.partition(".")[0] == "planarity_ht" and getattr(module, "properize", None) is graphs.properize]
    for module in sites:
        monkeypatch.setattr(module, "properize", counted)
    g = make_path(3).with_edges([("p1", "p3")])
    for check in (check_level, check_radial):
        properized.clear()
        result = check(g, witness=True)
        assert result.witness is not None and result.witness_crossings == 0
        assert properized == [g]


def test_each_reference_selection_is_checked_once_per_graph(monkeypatch):
    # a selection found valid is recorded as checked against its graph; the
    # builders and the oracle skip the second scan, for G's selections and G+'s
    g = _staircase(3, 3)
    calls = _count_calls(monkeypatch, "validate_reference_sets")
    for run, scans in ((lambda: check_radial(g), 1), (lambda: check_radial(g, witness=True), 2),
                       (lambda: crosscheck_instance(g), len(constraints.reference_set_variants(g)) + 1)):
        calls[0] = 0
        run()
        assert calls[0] == scans
    # a selection from outside is validated once per graph, and refused while invalid
    refs, aug = choose_reference_sets(g)
    outside = constraints.ReferenceSets(dict(refs.alpha_plus), dict(refs.alpha_minus), refs.inserted)
    other = LevelGraph(aug.k, dict(aug.level), aug.edges)
    calls[0] = 0
    for graph in (aug, aug, other):
        build_radial_reduced(graph, outside)
        brute_radial(graph, outside)
    assert calls[0] == 2
    invalid = constraints.ReferenceSets({**refs.alpha_plus, 2: "nowhere"}, refs.alpha_minus)
    for _ in range(2):
        with pytest.raises(ValueError, match="invalid reference sets"):
            build_radial_reduced(aug, invalid)
    assert calls[0] == 4


def test_checks_create_no_variable_object_of_the_input_system(monkeypatch):
    # a system holds its variable count and spells its variables only on demand
    def refuse(*args):
        raise AssertionError("a variable object was built")

    for name in ("PairVar", "TripleVar", "FlagVar"):
        monkeypatch.setattr(constraints, name, refuse)
    k33 = LevelGraph(2, {f"a{i}": 1 for i in range(3)} | {f"b{i}": 2 for i in range(3)},
                     tuple((f"a{i}", f"b{j}") for i in range(3) for j in range(3)))
    for g, planar in ((k33, False), (_staircase(4, 3), True)):
        for check in (check_level, check_radial):
            assert check(g).planar == planar
            assert (check(g, witness=True).witness is not None) == planar


def test_a_bit_list_of_the_wrong_length_is_refused():
    g = _staircase(4, 3)
    for mode, lift in (("level", drawing.lift_assignment_level), ("radial", drawing.lift_assignment_radial)):
        ctx = stage_context(g, mode)
        n = ctx.system.n
        assert n > 0
        for bits in ([False] * (n - 1), [False] * (n + 1)):
            with pytest.raises(ValueError, match=f"assignment has {len(bits)} bits, .* has {n} variables"):
                constraints.evaluate(ctx.system, bits)
            with pytest.raises(ValueError, match=f"assignment has {len(bits)} bits"):
                lift(bits, ctx)


def test_an_unknown_mode_or_stage_is_refused(k22):
    with pytest.raises(ValueError, match="^unknown mode 'spherical'$"):
        stage_context(k22, "spherical")
    with pytest.raises(ValueError, match="^unknown stage 'H'$"):
        system_for_stage(k22, "level", "H")


def test_solve_reduced_returns_a_satisfying_bit_list():
    solved = 0
    for g in islice(exhaustive_proper_graphs(3, 3), 0, None, 50):
        for mode in ("level", "radial"):
            ctx = stage_context(g, mode)
            for system in (ctx.system, ctx.plus_system):
                bits = solve_reduced(system)
                if bits is None:
                    continue
                assert type(bits) is list and len(bits) == system.n == len(system.variables)
                assert all(type(b) is bool for b in bits)
                assert constraints.evaluate(system, bits) == []
                assert constraints.evaluate(system, dict(zip(system.variables, bits))) == []
                solved += 1
    assert solved > 100


def test_checks_hand_the_built_rows_to_the_solver(monkeypatch, k22):
    # the builders' rows reach the solver as built, not repacked: the solver
    # checks each index and parity as it reads it
    def refuse(*args):
        raise AssertionError("XorSystem.build was called")

    monkeypatch.setattr(xorsat.XorSystem, "build", refuse)
    for g in (k22, _staircase(4, 3)):
        for check in (check_level, check_radial):
            assert check(g).planar == check(g, witness=True).planar


def _level_pivot_bit(ctx) -> constraints.PairVar:
    """The bit of the first subdivision level that places a vertex against its pivot."""
    pg = ctx.pg
    j = next(j for j in range(1, pg.graph.k + 1) if len(pg.graph.on_level(j)) > 1)
    pivot = pg.star_vertices_on(j)[0]
    return constraints.PairVar(pivot, next(v for v in pg.graph.on_level(j) if v != pivot))


def _radial_pivot_bit(ctx) -> constraints.TripleVar:
    """The bit of the first subdivision level with one anchor that places a
    vertex against the level's lone stretched vertex."""
    pg, refs = ctx.pg, ctx.plus_refs
    for j in range(1, pg.graph.k + 1):
        anchor, stars = refs.alpha_minus[j], pg.star_vertices_on(j)
        if anchor == refs.alpha_plus[j] and stars and stars[0] != anchor:
            others = [v for v in pg.graph.on_level(j) if v not in (anchor, stars[0])]
            if others:
                return constraints.TripleVar(anchor, stars[0], others[0])
    raise AssertionError("no level places a vertex against a lone stretched vertex")


@pytest.mark.parametrize("check, g, lift, pivot_bit", [
    (check_level, LevelGraph(2, {"a": 1, "c": 1, "b": 2, "d": 2}, (("a", "b"), ("c", "d"))),
     "lift_assignment_level", _level_pivot_bit),
    (check_radial, _staircase(3, 3), "lift_assignment_radial", _radial_pivot_bit),
])
def test_verification_rejects_a_lift_with_one_pivot_bit_flipped(monkeypatch, check, g, lift, pivot_bit):
    # the witness path does not check the lift against G+'s system, so the
    # even-crossings verification of the drawing is what catches a broken lift
    real = getattr(pipeline, lift)

    def broken(phi, ctx):
        lifted = real(phi, ctx)
        flipped = dataclasses.astuple(pivot_bit(ctx))
        if lifted.pair is not None:
            return dataclasses.replace(lifted, pair=lambda *point: lifted.pair(*point) != (point == flipped))
        return dataclasses.replace(lifted, triple=lambda *point: lifted.triple(*point) != (point == flipped))

    assert witness_report(g, check(g, witness=True)).ht_violations == []
    monkeypatch.setattr(pipeline, lift, broken)
    with pytest.raises(AssertionError, match="witness drawing failed verification"):
        check(g, witness=True)


def _random_graph_with_long_edges(rng: random.Random) -> LevelGraph:
    """3 or 4 nonempty levels of 1 to 3 vertices; any upward edge, long ones rarer."""
    k = rng.randint(3, 4)
    level = {f"v{i}{j}": i for i in range(1, k + 1) for j in range(rng.randint(1, 3))}
    edges = tuple((u, v) for u in level for v in level
                  if level[u] < level[v] and rng.random() < (0.4 if level[v] == level[u] + 1 else 0.25))
    return LevelGraph(k, level, edges)


def test_an_id_named_like_a_subdivision_point_changes_no_answer():
    # rename a vertex to the point properize would put on a long edge crossing its level
    rng = random.Random(29)
    renamed = 0
    while renamed < 150:
        g = _random_graph_with_long_edges(rng)
        long_edges = [(u, v) for u, v in g.edges if g.level[v] - g.level[u] > 1]
        if not long_edges:
            continue
        u, v = rng.choice(long_edges)
        lv = rng.randint(g.level[u] + 1, g.level[v] - 1)
        x, name = rng.choice(g.on_level(lv)), subdivision_name(u, v, lv)
        twin = LevelGraph(g.k, {name if w == x else w: i for w, i in g.level.items()},
                          tuple(tuple(name if w == x else w for w in e) for e in g.edges))
        for check in (check_level, check_radial):
            result = check(twin, witness=True)
            assert result.planar == check(g).planar
            assert result.witness is None or witness_report(twin, result).ht_violations == []
        renamed += 1


def _graph_file(tmp_path, g: LevelGraph) -> str:
    path = tmp_path / "g.json"
    path.write_text(json.dumps(graph_to_json(g)))
    return str(path)


def test_render_of_a_subdivision_drawing_builds_no_system(monkeypatch, tmp_path, k22):
    for _, g, mode in _witness_cases(k22):
        graph = _graph_file(tmp_path, g)
        witness = str(tmp_path / "w.json")
        assert main(["check", mode, graph, "--witness", witness]) == 0
        builds = _record_builds(monkeypatch)
        assert main(["render", witness, graph, "--out", str(tmp_path / "w.svg")]) == 0
        assert builds == []
        monkeypatch.undo()


def test_emit_full_subdivision_system_builds_its_reduced_system_once(monkeypatch, tmp_path, k22):
    for _, g, mode in _witness_cases(k22):
        graph = _graph_file(tmp_path, g)
        ctx = stage_context(g, mode)
        base, plus = ctx.base, ctx.pg.graph
        builds = _record_builds(monkeypatch)
        assert main(["emit-constraints", mode, graph, "--stage", "Gplus", "--full"]) == 0
        assert [b[0] for b in builds] == [plus]
        assert base != plus
        monkeypatch.undo()


def test_crosscheck_builds_no_system_twice(monkeypatch):
    builds = _record_builds(monkeypatch)
    planar = 0
    for g in exhaustive_proper_graphs(2, 3, cap=30):
        builds.clear()
        problems, level_planar, _ = crosscheck_instance(g)
        assert problems == []
        planar += level_planar
        for i, b in enumerate(builds):
            assert b not in builds[:i], f"system of {b} built twice"
    assert planar > 5


def test_input_and_subdivision_oracles_agree_sample():
    # the stretch and subdivide transformations preserve both planarity notions
    count = 0
    for g in exhaustive_proper_graphs(2, 2, cap=40):
        assert crosscheck_instance(g)[0] == []
        level, radial = stage_context(g, "level"), stage_context(g, "radial")
        assert brute_level(level.pg.graph).planar == brute_level(level.base).planar
        assert (brute_radial(radial.pg.graph, radial.plus_refs).planar
                == brute_radial(radial.base, radial.refs).planar)
        count += 1
    assert count > 10


def test_run_crosscheck_summary():
    instances = list(exhaustive_proper_graphs(2, 2, cap=16))
    summary = run_crosscheck(instances)
    assert summary.ok
    assert summary.instances == len(instances)
    assert 0 < summary.level_planar <= summary.instances
