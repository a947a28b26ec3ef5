"""Every mismatch `crosscheck` can report, each produced by replacing one of
the names `crosscheck` looks up with a faulty stand-in."""

from __future__ import annotations

import dataclasses
import json

from planarity_ht import corpus, crosscheck
from planarity_ht.cli import main
from planarity_ht.constraints import reference_set_variants
from planarity_ht.crosscheck import check_structural_counts, crosscheck_instance, run_crosscheck
from planarity_ht.drawing import LevelDrawing, NotHananiTutteError, make_level_context, make_radial_context
from planarity_ht.graphs import LevelGraph
from planarity_ht.iofmt import graph_to_json
from planarity_ht.oracle import OracleResult
from planarity_ht.xorsat import RowSource

# two disjoint edges across two levels: planar in both modes, two reference selections
TWO_EDGES = LevelGraph(2, {"a": 1, "b": 1, "c": 2, "d": 2}, (("a", "c"), ("b", "d")))


def _denying(oracle):
    def deny(*args):
        result = oracle(*args)
        return OracleResult(not result.planar, None, result.states_examined)
    return deny


def _one_mismatch(instances) -> str:
    summary = run_crosscheck(instances)
    assert len(summary.mismatches) == 1
    line = summary.mismatches[0]
    assert line.startswith(f"instance {graph_to_json(instances[-1])}: ")
    return line


def test_a_lying_level_oracle_is_a_level_divergence(monkeypatch):
    monkeypatch.setattr(crosscheck, "brute_level", _denying(crosscheck.brute_level))
    problems, level_planar, radial_planar = crosscheck_instance(TWO_EDGES)
    assert len(problems) == 1
    assert problems[0].startswith("level decisions diverge: input system")
    assert problems[0].endswith("subdivision system True, oracle False")
    assert (level_planar, radial_planar) == (False, True)


def test_an_unsatisfiable_alternative_radial_system_is_a_radial_divergence(monkeypatch):
    build, built = crosscheck.build_radial_reduced, []

    def unsatisfiable(g, refs):
        built.append(refs)
        system = build(g, refs)
        return dataclasses.replace(system, source=RowSource(lambda: [*system.source.runs(), (False, [((), 1)])]))

    monkeypatch.setattr(crosscheck, "build_radial_reduced", unsatisfiable)
    problems, _, _ = crosscheck_instance(TWO_EDGES)
    assert len(built) == 1
    assert problems == ["radial decisions diverge: input systems [True, False], "
                        "subdivision system True, oracle True"]


def test_a_witness_with_two_vertices_swapped_has_an_odd_independent_pair(monkeypatch):
    realize = crosscheck.drawing_from_assignment_level

    def swapped(phi, ctx):
        orders = dict(realize(phi, ctx).orders)
        j = min(j for j, order in orders.items() if len(order) > 1)
        orders[j] = (orders[j][1], orders[j][0]) + orders[j][2:]
        return LevelDrawing(orders)

    monkeypatch.setattr(crosscheck, "drawing_from_assignment_level", swapped)
    problems, _, _ = crosscheck_instance(TWO_EDGES)
    assert problems == ["level round trip failed: independent edges ('a~bot', 'a~top') and "
                        "('b~bot', 'b~top') cross 1 times"]


def test_a_radial_oracle_denying_a_level_planar_instance_is_reported(monkeypatch):
    monkeypatch.setattr(crosscheck, "brute_radial", _denying(crosscheck.brute_radial))
    problems, level_planar, radial_planar = crosscheck_instance(TWO_EDGES)
    assert problems[0].startswith("radial decisions diverge")
    assert problems[-1] == "level planar instance reported radially non-planar"
    assert (level_planar, radial_planar) == (True, False)


def test_a_star_form_of_another_size_is_a_structural_mismatch():
    # star forms of a graph with one vertex fewer on level 1 stand in for TWO_EDGES's
    fewer = LevelGraph(2, {"a": 1, "c": 2, "d": 2}, (("a", "c"), ("a", "d")))
    level_ctx = make_level_context(TWO_EDGES)
    radial_ctx = make_radial_context(*reversed(reference_set_variants(TWO_EDGES)[0]))
    level_ctx.__dict__["pg"] = make_level_context(fewer).pg
    radial_ctx.__dict__["pg"] = make_radial_context(*reversed(reference_set_variants(fewer)[0])).pg
    assert check_structural_counts(TWO_EDGES, level_ctx, radial_ctx) == [
        "plain star form: level 1 expanded to 2 sublevels, expected 4",
        "radial star form: level 1 expanded to 3 sublevels, expected 5",
    ]


def _flip_one_lifted_bit(monkeypatch):
    lift = crosscheck.lift_assignment_level

    def broken(phi, ctx):
        lifted = lift(phi, ctx)
        first = next(iter(ctx.plus_system.points()), None)  # G+ of a lone vertex has no variable to flip
        return dataclasses.replace(lifted, pair=lambda *point: lifted.pair(*point) != (point == first))

    monkeypatch.setattr(crosscheck, "lift_assignment_level", broken)


def _refuse_radial_back_conversion(monkeypatch):
    def refuse(d, ctx):
        raise NotHananiTutteError((("a", "c"), ("b", "d")), 1)

    monkeypatch.setattr(crosscheck, "assignment_from_drawing_radial", refuse)


def test_a_broken_lift_is_one_mismatch_naming_the_instance(monkeypatch, capsys):
    _flip_one_lifted_bit(monkeypatch)
    line = _one_mismatch([TWO_EDGES])
    assert ": level round trip failed: assignment violates 2 constraints of level-reduced, first: " in line
    assert main(["--json", "crosscheck", "--max-size", "2,2"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["instances"] > 1
    [line] = payload["mismatches"]
    assert line.startswith("instance {") and "level round trip failed" in line


def test_a_raising_back_conversion_is_one_mismatch_naming_the_instance(monkeypatch, capsys):
    _refuse_radial_back_conversion(monkeypatch)
    line = _one_mismatch([TWO_EDGES])
    assert line.endswith("radial round trip failed: independent edges ('a', 'c') and ('b', 'd') cross 1 times")
    assert main(["crosscheck", "--max-size", "2,2"]) == 1
    out = capsys.readouterr().out
    assert "crosschecked 1 instances" in out and "1 mismatches" in out
    assert "\ninstance {" in out and "radial round trip failed" in out


def test_a_radial_empty_level_is_still_refused(tmp_path, capsys):
    g = LevelGraph(3, {"a": 1, "b": 3}, ())
    (tmp_path / "gap.json").write_text(json.dumps(graph_to_json(g)))
    assert main(["crosscheck", str(tmp_path)]) == 2
    assert "level 2 is empty" in capsys.readouterr().err


def _fail_the_second_instance(monkeypatch):
    calls = []

    def fake(g, budget=None):
        calls.append(g)
        return (["stand-in mismatch"] if len(calls) == 2 else []), True, True

    monkeypatch.setattr(crosscheck, "crosscheck_instance", fake)
    return calls


def test_the_exhaustive_corpus_is_drawn_only_up_to_the_first_mismatch(monkeypatch, capsys):
    calls = _fail_the_second_instance(monkeypatch)
    enumerate_corpus, drawn = corpus.exhaustive_proper_graphs, []

    def counted(*args, **kwargs):
        for g in enumerate_corpus(*args, **kwargs):
            drawn.append(g)
            yield g

    monkeypatch.setattr(corpus, "exhaustive_proper_graphs", counted)
    assert main(["crosscheck", "--max-size", "2,2"]) == 1
    assert len(calls) == len(drawn) == 2
    assert "stand-in mismatch" in capsys.readouterr().out


def test_random_instances_are_drawn_only_up_to_the_first_mismatch(monkeypatch, capsys):
    calls = _fail_the_second_instance(monkeypatch)
    draw, drawn = corpus.random_proper_graph, []

    def counted(*args):
        drawn.append(draw(*args))
        return drawn[-1]

    monkeypatch.setattr(corpus, "random_proper_graph", counted)
    assert main(["crosscheck", "--random", "50", "--max-size", "3,3"]) == 1
    assert len(calls) == len(drawn) == 2
    assert "stand-in mismatch" in capsys.readouterr().out
