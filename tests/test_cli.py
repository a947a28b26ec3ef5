from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import planarity_ht
from planarity_ht.cli import main
from planarity_ht.graphs import LevelGraph
from planarity_ht.iofmt import graph_to_json
from planarity_ht.pipeline import check_level
from tests.conftest import make_path


@pytest.fixture
def k22_file(tmp_path, k22):
    p = tmp_path / "k22.json"
    p.write_text(json.dumps(graph_to_json(k22)))
    return str(p)


@pytest.fixture
def path_file(tmp_path):
    p = tmp_path / "path.json"
    p.write_text(json.dumps(graph_to_json(make_path(3))))
    return str(p)


def test_check_k22_level_exit_1(k22_file, capsys):
    assert main(["check", "level", k22_file]) == 1
    assert "not planar" in capsys.readouterr().out


def test_check_k22_radial_exit_0(k22_file):
    assert main(["check", "radial", k22_file]) == 0


def test_check_path_both_modes_exit_0(path_file):
    assert main(["check", "level", path_file]) == 0
    assert main(["check", "radial", path_file]) == 0


def test_check_json_summary(k22_file, capsys):
    assert main(["--json", "check", "radial", k22_file]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["planar"] is True and payload["mode"] == "radial"


def test_check_witness_written_and_renderable(k22_file, tmp_path, capsys):
    out = tmp_path / "witness.json"
    assert main(["check", "radial", k22_file, "--witness", str(out)]) == 0
    assert out.exists()
    svg = tmp_path / "witness.svg"
    assert main(["render", str(out), k22_file, "--out", str(svg)]) == 0
    assert svg.read_text().startswith("<svg")


def test_check_invalid_file_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"levels": 2, "vertices": [{"id": "a", "level": 1}], "edges": [["a", "a"]]}))
    assert main(["check", "level", str(bad)]) == 2


def test_emit_constraints_counts(tmp_path, capsys):
    doc = {"levels": 1, "vertices": [{"id": "a", "level": 1}, {"id": "b", "level": 1}], "edges": []}
    p = tmp_path / "two.json"
    p.write_text(json.dumps(doc))
    assert main(["emit-constraints", "level", str(p), "--full"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l and not l.startswith("#")]
    assert len(lines) == 1

    doc["vertices"].append({"id": "c", "level": 1})
    p.write_text(json.dumps(doc))
    assert main(["emit-constraints", "level", str(p), "--full"]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l and not l.startswith("#")]
    assert len(lines) == 3 + 6
    assert main(["emit-constraints", "level", str(p)]) == 0
    lines = [l for l in capsys.readouterr().out.splitlines() if l and not l.startswith("#")]
    assert len(lines) == 3
    assert all("->" not in l for l in lines)


def test_emit_constraints_stages(k22_file, capsys):
    assert main(["emit-constraints", "radial", k22_file, "--stage", "G"]) == 0
    g_lines = capsys.readouterr().out
    assert main(["emit-constraints", "radial", k22_file, "--stage", "Gplus"]) == 0
    gplus_lines = capsys.readouterr().out
    assert g_lines != gplus_lines


def test_oracle_exit_codes(k22_file, path_file, capsys):
    assert main(["oracle", "level", k22_file]) == 1
    assert "4 states" in capsys.readouterr().out
    assert main(["oracle", "radial", k22_file]) == 0
    assert main(["oracle", "level", path_file]) == 0
    assert "1 states" in capsys.readouterr().out


def test_oracle_budget_exit_3(k22_file):
    assert main(["oracle", "level", k22_file, "--budget", "2"]) == 3


def test_oracle_budget_env_var(k22_file, monkeypatch):
    monkeypatch.setenv("PLANARITY_HT_BUDGET", "2")
    assert main(["oracle", "level", k22_file]) == 3
    monkeypatch.setenv("PLANARITY_HT_BUDGET", "1000")
    assert main(["oracle", "level", k22_file]) == 1


def test_malformed_budget_env_var_fails_only_the_enumerations(k22_file, monkeypatch, capsys):
    monkeypatch.setenv("PLANARITY_HT_BUDGET", "abc")
    assert main(["check", "radial", k22_file]) == 0
    capsys.readouterr()
    assert main(["oracle", "level", k22_file]) == 2
    assert "PLANARITY_HT_BUDGET" in capsys.readouterr().err
    assert main(["crosscheck", "--max-size", "2,2"]) == 2
    assert "PLANARITY_HT_BUDGET" in capsys.readouterr().err


def test_check_radial_empty_level_exit_2(tmp_path):
    doc = {"levels": 2, "vertices": [{"id": "a", "level": 1}], "edges": []}
    p = tmp_path / "gap.json"
    p.write_text(json.dumps(doc))
    assert main(["check", "radial", str(p)]) == 2


def test_check_full_reports_transitivity(tmp_path, capsys):
    # K3,3 on two levels: the input's full system has 3! clauses per level,
    # 2 * 3 consistency rows and 18 independent edge pairs
    doc = {"levels": 2, "vertices": [{"id": f"{s}{i}", "level": lv} for s, lv in (("a", 1), ("b", 2))
                                     for i in range(3)],
           "edges": [[f"a{i}", f"b{j}"] for i in range(3) for j in range(3)]}
    p = tmp_path / "k33.json"
    p.write_text(json.dumps(doc))
    assert main(["--json", "check", "level", str(p), "--full"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["system"] == "full"
    assert payload["transitivity_clauses"] == 12
    assert (payload["variables"], payload["equations"]) == (12, 24)


def test_render_mismatch_exit_2(path_file, tmp_path, k22_file):
    drawing = tmp_path / "d.json"
    drawing.write_text(json.dumps({"kind": "level", "orders": {"1": ["nope"]}}))
    assert main(["render", str(drawing), path_file, "--out", str(tmp_path / "x.svg")]) == 2


def test_crosscheck_random_exit_0(capsys):
    assert main(["--json", "crosscheck", "--random", "6", "--seed", "3", "--max-size", "3,2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["instances"] == 6
    assert payload["mismatches"] == []


def test_crosscheck_exhaustive_small(capsys):
    assert main(["crosscheck", "--max-size", "2,2", "--cap", "25"]) == 0
    out = capsys.readouterr().out
    assert "0 mismatches" in out


def test_crosscheck_corpus_dir(tmp_path, k22, capsys):
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "k22.json").write_text(json.dumps(graph_to_json(k22)))
    (d / "path.json").write_text(json.dumps(graph_to_json(make_path(2))))
    assert main(["crosscheck", str(d)]) == 0
    assert "2 instances" in capsys.readouterr().out


def test_crosscheck_empty_dir_exit_2(tmp_path):
    d = tmp_path / "empty"
    d.mkdir()
    assert main(["crosscheck", str(d)]) == 2


def test_check_list_endpoint_exit_2(tmp_path, capsys):
    doc = {"levels": 2, "vertices": [{"id": "a1", "level": 1}, {"id": "a2", "level": 2}],
           "edges": [[["a1"], "a2"]]}
    p = tmp_path / "nested.json"
    p.write_text(json.dumps(doc))
    assert main(["check", "level", str(p)]) == 2
    assert capsys.readouterr().err.startswith("error: edge entry")


def test_render_orders_list_exit_2(path_file, tmp_path, capsys):
    drawing = tmp_path / "d.json"
    drawing.write_text(json.dumps({"kind": "level", "orders": []}))
    assert main(["render", str(drawing), path_file, "--out", str(tmp_path / "x.svg")]) == 2
    assert capsys.readouterr().err.startswith("error: drawing 'orders'")


def test_radial_witness_with_arrow_in_vertex_id_renders(tmp_path):
    # c->1 is reference-adjacent, so the witness carries a flag key with three '->'
    doc = {"levels": 2,
           "vertices": [{"id": "a", "level": 1}, {"id": "b", "level": 1},
                        {"id": "c->1", "level": 2}, {"id": "d", "level": 2}],
           "edges": [["a", "c->1"], ["b", "c->1"], ["b", "d"]]}
    p = tmp_path / "arrow.json"
    p.write_text(json.dumps(doc))
    out = tmp_path / "witness.json"
    assert main(["check", "radial", str(p), "--witness", str(out)]) == 0
    assert "b~top~c->1~bot~5->c->1~bot" in json.loads(out.read_text())["flags"]
    assert main(["render", str(out), str(p), "--out", str(tmp_path / "w.svg")]) == 0


def test_render_order_with_repeated_vertex_exit_2(tmp_path, capsys):
    doc = {"levels": 2, "vertices": [{"id": v, "level": lv} for v, lv in (("a", 1), ("c", 1), ("b", 2), ("d", 2))],
           "edges": [["a", "b"], ["c", "d"]]}
    graph = tmp_path / "g.json"
    graph.write_text(json.dumps(doc))
    drawing = tmp_path / "d.json"
    svg = str(tmp_path / "d.svg")
    drawing.write_text(json.dumps({"kind": "level", "orders": {"1": ["a", "c"], "2": ["b", "d"]}}))
    assert main(["render", str(drawing), str(graph), "--out", svg]) == 0
    drawing.write_text(json.dumps({"kind": "level", "orders": {"1": ["a", "c"], "2": ["b", "d", "d"]}}))
    assert main(["render", str(drawing), str(graph), "--out", svg]) == 2
    assert "does not cover" in capsys.readouterr().err


def test_check_json_reports_witness_crossings(tmp_path, capsys):
    # the witness of this planar graph keeps an even, nonzero number of crossings
    g = LevelGraph(2, {"a1": 1, "b1": 1, "c1": 1, "a2": 2, "b2": 2}, (("a1", "b2"), ("b1", "a2")))
    p = tmp_path / "g.json"
    p.write_text(json.dumps(graph_to_json(g)))
    assert main(["--json", "check", "level", str(p), "--witness", str(tmp_path / "w.json")]) == 0
    payload = json.loads(capsys.readouterr().out)
    expect = check_level(g, witness=True).witness_report.total()
    assert expect > 0
    assert payload["witness_crossings"] == expect


def test_huge_level_count_answers_at_once(tmp_path):
    doc = {"levels": 100_000_000, "vertices": [{"id": "a", "level": 1}, {"id": "b", "level": 2}],
           "edges": [["a", "b"]]}
    p = tmp_path / "huge.json"
    p.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(Path(planarity_ht.__file__).resolve().parent.parent))

    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "planarity_ht.cli", *args], env=env,
                              capture_output=True, text=True, timeout=10)

    done = run("check", "level", str(p))
    assert done.returncode == 0
    assert done.stdout == "level: planar (0 variables, 0 equations)\n"
    assert run("check", "level", str(p), "--witness", str(tmp_path / "w.json")).returncode == 0
    assert run("emit-constraints", "level", str(p), "--full").returncode == 0


def test_render_of_a_huge_level_count_witness_answers_at_once(tmp_path):
    # the witness covers the four sublevels of G+, so the input's level count
    # must be ruled out without listing its levels
    doc = {"levels": 100_000_000, "vertices": [{"id": "a", "level": 1}, {"id": "b", "level": 2}],
           "edges": [["a", "b"]]}
    graph, witness = tmp_path / "g.json", tmp_path / "w.json"
    graph.write_text(json.dumps(doc))
    env = dict(os.environ, PYTHONPATH=str(Path(planarity_ht.__file__).resolve().parent.parent))

    def run(*args: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "planarity_ht.cli", *args], env=env,
                              capture_output=True, text=True, timeout=10)

    assert run("check", "level", str(graph), "--witness", str(witness)).returncode == 0
    assert run("render", str(witness), str(graph), "--out", str(tmp_path / "o.svg")).returncode == 0


def _graph_doc(levels: dict[str, int], edges: list[tuple[str, str]]) -> dict:
    return {"levels": max(levels.values()), "vertices": [{"id": v, "level": lv} for v, lv in levels.items()],
            "edges": [list(e) for e in edges]}


@pytest.mark.parametrize("levels, edges, expect", [
    # a->b is subdivided on level 2 next to an input vertex with its point's name
    ({"a": 1, "c": 1, "a~b~2": 2, "n": 2, "b": 3, "d": 3},
     [("c", "n"), ("c", "d"), ("a~b~2", "d"), ("n", "b"), ("n", "d"), ("a", "b")], (0, 0)),
    ({"a": 1, "a~b~2": 2, "b": 3}, [("a", "b"), ("a", "a~b~2")], (0, 0)),
])
def test_an_id_named_like_a_subdivision_point_answers_like_its_renamed_twin(tmp_path, capsys, levels, edges,
                                                                           expect):
    def rename(v: str) -> str:
        return "m" if v == "a~b~2" else v

    p, twin = tmp_path / "g.json", tmp_path / "twin.json"
    p.write_text(json.dumps(_graph_doc(levels, edges)))
    twin.write_text(json.dumps(_graph_doc({rename(v): lv for v, lv in levels.items()},
                                          [(rename(u), rename(v)) for u, v in edges])))
    for mode, code in zip(("level", "radial"), expect):
        for command in (["check", mode], ["oracle", mode]):
            assert main(command + [str(p)]) == main(command + [str(twin)]) == code
        assert main(["check", mode, str(p), "--witness", str(tmp_path / "w.json")]) == code
        assert main(["render", str(tmp_path / "w.json"), str(p), "--out", str(tmp_path / "w.svg")]) == 0
    assert "error" not in capsys.readouterr().err
