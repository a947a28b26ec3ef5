"""Bounded fuzzing of the command line: generated graph and drawing files,
some well formed and some arbitrary JSON, must always end in an exit code of
0-3, never in an escaped exception."""

from __future__ import annotations

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from planarity_ht.cli import main

IDS = ["a", "b", "c", "d", "e", "f"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def graph_docs(draw):
    ids = draw(st.lists(st.sampled_from(IDS), min_size=1, max_size=6, unique=True))
    k = draw(st.integers(1, min(3, len(ids))))
    # the first k ids fill levels 1..k, so most graphs have no empty level
    level = {v: i + 1 if i < k else draw(st.integers(1, k)) for i, v in enumerate(ids)}
    if draw(st.booleans()):  # complete between consecutive levels, often not planar
        pairs = [(u, v) for u in ids for v in ids if level[v] == level[u] + 1]
    else:
        pairs = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids)), max_size=8, unique=True))
    if draw(st.integers(0, 3)):  # mostly valid: upward edges only
        pairs = [(u, v) for u, v in pairs if level[u] < level[v]]
    return {"levels": k, "vertices": [{"id": v, "level": lv} for v, lv in level.items()],
            "edges": [list(e) for e in pairs]}


@st.composite
def drawing_docs(draw, graph):
    """A drawing over the graph's vertex ids: a permutation of each level, or
    orders that need not cover the graph."""
    ids = [v["id"] for v in graph["vertices"]] if graph else IDS
    if graph and draw(st.booleans()):
        orders = {str(i): draw(st.permutations([v["id"] for v in graph["vertices"] if v["level"] == i]))
                  for i in range(1, graph["levels"] + 1)}
    else:
        levels = draw(st.integers(1, 3))
        orders = {str(i): draw(st.lists(st.sampled_from(ids), max_size=4)) for i in range(1, levels + 1)}
    kind = draw(st.sampled_from(["level", "radial"]))
    flags = {}
    if kind == "radial":
        keys = st.builds(lambda u, v: f"{u}->{v}", st.sampled_from(ids), st.sampled_from(ids))
        flags = draw(st.dictionaries(keys, st.sampled_from([0, 1, True, False]), max_size=4))
    return {"kind": kind, "orders": orders, "flags": flags}


malformed_graph_docs = json_values | st.fixed_dictionaries(
    {"levels": json_values, "vertices": json_values, "edges": json_values})


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), mode=st.sampled_from(["level", "radial"]))
def test_cli_ends_in_an_exit_code(tmp_path, capsys, data, mode):
    well_formed = data.draw(st.booleans(), label="well formed")
    graph = data.draw(graph_docs() if well_formed else malformed_graph_docs, label="graph")
    drawing = data.draw(drawing_docs(graph if well_formed else None) | json_values, label="drawing")
    graph_file, drawing_file = tmp_path / "g.json", tmp_path / "d.json"
    witness_file, svg_file = tmp_path / "w.json", tmp_path / "w.svg"
    graph_file.write_text(json.dumps(graph))
    drawing_file.write_text(json.dumps(drawing))
    witness_file.unlink(missing_ok=True)
    runs = [
        ["check", mode, str(graph_file), "--witness", str(witness_file)],
        ["render", str(drawing_file), str(graph_file), "--out", str(svg_file)],
        ["emit-constraints", mode, str(graph_file), "--stage", "Gplus", "--full"],
        ["oracle", mode, str(graph_file), "--budget", "2000"],
    ]
    for argv in runs:
        assert main(argv) in (0, 1, 2, 3), argv
    if witness_file.exists():
        assert main(["render", str(witness_file), str(graph_file), "--out", str(svg_file)]) == 0
    capsys.readouterr()
