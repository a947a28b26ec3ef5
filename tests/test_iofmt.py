from __future__ import annotations

import pytest

from planarity_ht.constraints import build_level_full, build_radial_full, choose_reference_sets
from planarity_ht.drawing import LevelDrawing, RadialDrawing
from planarity_ht.graphs import LevelGraph
from planarity_ht.iofmt import (
    FormatError,
    drawing_to_json,
    dump_system,
    graph_to_json,
    parse_drawing,
    parse_graph,
)
from tests.helpers import parse_dump


def test_graph_round_trip(k22):
    assert parse_graph(graph_to_json(k22)) == k22


def test_parse_graph_rejects_malformed():
    with pytest.raises(FormatError):
        parse_graph({"levels": 1, "vertices": [{"id": 3, "level": 1}], "edges": []})
    with pytest.raises(FormatError):
        parse_graph({"vertices": [], "edges": []})
    with pytest.raises(FormatError):
        parse_graph({"levels": 1, "vertices": [], "edges": [["a"]]})
    with pytest.raises(FormatError):
        parse_graph(
            {"levels": 1, "vertices": [{"id": "a", "level": 1}, {"id": "a", "level": 1}], "edges": []}
        )
    with pytest.raises(FormatError, match="'vertices' and 'edges' must be lists"):
        parse_graph({"levels": 1, "vertices": {"a": 1}, "edges": []})
    with pytest.raises(FormatError, match=r"vertex entry \{'id': 'a'\} needs 'id' and 'level'"):
        parse_graph({"levels": 1, "vertices": [{"id": "a"}], "edges": []})


def test_parse_graph_rejects_boolean_levels():
    with pytest.raises(FormatError, match="'levels' must be an integer"):
        parse_graph({"levels": True, "vertices": [{"id": "a", "level": 1}], "edges": []})
    with pytest.raises(FormatError, match="integer level"):
        parse_graph({"levels": 1, "vertices": [{"id": "a", "level": True}], "edges": []})


def test_parse_drawing_rejects_non_canonical_level_keys():
    for key in ("02", "x", "+2", " 2", "2.0"):
        with pytest.raises(FormatError, match="not a level number"):
            parse_drawing({"kind": "level", "orders": {"1": ["a"], "2": ["b"], key: ["c"]}})
    with pytest.raises(FormatError, match="order of level '2' must be a list of vertex ids"):
        parse_drawing({"kind": "level", "orders": {"1": ["a"], "2": "b"}})


def test_parse_drawing_rejects_non_boolean_flags():
    orders = {"1": ["a"], "2": ["x"]}
    for value in ("yes", 2, -1, 1.0, None, [1]):
        with pytest.raises(FormatError, match="must be true, false, 0 or 1"):
            parse_drawing({"kind": "radial", "orders": orders, "flags": {"a->x": value}})
    for value in (True, False, 0, 1):
        d = parse_drawing({"kind": "radial", "orders": orders, "flags": {"a->x": value}})
        assert d.left_flag == {("a", "x"): bool(value)}


def test_level_drawing_round_trip():
    d = LevelDrawing({1: ("a", "b"), 2: ("c",)})
    assert parse_drawing(drawing_to_json(d)) == d


def test_radial_drawing_round_trip():
    d = RadialDrawing({1: ("a", "b"), 2: ("x", "y")}, {("a", "x"): True, ("b", "y"): False})
    assert parse_drawing(drawing_to_json(d)) == d


def test_flag_key_splits_between_consecutive_levels():
    orders = {"1": ["a", "a->b"], "2": ["c"]}
    d = parse_drawing({"kind": "radial", "orders": orders, "flags": {"a->b->c": 1}})
    assert d.left_flag == {("a->b", "c"): True}


def test_ambiguous_flag_key_raises():
    # both a | b->c and a->b | c join vertices on levels 1 and 2
    orders = {"1": ["a", "a->b"], "2": ["b->c", "c"]}
    with pytest.raises(FormatError):
        parse_drawing({"kind": "radial", "orders": orders, "flags": {"a->b->c": 1}})
    with pytest.raises(FormatError):
        parse_drawing({"kind": "radial", "orders": {"1": ["a"], "2": ["c"]}, "flags": {"a->b->c": 1}})
    with pytest.raises(FormatError, match="edge key 'ab' is not of the form tail->head"):
        parse_drawing({"kind": "radial", "orders": {"1": ["a"], "2": ["c"]}, "flags": {"ab": 1}})


def test_parse_drawing_rejects_unknown_kind():
    with pytest.raises(FormatError):
        parse_drawing({"kind": "solid", "orders": {}})


def test_level_dump_round_trips_through_builder(k22):
    system = build_level_full(k22)
    xors, trans = parse_dump(dump_system(system))
    assert xors == system.xors
    assert trans == system.transitivity


def test_radial_dump_round_trips_through_builder():
    g = LevelGraph(
        2,
        {"a": 1, "b": 1, "c": 1, "d": 1, "x": 2},
        (("a", "x"), ("b", "x"), ("c", "x"), ("d", "x")),
    )
    refs, aug = choose_reference_sets(g)
    system = build_radial_full(aug, refs)
    assert system.transitivity, "fixture should produce transitivity clauses"
    xors, trans = parse_dump(dump_system(system))
    assert xors == system.xors
    assert trans == system.transitivity


def test_dump_line_shapes(k22):
    text = dump_system(build_level_full(k22))
    lines = text.splitlines()
    assert lines[0].startswith("#")
    assert "x(a1,b1) + x(b1,a1) = 1" in lines
    assert "x(a1,b1) + x(a2,b2) = 0" in lines
