"""File formats: graph JSON, drawing JSON, and the textual constraint dump."""

from __future__ import annotations

import json
import re
from typing import Any

from .constraints import ConstraintSystem
from .drawing import LevelDrawing, RadialDrawing
from .graphs import Edge, LevelGraph


class FormatError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Graph files


def parse_graph(data: Any) -> LevelGraph:
    if not isinstance(data, dict):
        raise FormatError("graph document must be a JSON object")
    try:
        k = data["levels"]
        vertices = data["vertices"]
        edges = data["edges"]
    except KeyError as missing:
        raise FormatError(f"graph document lacks key {missing}") from None
    if type(k) is not int:
        raise FormatError("'levels' must be an integer")
    if not isinstance(vertices, list) or not isinstance(edges, list):
        raise FormatError("'vertices' and 'edges' must be lists")
    level: dict[str, int] = {}
    for entry in vertices:
        if not isinstance(entry, dict) or "id" not in entry or "level" not in entry:
            raise FormatError(f"vertex entry {entry!r} needs 'id' and 'level'")
        vid, lv = entry["id"], entry["level"]
        if not isinstance(vid, str) or type(lv) is not int:
            raise FormatError(f"vertex entry {entry!r} must have string id and integer level")
        if vid in level:
            raise FormatError(f"duplicate vertex id {vid!r}")
        level[vid] = lv
    parsed_edges: list[Edge] = []
    for pair in edges:
        if not isinstance(pair, list) or len(pair) != 2 or not all(isinstance(v, str) for v in pair):
            raise FormatError(f"edge entry {pair!r} must be a list of two vertex ids")
        parsed_edges.append((pair[0], pair[1]))
    return LevelGraph(k, level, tuple(parsed_edges))


def graph_to_json(g: LevelGraph) -> dict:
    return {
        "levels": g.k,
        "vertices": [{"id": v, "level": g.level[v]} for v in g.vertices()],
        "edges": [list(e) for e in sorted(g.edges)],
    }


def load_graph(path: str) -> LevelGraph:
    with open(path, encoding="utf-8") as fh:
        return parse_graph(json.load(fh))


# ---------------------------------------------------------------------------
# Drawing files


def edge_key(e: Edge) -> str:
    return f"{e[0]}->{e[1]}"


def parse_edge_key(key: str) -> Edge:
    parts = key.split("->")
    if len(parts) != 2:
        raise FormatError(f"edge key {key!r} is not of the form tail->head")
    return (parts[0], parts[1])


def _parse_flag_key(key: str, level: dict[str, int]) -> Edge:
    """Split a flag key at its '->'; when vertex ids contain '->' too, at the
    one '->' whose two sides are vertices on consecutive levels."""
    if key.count("->") < 2:
        return parse_edge_key(key)
    cuts = [(key[:i], key[i + 2:]) for i in range(len(key)) if key.startswith("->", i)]
    fits = [(t, h) for t, h in cuts if t in level and level.get(h) == level[t] + 1]
    if len(fits) != 1:
        raise FormatError(f"edge key {key!r} does not split into one edge between consecutive levels")
    return fits[0]


def parse_drawing(data: Any) -> LevelDrawing | RadialDrawing:
    if not isinstance(data, dict) or "kind" not in data or "orders" not in data:
        raise FormatError("drawing document needs 'kind' and 'orders'")
    for key in ("orders", "flags"):
        if not isinstance(data.get(key, {}), dict):
            raise FormatError(f"drawing '{key}' must be a JSON object")
    orders: dict[int, tuple[str, ...]] = {}
    for key, ids in data["orders"].items():
        if not re.fullmatch(r"[1-9][0-9]*", key):
            raise FormatError(f"order key {key!r} is not a level number")
        if not isinstance(ids, list) or not all(isinstance(v, str) for v in ids):
            raise FormatError(f"order of level {key!r} must be a list of vertex ids")
        orders[int(key)] = tuple(ids)
    if data["kind"] == "level":
        return LevelDrawing(orders)
    if data["kind"] == "radial":
        level = {v: i for i, ids in orders.items() for v in ids}
        flags = {}
        for key, value in data.get("flags", {}).items():
            if type(value) not in (bool, int) or value not in (0, 1):
                raise FormatError(f"flag {key!r} must be true, false, 0 or 1")
            flags[_parse_flag_key(key, level)] = bool(value)
        return RadialDrawing(orders, flags)
    raise FormatError(f"unknown drawing kind {data['kind']!r}")


def drawing_to_json(d: LevelDrawing | RadialDrawing) -> dict:
    if isinstance(d, LevelDrawing):
        return {"kind": "level", "orders": {str(i): list(o) for i, o in sorted(d.orders.items())}, "flags": {}}
    return {
        "kind": "radial",
        "orders": {str(i): list(o) for i, o in sorted(d.cyclic.items())},
        "flags": {edge_key(e): int(v) for e, v in sorted(d.left_flag.items())},
    }


def load_drawing(path: str) -> LevelDrawing | RadialDrawing:
    with open(path, encoding="utf-8") as fh:
        return parse_drawing(json.load(fh))


# ---------------------------------------------------------------------------
# Constraint dumps

DUMP_HEADER = (
    "# variables: x(u,w) = u left of w | t(a,u,v) = a,u,v clockwise | "
    "l(u,v) = edge (u,v) left of its reference edge"
)


def dump_system(system: ConstraintSystem) -> str:
    lines = [DUMP_HEADER]
    lines.extend(str(eq) for eq in system.xors)
    lines.extend(str(cl) for cl in system.transitivity)
    return "\n".join(lines) + "\n"
