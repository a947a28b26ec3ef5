"""Level graphs: the universal input type, validation, properization, critical pairs.

A level graph is a DAG whose vertices carry levels 1..k and whose edges point
strictly upward.  It is *proper* when every edge connects consecutive levels.
Vertex ids are strings; all tie-breaking is by ascending id so every operation
in this package is deterministic.

Each graph is validated once: its violations and its properness are computed
on first use and kept, so every public entry checks its input and a repeat
check costs nothing.  A graph this package builds valid from a checked one
(a properization, a star form and its subdivision) is recorded as checked
when it is built, and indexed too: a properization's and a subdivision's
`by_level` and `by_gap` are filled as they are subdivided, a star form's
`by_level` as its copies are placed.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

VertexId = str
Edge = tuple[VertexId, VertexId]


class InvalidGraphError(ValueError):
    """Raised when an operation requires a valid (or proper) level graph."""

    def __init__(self, violations: list[str]):
        super().__init__("; ".join(violations))
        self.violations = violations


@dataclass(frozen=True)
class LevelGraph:
    """A leveled DAG.  `level` maps each vertex to its level in 1..k.

    `level` and `edges` are not mutated after construction: the per-level
    index (`by_level`, `by_gap`), the violations and the properness are
    computed from them on first use and kept, unless the builder filled
    them when it built the graph (`properize`, and the star form and its
    subdivision in `starform`).
    """

    k: int
    level: dict[VertexId, int]
    edges: tuple[Edge, ...]

    @cached_property
    def by_level(self) -> dict[int, tuple[VertexId, ...]]:
        """Each non-empty level, ascending, mapped to its vertices sorted by id."""
        out: dict[int, list[VertexId]] = {}
        for v in sorted(self.level):
            out.setdefault(self.level[v], []).append(v)
        return {i: tuple(out[i]) for i in sorted(out)}

    @cached_property
    def by_gap(self) -> dict[int, tuple[Edge, ...]]:
        """Each level that is the tail level of an edge, ascending, mapped to
        the edges leaving it, sorted."""
        out: dict[int, list[Edge]] = {}
        for e in sorted(self.edges):
            out.setdefault(self.level[e[0]], []).append(e)
        return {i: tuple(out[i]) for i in sorted(out)}

    def vertices(self) -> tuple[VertexId, ...]:
        return tuple(sorted(self.level))

    def on_level(self, i: int) -> tuple[VertexId, ...]:
        return self.by_level.get(i, ())

    def widths(self) -> list[int]:
        counts = [0] * (self.k + 1)
        for lv in self.level.values():
            counts[lv] += 1
        return counts[1:]

    def gap_edges(self, i: int) -> tuple[Edge, ...]:
        """Edges whose tail lies on level i, in sorted order."""
        return self.by_gap.get(i, ())

    @cached_property
    def violations(self) -> tuple[str, ...]:
        """Every invariant violation, as `validate` lists them."""
        problems: list[str] = []
        if self.k < 1 and (self.level or self.k < 0):  # the star form of an empty graph has no levels
            problems.append(f"level count must be positive, got {self.k}")
        for v, lv in self.level.items():
            if not 1 <= lv <= self.k:
                problems.append(f"vertex {v!r} has level {lv} outside 1..{self.k}")
        seen: set[Edge] = set()
        for u, v in self.edges:
            if u == v:
                problems.append(f"self-loop at {u!r}")
                continue
            if u not in self.level or v not in self.level:
                problems.append(f"edge ({u!r}, {v!r}) references unknown vertex")
                continue
            if (u, v) in seen:
                problems.append(f"duplicate edge ({u!r}, {v!r})")
            seen.add((u, v))
            if self.level[u] >= self.level[v]:
                problems.append(f"edge ({u!r}, {v!r}) not upward: levels {self.level[u]} -> {self.level[v]}")
        return tuple(problems)

    @cached_property
    def _proper(self) -> bool:
        return all(self.level[v] == self.level[u] + 1 for u, v in self.edges)

    def is_proper(self) -> bool:
        return self._proper

    def with_edges(self, extra: list[Edge]) -> "LevelGraph":
        return LevelGraph(self.k, dict(self.level), self.edges + tuple(extra))


def validate(g: LevelGraph) -> list[str]:
    """Return every invariant violation; an empty list means the graph is valid."""
    return list(g.violations)


def require_valid(g: LevelGraph, proper: bool = False) -> None:
    problems = validate(g)
    if not problems and proper and not g.is_proper():
        problems = ["graph is not proper (an edge spans more than one level)"]
    if problems:
        raise InvalidGraphError(problems)


def record_checked(g: LevelGraph, proper: bool | None = None) -> LevelGraph:
    """Record g, valid by construction, as validated, and its properness when
    known, so no check scans it again."""
    g.__dict__["violations"] = ()
    if proper is not None:
        g.__dict__["_proper"] = proper
    return g


def subdivision_name(u: VertexId, v: VertexId, lv: int) -> VertexId:
    return f"{u}~{v}~{lv}"


@dataclass(frozen=True)
class Properization:
    """Provenance of a properized graph.

    vertex_origin maps each fresh subdivision vertex to the edge it came from;
    paths maps every original edge to its full subdivision path (single edges
    keep a two-vertex path).
    """

    vertex_origin: dict[VertexId, Edge]
    paths: dict[Edge, tuple[VertexId, ...]]

    def point_at(self, e: Edge, lv: int, level_of: dict[VertexId, int]) -> VertexId:
        """The vertex of e's path lying on level lv."""
        path = self.paths[e]
        lo = level_of[path[0]]
        if not lo <= lv <= level_of[path[-1]]:
            raise ValueError(f"edge {e} does not cross level {lv}")
        return path[lv - lo]


def properize(g: LevelGraph) -> tuple[LevelGraph, Properization]:
    """Subdivide every long edge so each edge connects consecutive levels.

    The result is recorded as checked and indexed as it is built: each vertex
    and each segment goes into its level's bucket as it is made, and each
    bucket is sorted, which gives the `by_level` and `by_gap` a scan of the
    level map and the edges would."""
    require_valid(g)
    level = dict(g.level)
    at_level: defaultdict[int, list[VertexId]] = defaultdict(list)
    for v, lv in level.items():
        at_level[lv].append(v)
    at_gap: defaultdict[int, list[Edge]] = defaultdict(list)
    new_edges: list[Edge] = []
    origin: dict[VertexId, Edge] = {}
    paths: dict[Edge, tuple[VertexId, ...]] = {}
    for u, v in g.edges:
        e = (u, v)
        lu, lv = level[u], level[v]
        if lv - lu == 1:
            new_edges.append(e)
            at_gap[lu].append(e)
            paths[e] = e
            continue
        path = [u]
        for j in range(lu + 1, lv):
            w = subdivision_name(u, v, j)
            while w in level:  # the name of an input vertex or an earlier point: prime it
                w += "'"
            level[w] = j
            at_level[j].append(w)
            origin[w] = e
            seg = (path[-1], w)
            new_edges.append(seg)
            at_gap[j - 1].append(seg)
            path.append(w)
        seg = (path[-1], v)
        new_edges.append(seg)
        at_gap[lv - 1].append(seg)
        path.append(v)
        paths[e] = tuple(path)
    proper = record_checked(LevelGraph(g.k, level, tuple(new_edges)), proper=True)
    proper.__dict__["by_level"] = {i: tuple(sorted(at_level[i])) for i in sorted(at_level)}
    proper.__dict__["by_gap"] = {i: tuple(sorted(at_gap[i])) for i in sorted(at_gap)}
    return proper, Properization(origin, paths)


def independent(e: Edge, f: Edge) -> bool:
    return not set(e) & set(f)


def is_critical(g: LevelGraph, e: Edge, f: Edge) -> bool:
    """Independent edges whose level spans overlap, hence able to cross."""
    if not independent(e, f):
        return False
    return g.level[e[0]] <= g.level[f[1]] and g.level[e[1]] >= g.level[f[0]]


@dataclass(frozen=True)
class CriticalPair:
    e: Edge
    f: Edge


def critical_pairs(g: LevelGraph) -> list[CriticalPair]:
    """Every unordered independent edge pair with overlapping spans, listed once."""
    require_valid(g)
    return [CriticalPair(e, f) for e, f in combinations(sorted(g.edges), 2) if is_critical(g, e, f)]


@dataclass(frozen=True)
class Limits:
    """The aligned path points of a critical pair inside its shared level window.

    e_low and f_low sit on the window's bottom level, e_high and f_high on its
    top level; each lies on the subdivision path of its edge.
    """

    e_low: VertexId
    e_high: VertexId
    f_low: VertexId
    f_high: VertexId
    low: int
    high: int


def limits(pair: CriticalPair, proper: LevelGraph, prov: Properization) -> Limits:
    """Limits of a critical pair inside the proper subdivision of its graph.

    Original endpoints keep their levels under properization, so criticality
    is checked against the subdivision's level map.
    """
    e, f = pair.e, pair.f
    if not independent(e, f):
        raise ValueError(f"edges {e} and {f} are not independent")
    lv = proper.level
    lo = max(lv[e[0]], lv[f[0]])
    hi = min(lv[e[1]], lv[f[1]])
    if lo > hi:
        raise ValueError(f"edges {e} and {f} are not a critical pair")
    return Limits(
        e_low=prov.point_at(e, lo, proper.level),
        e_high=prov.point_at(e, hi, proper.level),
        f_low=prov.point_at(f, lo, proper.level),
        f_high=prov.point_at(f, hi, proper.level),
        low=lo,
        high=hi,
    )
