"""Constraint systems whose satisfiability characterizes (radial) level planarity.

The level system lives on pair-order variables "u left of w" for same-level
vertices.  The radial system lives on anchored triple variables "a, u, v
clockwise" plus left flags for edges sharing an endpoint with a gap's
reference edge.  Both come in a reduced flavour that holds only the XOR
equations, which is what gets solved, and a full flavour that adds the
transitivity clauses on top.

Each mode numbers its variables once (`pair_numbering`, `triple_numbering`);
the builders emit their equations as integer rows and their clauses as
integer tuples over that numbering, and the variable objects serve only to
print equations and clauses and to name violations.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, permutations

from .graphs import Edge, LevelGraph, VertexId, require_valid


@dataclass(frozen=True, order=True)
class PairVar:
    """True when u lies left of w on their shared level."""

    u: VertexId
    w: VertexId

    def __str__(self) -> str:
        return f"x({self.u},{self.w})"


@dataclass(frozen=True, order=True)
class TripleVar:
    """True when anchor, u, v appear clockwise on their level's circle."""

    anchor: VertexId
    u: VertexId
    v: VertexId

    def __str__(self) -> str:
        return f"t({self.anchor},{self.u},{self.v})"


@dataclass(frozen=True, order=True)
class FlagVar:
    """True when the edge is routed locally left of its gap's reference edge."""

    tail: VertexId
    head: VertexId

    def __str__(self) -> str:
        return f"l({self.tail},{self.head})"

    @property
    def edge(self) -> Edge:
        return (self.tail, self.head)


BoolVar = PairVar | TripleVar | FlagVar


@dataclass(frozen=True)
class XorEquation:
    vars: tuple[BoolVar, ...]
    parity: int

    def __str__(self) -> str:
        return " + ".join(str(v) for v in self.vars) + f" = {self.parity}"


@dataclass(frozen=True)
class TransitivityClause:
    """a and b together force the head (or its negation when negated_head)."""

    a: BoolVar
    b: BoolVar
    head: BoolVar
    negated_head: bool = False

    def __str__(self) -> str:
        neg = "!" if self.negated_head else ""
        return f"{self.a} & {self.b} -> {neg}{self.head}"


Assignment = dict[BoolVar, bool]


Row = tuple[tuple[int, ...], int]
Clause = tuple[int, int, int, bool]


@dataclass
class ConstraintSystem:
    """Variables, XOR rows and transitivity clauses, over variable indices,
    checked here once.  A row (indices, parity) states that the indexed
    variables sum to the parity; a clause (a, b, head, negated) that a and b
    together force the head, or its negation when negated."""

    variables: tuple[BoolVar, ...]
    rows: list[Row]
    clauses: list[Clause]
    meta: str

    def __post_init__(self) -> None:
        n = len(self.variables)
        for idx, parity in self.rows:
            if idx and (min(idx) < 0 or max(idx) >= n):
                raise ValueError(f"row {idx} references an undeclared variable index, {n} declared")
            if parity not in (0, 1):
                raise ValueError(f"row {idx} has parity {parity!r}, not 0 or 1")
        for cl in self.clauses:
            if min(cl[:3]) < 0 or max(cl[:3]) >= n:
                raise ValueError(f"clause {cl} references an undeclared variable index, {n} declared")

    @cached_property
    def xors(self) -> list[XorEquation]:
        """The rows spelled out as equations over the variable objects."""
        var = self.variables
        return [XorEquation(tuple(map(var.__getitem__, idx)), parity) for idx, parity in self.rows]

    @cached_property
    def transitivity(self) -> list[TransitivityClause]:
        """The clauses spelled out over the variable objects."""
        var = self.variables
        return [TransitivityClause(var[a], var[b], var[head], negated) for a, b, head, negated in self.clauses]


def assignment_values(system: ConstraintSystem, a: Assignment) -> list[bool]:
    """The values a total assignment gives the system's variables, in order."""
    try:
        return [a[v] for v in system.variables]
    except KeyError:
        missing = [v for v in system.variables if v not in a]
        raise ValueError(f"assignment is partial, missing {missing[0]} and {len(missing) - 1} more") from None


def evaluate(system: ConstraintSystem, a: Assignment | list[bool]) -> list[XorEquation | TransitivityClause]:
    """All violated constraints under a total assignment, given as a mapping
    or as its `assignment_values`; only violated ones get spelled out."""
    vals = a if isinstance(a, list) else assignment_values(system, a)
    bad: list[XorEquation | TransitivityClause] = [
        system.xors[r] for r, (idx, parity) in enumerate(system.rows)
        if sum(map(vals.__getitem__, idx)) & 1 != parity
    ]
    bad.extend(system.transitivity[c] for c, (x, y, head, negated) in enumerate(system.clauses)
               if vals[x] and vals[y] and vals[head] != (not negated))
    return bad


# ---------------------------------------------------------------------------
# Level systems


def pair_numbering(g: LevelGraph) -> Callable[[VertexId, VertexId], int]:
    """The index of PairVar(u, w) in the level systems of g: levels in
    ascending order, each level's ordered pairs in `permutations` order."""
    pos: dict[VertexId, int] = {}
    block: dict[VertexId, int] = {}  # index of u's first pair
    count = 0
    for vs in g.by_level.values():
        stride = len(vs) - 1
        for p, v in enumerate(vs):
            pos[v] = p
            block[v] = count + p * stride
        count += len(vs) * stride

    def number(u: VertexId, w: VertexId) -> int:
        pw = pos[w]
        return block[u] + pw - (pw > pos[u])

    return number


def build_level_reduced(g: LevelGraph) -> ConstraintSystem:
    """Pair-order variables, consistency XORs, planarity XORs."""
    require_valid(g, proper=True)
    number = pair_numbering(g)
    variables: list[BoolVar] = []
    rows: list[Row] = []
    for vs in g.by_level.values():
        variables.extend(PairVar(u, w) for u, w in permutations(vs, 2))
        rows.extend(((number(u, w), number(w, u)), 1) for u, w in combinations(vs, 2))
    for gap in g.by_gap.values():
        # a proper gap's edges are independent when both endpoints differ
        rows.extend(((number(u, w), number(v, x)), 0)
                    for (u, v), (w, x) in combinations(gap, 2) if u != w and v != x)
    return ConstraintSystem(tuple(variables), rows, [], "level-reduced")


def build_level_full(g: LevelGraph) -> ConstraintSystem:
    """The reduced level system plus its transitivity clauses."""
    reduced = build_level_reduced(g)
    number = pair_numbering(g)
    clauses = [(number(u, w), number(w, y), number(u, y), False)
               for vs in g.by_level.values()
               for u, w, y in permutations(vs, 3)]
    return ConstraintSystem(reduced.variables, reduced.rows, clauses, "level-full")


def count_transitivity(g: LevelGraph, refs: ReferenceSets | None = None) -> int:
    """The number of transitivity clauses of g's full level system, or with
    `refs` of its full radial system, without building either: one clause per
    ordered triple of a level's vertices, or per anchor of a level and
    ordered triple of the level's other vertices."""
    if refs is None:
        return sum(w * (w - 1) * (w - 2) for w in map(len, g.by_level.values()))
    return sum(len(refs.anchors(i)) * (len(vs) - 1) * (len(vs) - 2) * (len(vs) - 3)
               for i, vs in g.by_level.items())


# ---------------------------------------------------------------------------
# Reference sets


@dataclass(frozen=True)
class ReferenceSets:
    """Per-level anchor vertices joined by the reference edges of each gap.

    The two anchors coincide on the first and last level, and for every gap
    the edge (plus anchor of i, minus anchor of i+1) exists in the (possibly
    augmented) graph.  Gaps of the input with no edges at all get a fresh
    reference edge, recorded in inserted.
    """

    alpha_plus: dict[int, VertexId]
    alpha_minus: dict[int, VertexId]
    inserted: tuple[Edge, ...] = ()

    def reference_edge(self, i: int) -> Edge:
        return (self.alpha_plus[i], self.alpha_minus[i + 1])

    def anchors(self, i: int) -> tuple[VertexId, ...]:
        ap, am = self.alpha_plus[i], self.alpha_minus[i]
        return (am,) if ap == am else (am, ap)


def validate_reference_sets(g: LevelGraph, refs: ReferenceSets) -> list[str]:
    problems = []
    for i in range(1, g.k + 1):
        for name, m in (("plus", refs.alpha_plus), ("minus", refs.alpha_minus)):
            v = m.get(i)
            if v is None:
                problems.append(f"level {i} has no {name} anchor")
            elif g.level.get(v) != i:
                problems.append(f"{name} anchor {v!r} does not lie on level {i}")
    if g.k >= 1 and refs.alpha_plus.get(1) != refs.alpha_minus.get(1):
        problems.append("anchors on level 1 must coincide")
    if refs.alpha_plus.get(g.k) != refs.alpha_minus.get(g.k):
        problems.append(f"anchors on level {g.k} must coincide")
    edge_set = set(g.edges)
    for i in range(1, g.k):
        if refs.reference_edge(i) not in edge_set:
            problems.append(f"reference edge {refs.reference_edge(i)} missing from graph")
    return problems


def choose_reference_sets(g: LevelGraph, *, largest: bool = False) -> tuple[ReferenceSets, LevelGraph]:
    """Deterministic anchor selection; returns the anchors and the augmented graph.

    Scans gaps bottom-up taking the lexicographically smallest existing edge
    as the gap's reference edge (largest=True flips the tie-break, giving a
    second valid choice when one exists).  A gap with no edges gets a fresh
    reference edge between the extreme-id vertices of its two levels.
    """
    require_valid(g, proper=True)
    pick = max if largest else min
    for i in range(1, g.k + 1):
        if not g.on_level(i):
            raise ValueError(f"level {i} is empty, radial reference selection needs every level nonempty")
    inserted: list[Edge] = []
    ref_edges: dict[int, Edge] = {}
    for i in range(1, g.k):
        gap = g.gap_edges(i)
        if gap:
            ref_edges[i] = pick(gap)
        else:
            e = (pick(g.on_level(i)), pick(g.on_level(i + 1)))
            ref_edges[i] = e
            inserted.append(e)
    alpha_plus: dict[int, VertexId] = {}
    alpha_minus: dict[int, VertexId] = {}
    for i in range(1, g.k):
        alpha_plus[i] = ref_edges[i][0]
        alpha_minus[i + 1] = ref_edges[i][1]
    alpha_minus[1] = alpha_plus[1] if g.k > 1 else pick(g.on_level(1))
    alpha_plus[g.k] = alpha_minus[g.k] if g.k > 1 else alpha_minus[1]
    refs = ReferenceSets(alpha_plus, alpha_minus, tuple(inserted))
    aug = g.with_edges(inserted) if inserted else g
    problems = validate_reference_sets(aug, refs)
    if problems:
        raise AssertionError(f"internal error: invalid reference selection: {problems}")
    return refs, aug


def reference_set_variants(g: LevelGraph) -> list[tuple[ReferenceSets, LevelGraph]]:
    """The smallest-edge reference selection, then the largest-edge one if it differs."""
    variants = [choose_reference_sets(g)]
    alt = choose_reference_sets(g, largest=True)
    if alt[0] != variants[0][0]:
        variants.append(alt)
    return variants


# ---------------------------------------------------------------------------
# Radial systems


def gap_edge_classes(g: LevelGraph, refs: ReferenceSets, i: int) -> tuple[Edge, list[Edge], list[Edge], list[Edge]]:
    """Split gap i's edges into (reference edge, plain, plus-adjacent, minus-adjacent)."""
    eps = refs.reference_edge(i)
    plain: list[Edge] = []
    plus_adj: list[Edge] = []
    minus_adj: list[Edge] = []
    for e in g.gap_edges(i):
        if e == eps:
            continue
        if e[0] == eps[0]:
            plus_adj.append(e)
        elif e[1] == eps[1]:
            minus_adj.append(e)
        else:
            plain.append(e)
    return eps, plain, plus_adj, minus_adj


def flagged_edges(g: LevelGraph, refs: ReferenceSets) -> list[Edge]:
    """The edges that carry a left flag: gap by gap, plus-adjacent before minus-adjacent."""
    out: list[Edge] = []
    for i in range(1, g.k):
        _, _, plus_adj, minus_adj = gap_edge_classes(g, refs, i)
        out += plus_adj + minus_adj
    return out


TripleNumber = Callable[[VertexId, VertexId, VertexId], int]


def _triple_blocks(g: LevelGraph, refs: ReferenceSets) -> tuple[TripleNumber, int]:
    """The index of TripleVar(a, u, v), and the number of triples."""
    pos: dict[VertexId, int] = {}
    block: dict[VertexId, tuple[int, int, int]] = {}  # anchor: first index, position, stride
    count = 0
    for i, vs in g.by_level.items():
        for p, v in enumerate(vs):
            pos[v] = p
        for a in refs.anchors(i):
            block[a] = (count, pos[a], len(vs) - 2)
            count += (len(vs) - 1) * (len(vs) - 2)

    def number(a: VertexId, u: VertexId, v: VertexId) -> int:
        first, pa, stride = block[a]
        pu, pv = pos[u], pos[v]
        pu -= pu > pa
        pv -= pv > pa
        return first + pu * stride + pv - (pv > pu)

    return number, count


def triple_numbering(g: LevelGraph, refs: ReferenceSets) -> tuple[TripleNumber, dict[Edge, int]]:
    """The index of TripleVar(a, u, v) in the radial systems of g, and of
    FlagVar(*e) by edge e.  Triples come first: levels in ascending order,
    each level's anchors in `ReferenceSets.anchors` order, the ordered pairs
    of the other vertices in `permutations` order.  Then the flags, gap by
    gap, plus-adjacent edges before minus-adjacent ones."""
    number, count = _triple_blocks(g, refs)
    return number, {e: count + n for n, e in enumerate(flagged_edges(g, refs))}


def build_radial_reduced(g: LevelGraph, refs: ReferenceSets) -> ConstraintSystem:
    """Anchored linear-order consistency, cyclic coupling, and gap planarity XORs."""
    require_valid(g, proper=True)
    problems = validate_reference_sets(g, refs)
    if problems:
        raise ValueError("invalid reference sets: " + "; ".join(problems))
    number, _ = _triple_blocks(g, refs)
    variables: list[BoolVar] = []
    rows: list[Row] = []
    for i in range(1, g.k + 1):
        vs = g.on_level(i)
        for a in refs.anchors(i):
            others = [v for v in vs if v != a]
            variables.extend(TripleVar(a, u, v) for u, v in permutations(others, 2))
            rows.extend(((number(a, u, v), number(a, v, u)), 1) for u, v in combinations(others, 2))
        ap, am = refs.alpha_plus[i], refs.alpha_minus[i]
        if ap != am:
            others = [v for v in vs if v not in (ap, am)]
            rows.extend(((number(am, u, v), number(ap, u, v), number(am, u, ap), number(am, v, ap)), 0)
                        for u, v in permutations(others, 2))
            rows.extend(((number(am, v, ap), number(ap, am, v)), 0) for v in others)
    for i in range(1, g.k):
        eps, plain, plus_adj, minus_adj = gap_edge_classes(g, refs, i)
        ap, am_next = eps
        flag: dict[Edge, int] = {}
        for e in plus_adj + minus_adj:
            flag[e] = len(variables)
            variables.append(FlagVar(*e))
        # a proper gap's edges are independent when both endpoints differ
        rows.extend(((number(ap, u, w), number(am_next, v, x)), 0)
                    for (u, v), (w, x) in combinations(plain, 2) if u != w and v != x)
        rows.extend(((flag[e], flag[f]), 1) for e in plus_adj for f in minus_adj)
        rows.extend(((flag[e], number(am_next, v, e[1])), 0)
                    for e in plus_adj for u, v in plain if v != e[1])
        rows.extend(((flag[f], number(ap, u, f[0])), 0)
                    for f in minus_adj for u, v in plain if u != f[0])
    return ConstraintSystem(tuple(variables), rows, [], "radial-reduced")


def build_radial_full(g: LevelGraph, refs: ReferenceSets) -> ConstraintSystem:
    """The reduced radial system plus its transitivity clauses.

    Transitivity clauses are written with a rotated negated head (anchor,u,v
    and anchor,v,w together forbid anchor,w,u), which pins the anchored order
    to a linearization of the circle.
    """
    reduced = build_radial_reduced(g, refs)
    number, _ = _triple_blocks(g, refs)
    clauses = [(number(a, u, v), number(a, v, w), number(a, w, u), True)
               for i in range(1, g.k + 1)
               for a in refs.anchors(i)
               for u, v, w in permutations([x for x in g.on_level(i) if x != a], 3)]
    return ConstraintSystem(reduced.variables, reduced.rows, clauses, "radial-full")
