"""Constraint systems whose satisfiability characterizes (radial) level planarity.

The level system lives on pair-order variables "u left of w" for same-level
vertices.  The radial system lives on anchored triple variables "a, u, v
clockwise" plus left flags for edges sharing an endpoint with a gap's
reference edge.  Both come in a reduced flavour that holds only the XOR
equations, which is what gets solved, and a full flavour that adds the
transitivity clauses on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations

from .graphs import Edge, LevelGraph, VertexId, independent, require_valid


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


@dataclass
class ConstraintSystem:
    """Variables, XOR equations and transitivity clauses; `rows` holds each
    equation as (variable indices, parity), in the order of `xors`."""

    variables: tuple[BoolVar, ...]
    xors: list[XorEquation]
    transitivity: list[TransitivityClause]
    meta: str
    index: dict[BoolVar, int] = field(init=False, repr=False)
    rows: list[tuple[tuple[int, ...], int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.index = index = {v: i for i, v in enumerate(self.variables)}
        self.rows = rows = []
        for eq in self.xors:
            idx = tuple(map(index.get, eq.vars))
            if None in idx:
                raise ValueError(f"equation references undeclared variable {eq.vars[idx.index(None)]}")
            rows.append((idx, eq.parity))
        for cl in self.transitivity:
            for v in (cl.a, cl.b, cl.head):
                if v not in self.index:
                    raise ValueError(f"clause references undeclared variable {v}")


def evaluate(system: ConstraintSystem, a: Assignment) -> list[XorEquation | TransitivityClause]:
    """All violated constraints under a total assignment."""
    try:
        values = [a[v] for v in system.variables]
    except KeyError:
        missing = [v for v in system.variables if v not in a]
        raise ValueError(f"assignment is partial, missing {missing[0]} and {len(missing) - 1} more") from None
    bad: list[XorEquation | TransitivityClause] = [
        eq for eq, (idx, parity) in zip(system.xors, system.rows)
        if sum(map(values.__getitem__, idx)) & 1 != parity
    ]
    for cl in system.transitivity:
        if a[cl.a] and a[cl.b] and a[cl.head] != (not cl.negated_head):
            bad.append(cl)
    return bad


# ---------------------------------------------------------------------------
# Level systems


def build_level_reduced(g: LevelGraph) -> ConstraintSystem:
    """Pair-order variables, consistency XORs, planarity XORs."""
    require_valid(g, proper=True)
    variables: list[BoolVar] = []
    xors: list[XorEquation] = []
    for vs in g.by_level.values():
        for u, w in permutations(vs, 2):
            variables.append(PairVar(u, w))
        for u, w in combinations(vs, 2):
            xors.append(XorEquation((PairVar(u, w), PairVar(w, u)), 1))
    for gap in g.by_gap.values():
        for (u, v), (w, x) in combinations(gap, 2):
            if independent((u, v), (w, x)):
                xors.append(XorEquation((PairVar(u, w), PairVar(v, x)), 0))
    return ConstraintSystem(tuple(variables), xors, [], "level-reduced")


def build_level_full(g: LevelGraph) -> ConstraintSystem:
    """The reduced level system plus its transitivity clauses."""
    reduced = build_level_reduced(g)
    trans = [
        TransitivityClause(PairVar(u, w), PairVar(w, y), PairVar(u, y))
        for vs in g.by_level.values()
        for u, w, y in permutations(vs, 3)
    ]
    return ConstraintSystem(reduced.variables, reduced.xors, trans, "level-full")


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


def reference_set_variants(g: LevelGraph, count: int = 2) -> list[tuple[ReferenceSets, LevelGraph]]:
    """Up to `count` distinct valid reference selections for the same graph."""
    variants = [choose_reference_sets(g)]
    if count > 1:
        alt = choose_reference_sets(g, largest=True)
        if alt[0] != variants[0][0]:
            variants.append(alt)
    return variants[:count]


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


def build_radial_reduced(g: LevelGraph, refs: ReferenceSets) -> ConstraintSystem:
    """Anchored linear-order consistency, cyclic coupling, and gap planarity XORs."""
    require_valid(g, proper=True)
    problems = validate_reference_sets(g, refs)
    if problems:
        raise ValueError("invalid reference sets: " + "; ".join(problems))
    variables: list[BoolVar] = []
    xors: list[XorEquation] = []
    for i in range(1, g.k + 1):
        vs = g.on_level(i)
        for a in refs.anchors(i):
            others = [v for v in vs if v != a]
            for u, v in permutations(others, 2):
                variables.append(TripleVar(a, u, v))
            for u, v in combinations(others, 2):
                xors.append(XorEquation((TripleVar(a, u, v), TripleVar(a, v, u)), 1))
        ap, am = refs.alpha_plus[i], refs.alpha_minus[i]
        if ap != am:
            others = [v for v in vs if v not in (ap, am)]
            for u, v in permutations(others, 2):
                xors.append(
                    XorEquation(
                        (TripleVar(am, u, v), TripleVar(ap, u, v), TripleVar(am, u, ap), TripleVar(am, v, ap)), 0
                    )
                )
            for v in others:
                xors.append(XorEquation((TripleVar(am, v, ap), TripleVar(ap, am, v)), 0))
    for i in range(1, g.k):
        eps, plain, plus_adj, minus_adj = gap_edge_classes(g, refs, i)
        ap, am_next = eps
        for e in plus_adj:
            variables.append(FlagVar(*e))
        for e in minus_adj:
            variables.append(FlagVar(*e))
        for (u, v), (w, x) in combinations(plain, 2):
            if independent((u, v), (w, x)):
                xors.append(XorEquation((TripleVar(ap, u, w), TripleVar(am_next, v, x)), 0))
        for e in plus_adj:
            for f in minus_adj:
                xors.append(XorEquation((FlagVar(*e), FlagVar(*f)), 1))
        for e in plus_adj:
            for (u, v) in plain:
                if independent(e, (u, v)):
                    xors.append(XorEquation((FlagVar(*e), TripleVar(am_next, v, e[1])), 0))
        for f in minus_adj:
            for (u, v) in plain:
                if independent(f, (u, v)):
                    xors.append(XorEquation((FlagVar(*f), TripleVar(ap, u, f[0])), 0))
    return ConstraintSystem(tuple(variables), xors, [], "radial-reduced")


def build_radial_full(g: LevelGraph, refs: ReferenceSets) -> ConstraintSystem:
    """The reduced radial system plus its transitivity clauses.

    Transitivity clauses are written with a rotated negated head (anchor,u,v
    and anchor,v,w together forbid anchor,w,u), which pins the anchored order
    to a linearization of the circle.
    """
    reduced = build_radial_reduced(g, refs)
    trans = [
        TransitivityClause(TripleVar(a, u, v), TripleVar(a, v, w), TripleVar(a, w, u), negated_head=True)
        for i in range(1, g.k + 1)
        for a in refs.anchors(i)
        for u, v, w in permutations([x for x in g.on_level(i) if x != a], 3)
    ]
    return ConstraintSystem(reduced.variables, reduced.xors, trans, "radial-full")
