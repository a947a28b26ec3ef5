"""Constraint systems whose satisfiability characterizes (radial) level planarity.

The level system lives on pair-order variables "u left of w" for same-level
vertices.  The radial system lives on anchored triple variables "a, u, v
clockwise" plus left flags for edges sharing an endpoint with a gap's
reference edge.  Both come in a reduced flavour that holds only the XOR
equations, which is what gets solved, and a full flavour that adds the
transitivity clauses on top.

Each reduced builder numbers its variables once and gives its equations as
integer rows over that numbering, made on each read by an `xorsat.RowSource`:
the consistency rows x(u,w) + x(w,u) = 1 and t(a,u,v) + t(a,v,u) = 1 as twin
pairs, which say only that one variable is the other's negation, and the
other rows as a stream in build order; a level or gap too small to give a
row makes no run.  A system holds that one source; a decision solves it,
and `rows` is a property that makes the row list, once, only when read.
The system a builder returns carries the numbering (`number`, and in
radial mode the ordered `flag` map), which the full builders reuse for
their clauses and the lifts read, and lists the numbering's points in index
order (`points`): the pairs (u, w) or the anchored triples (a, u, v).  The
flagged edges are not points; they are `flag`'s keys and take the last
indices.  Code that works on a whole assignment, such as the drawing
layer's round trip, reads bits point by point in that order, then flag by
flag.  A system holds its variable count, not its variables: the variable
objects are spelled from the points and flags only when something reads
them, to print equations and clauses or to name violations.

A reference selection found valid for a graph is recorded as checked against
that graph (`record_checked_refs`), so no later builder or oracle scans it
again for the same graph.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import chain, combinations, permutations, starmap

from .graphs import Edge, LevelGraph, VertexId, record_checked, require_valid
from .xorsat import RowSource, row_problem


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


Row = tuple[tuple[int, ...], int]
Clause = tuple[int, int, int, bool]


def _check_rows(n: int, rows: list[Row]) -> None:
    for idx, parity in rows:
        if idx and (min(idx) < 0 or max(idx) >= n) or parity not in (0, 1):
            raise ValueError(row_problem(n, idx, parity))


@dataclass
class ConstraintSystem:
    """A variable count, XOR rows and transitivity clauses over the variable
    indices 0..n-1.  A row (indices, parity) states that the indexed
    variables sum to the parity; a clause (a, b, head, negated) that a and b
    together force the head, or its negation when negated.  `points` yields
    what the first indices name, in index order: a pair (u, w) or an
    anchored triple (a, u, v); `flag` maps each flagged edge, in index order,
    to its left flag's index, and the flags take the last indices.
    `number(u, w)` or `number(a, u, v)` is the index of a pair or anchored
    triple.  `source` is the rows' `RowSource`, which `xorsat.solve` reads;
    `rows` is the list, made and checked on first read."""

    n: int
    points: Callable[[], Iterable[tuple]]
    source: RowSource
    clauses: list[Clause]
    meta: str
    number: Callable[..., int] | None = None
    flag: dict[Edge, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = self.n
        for cl in self.clauses:
            if min(cl[:3]) < 0 or max(cl[:3]) >= n:
                raise ValueError(f"clause {cl} references an undeclared variable index, {n} declared")

    @cached_property
    def rows(self) -> list[Row]:
        """The rows in build order, made once; `source` then reads the runs as made."""
        runs = [(twins, list(run)) for twins, run in self.source.runs()]
        self.source = RowSource(lambda: runs)
        rows = list(self.source)
        _check_rows(self.n, rows)
        self.source.count = len(rows)
        return rows

    @cached_property
    def variables(self) -> tuple[BoolVar, ...]:
        """The variable objects in index order, spelled from the points and
        flags on first use."""
        spelled = (TripleVar(*p) if len(p) == 3 else PairVar(*p) for p in self.points())
        return (*spelled, *starmap(FlagVar, self.flag))

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


def assignment_values(system: ConstraintSystem, a: Mapping[BoolVar, bool] | list[bool]) -> list[bool]:
    """The values a total assignment gives the system's variables, in index
    order; a bit list is those values already, once its length is right."""
    if isinstance(a, list):
        if len(a) != system.n:
            raise ValueError(f"assignment has {len(a)} bits, {system.meta} has {system.n} variables")
        return a
    try:
        return [a[v] for v in system.variables]
    except KeyError:
        missing = [v for v in system.variables if v not in a]
        raise ValueError(f"assignment is partial, missing {missing[0]} and {len(missing) - 1} more") from None


def evaluate(system: ConstraintSystem,
             a: Mapping[BoolVar, bool] | list[bool]) -> list[XorEquation | TransitivityClause]:
    """All violated constraints under a total assignment, given as a mapping
    or as a bit list; only violated ones get spelled out."""
    vals = assignment_values(system, a)
    bad: list[XorEquation | TransitivityClause] = [
        system.xors[r] for r, (idx, parity) in enumerate(system.rows)
        if sum(map(vals.__getitem__, idx)) & 1 != parity
    ]
    bad.extend(system.transitivity[c] for c, (x, y, head, negated) in enumerate(system.clauses)
               if vals[x] and vals[y] and vals[head] != (not negated))
    return bad


# ---------------------------------------------------------------------------
# Level systems


PairTable = dict[VertexId, tuple[int, int]]


def pair_numbering(g: LevelGraph) -> tuple[Callable[[VertexId, VertexId], int], PairTable]:
    """The index of PairVar(u, w) in the level systems of g: levels in
    ascending order, each level's ordered pairs in `permutations` order.
    Returns the index function and the table it reads: each vertex's first
    pair index and its position on its level."""
    at: PairTable = {}
    count = 0
    for vs in g.by_level.values():
        stride = len(vs) - 1
        for p, v in enumerate(vs):
            at[v] = (count + p * stride, p)
        count += len(vs) * stride

    def number(u: VertexId, w: VertexId) -> int:
        first, pu = at[u]
        pw = at[w][1]
        return first + pw - (pw > pu)

    return number, at


def _twins(first: int, m: int) -> Iterator[tuple[int, int]]:
    """The consistency rows of a block that numbers the ordered pairs of m
    items from `first` in `permutations` order, in `combinations` order: for
    p < q, the indices of (p, q) and (q, p) as a twin pair (lo, hi)."""
    s = m - 1
    return ((first + p * s + q - 1, first + q * s + p) for p in range(m) for q in range(p + 1, m))


def build_level_reduced(g: LevelGraph) -> ConstraintSystem:
    """Pair-order variables, consistency XORs as twins, planarity XORs."""
    require_valid(g, proper=True)
    number, at = pair_numbering(g)
    blocks = [(at[vs[0]][0], len(vs)) for vs in g.by_level.values() if len(vs) > 1]  # each level's first index
    gaps = [gap for gap in g.by_gap.values() if len(gap) > 1]

    def gap_rows() -> Iterator[Row]:
        # a proper gap's edges are independent when both endpoints differ,
        # that is when their tails' and their heads' positions differ
        for gap in gaps:
            ends = [(at[u], at[v]) for u, v in gap]
            for ((fu, pu), (fv, pv)), ((fw, pw), (fx, px)) in combinations(ends, 2):
                if pu != pw and pv != px:
                    yield (fu + pw - (pw > pu), fv + px - (px > pv)), 0

    def runs():
        if blocks:
            yield True, chain.from_iterable(starmap(_twins, blocks))
        if gaps:
            yield False, gap_rows()

    def points() -> Iterator[tuple[VertexId, VertexId]]:
        return chain.from_iterable(permutations(vs, 2) for vs in g.by_level.values())

    return ConstraintSystem(sum(len(vs) * (len(vs) - 1) for vs in g.by_level.values()), points, RowSource(runs),
                            [], "level-reduced", number)


def build_level_full(g: LevelGraph) -> ConstraintSystem:
    """The reduced level system plus its transitivity clauses."""
    reduced = build_level_reduced(g)
    number = reduced.number
    clauses = [(number(u, w), number(w, y), number(u, y), False)
               for vs in g.by_level.values()
               for u, w, y in permutations(vs, 3)]
    return replace(reduced, clauses=clauses, meta="level-full")


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


def anchor_problems(g: LevelGraph, alpha_plus: dict[int, VertexId], alpha_minus: dict[int, VertexId],
                    i: int) -> list[str]:
    """Level i's missing anchors, and its anchors that do not lie on level i."""
    problems = []
    for name, m in (("plus", alpha_plus), ("minus", alpha_minus)):
        v = m.get(i)
        if v is None:
            problems.append(f"level {i} has no {name} anchor")
        elif g.level.get(v) != i:
            problems.append(f"{name} anchor {v!r} does not lie on level {i}")
    return problems


def validate_reference_sets(g: LevelGraph, refs: ReferenceSets) -> list[str]:
    problems = [p for i in range(1, g.k + 1) for p in anchor_problems(g, refs.alpha_plus, refs.alpha_minus, i)]
    if g.k >= 1 and refs.alpha_plus.get(1) != refs.alpha_minus.get(1):
        problems.append("anchors on level 1 must coincide")
    if refs.alpha_plus.get(g.k) != refs.alpha_minus.get(g.k):
        problems.append(f"anchors on level {g.k} must coincide")
    edge_set = set(g.edges)
    for i in range(1, g.k):
        e = (refs.alpha_plus.get(i), refs.alpha_minus.get(i + 1))
        if None not in e and e not in edge_set:  # a missing anchor is reported above
            problems.append(f"reference edge {e} missing from graph")
    return problems


def record_checked_refs(refs: ReferenceSets, g: LevelGraph) -> ReferenceSets:
    """Record refs, found valid for g, as checked against g, so that
    `require_reference_sets` does not scan them again for g; as
    `graphs.record_checked` does for graphs.  The record is no field: it
    takes no part in comparing selections."""
    object.__setattr__(refs, "_checked_against", g)
    return refs


def require_reference_sets(g: LevelGraph, refs: ReferenceSets) -> None:
    """Refuse reference sets in which `validate_reference_sets` finds a
    problem; sets already checked against g are not scanned again, and sets
    that pass are recorded as checked against g."""
    if refs.__dict__.get("_checked_against") is g:
        return
    problems = validate_reference_sets(g, refs)
    if problems:
        raise ValueError("invalid reference sets: " + "; ".join(problems))
    record_checked_refs(refs, g)


def choose_reference_sets(g: LevelGraph, *, largest: bool = False) -> tuple[ReferenceSets, LevelGraph]:
    """Deterministic anchor selection; returns the anchors and the augmented graph.

    Scans gaps bottom-up taking the lexicographically smallest existing edge
    as the gap's reference edge (largest=True flips the tie-break, giving a
    second valid choice when one exists).  A gap with no edges gets a fresh
    reference edge between the extreme-id vertices of its two levels.  A
    graph with no level has nothing to anchor: its reference sets are empty.
    """
    require_valid(g, proper=True)
    if not g.k:
        return record_checked_refs(ReferenceSets({}, {}), g), g
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
    aug = record_checked(g.with_edges(inserted), proper=True) if inserted else g  # each joins levels i and i + 1
    problems = validate_reference_sets(aug, refs)
    if problems:
        raise AssertionError(f"internal error: invalid reference selection: {problems}")
    return record_checked_refs(refs, aug), aug


def reference_set_variants(g: LevelGraph) -> list[tuple[ReferenceSets, LevelGraph]]:
    """The smallest-edge reference selection, then the largest-edge one if it differs."""
    variants = [choose_reference_sets(g)]
    alt = choose_reference_sets(g, largest=True)
    if alt[0] != variants[0][0]:
        variants.append(alt)
    return variants


# ---------------------------------------------------------------------------
# Radial systems


GapClasses = tuple[Edge, list[Edge], list[Edge], list[Edge]]


def gap_edge_classes(g: LevelGraph, refs: ReferenceSets, i: int) -> GapClasses:
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


def gap_flagged_edges(classes: GapClasses) -> list[Edge]:
    """A gap's edges that carry a left flag, from its `gap_edge_classes`: plus-adjacent before minus-adjacent."""
    _, _, plus_adj, minus_adj = classes
    return plus_adj + minus_adj


TripleNumber = Callable[[VertexId, VertexId, VertexId], int]
TripleTable = dict[VertexId, tuple[int, int, int]]


def _triple_blocks(g: LevelGraph, refs: ReferenceSets) -> tuple[TripleNumber, TripleTable, int]:
    """The index of TripleVar(a, u, v), the table it reads, and the number of
    triples.  Levels in ascending order, each level's anchors in
    `ReferenceSets.anchors` order, the ordered pairs of the other vertices in
    `permutations` order.  The table gives each anchor's first index, its
    position on its level and its block's stride."""
    pos: dict[VertexId, int] = {}
    block: TripleTable = {}
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

    return number, block, count


def build_radial_reduced(g: LevelGraph, refs: ReferenceSets) -> ConstraintSystem:
    """Anchored linear-order consistency as twins, cyclic coupling, and gap
    planarity XORs.  The flags are numbered after the triples: gap by gap,
    each in `gap_flagged_edges` order."""
    require_valid(g, proper=True)
    require_reference_sets(g, refs)
    number, block, triples = _triple_blocks(g, refs)
    gaps = [gap_edge_classes(g, refs, i) for i in range(1, g.k)]
    flag = {e: triples + f for f, e in enumerate(e for classes in gaps for e in gap_flagged_edges(classes))}
    # the gaps that give rows: two plain edges, or a flagged edge and a plain edge or one of the other class
    row_gaps = [(eps, plain, plus_adj, minus_adj) for eps, plain, plus_adj, minus_adj in gaps
                if len(plain) > 1 or plus_adj and (plain or minus_adj) or minus_adj and plain]

    def gap_rows() -> Iterator[Row]:
        for (ap, am_next), plain, plus_adj, minus_adj in row_gaps:
            # a proper gap's edges are independent when both endpoints differ
            for (u, v), (w, x) in combinations(plain, 2):
                if u != w and v != x:
                    yield (number(ap, u, w), number(am_next, v, x)), 0
            for e in plus_adj:
                for f in minus_adj:
                    yield (flag[e], flag[f]), 1
            for e in plus_adj:
                for u, v in plain:
                    if v != e[1]:
                        yield (flag[e], number(am_next, v, e[1])), 0
            for f in minus_adj:
                for u, v in plain:
                    if u != f[0]:
                        yield (flag[f], number(ap, u, f[0])), 0

    # per level: its anchors, the first index of each anchor's block, which
    # orders the level's m other vertices, and, where the anchors differ, the
    # index of t(am, v, ap) for each vertex v besides them
    levels = []
    for i in range(1, g.k + 1):
        vs, anchors = g.on_level(i), refs.anchors(i)
        am, ap = anchors[0], anchors[-1]
        levels.append((anchors, [block[a][0] for a in anchors], len(vs) - 1,
                       {v: number(am, v, ap) for v in vs if v not in anchors} if am != ap else None))

    def runs():
        for anchors, blocks, m, before_ap in levels:
            if m > 1:
                yield True, chain.from_iterable(_twins(b, m) for b in blocks)
            if before_ap:
                am, ap = anchors
                yield False, chain((((number(am, u, v), number(ap, u, v), before_ap[u], before_ap[v]), 0)
                                    for u, v in permutations(before_ap, 2)),
                                   (((t, number(ap, am, v)), 0) for v, t in before_ap.items()))
        if row_gaps:
            yield False, gap_rows()

    def points() -> Iterator[tuple[VertexId, VertexId, VertexId]]:
        return ((a, u, v) for i, vs in g.by_level.items() for a in refs.anchors(i)
                for u, v in permutations([x for x in vs if x != a], 2))

    return ConstraintSystem(triples + len(flag), points, RowSource(runs), [], "radial-reduced", number, flag)


def build_radial_full(g: LevelGraph, refs: ReferenceSets) -> ConstraintSystem:
    """The reduced radial system plus its transitivity clauses.

    Transitivity clauses are written with a rotated negated head (anchor,u,v
    and anchor,v,w together forbid anchor,w,u), which pins the anchored order
    to a linearization of the circle.
    """
    reduced = build_radial_reduced(g, refs)
    number = reduced.number
    clauses = [(number(a, u, v), number(a, v, w), number(a, w, u), True)
               for i in range(1, g.k + 1)
               for a in refs.anchors(i)
               for u, v, w in permutations([x for x in g.on_level(i) if x != a], 3)]
    return replace(reduced, clauses=clauses, meta="radial-full")
