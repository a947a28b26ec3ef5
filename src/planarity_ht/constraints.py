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
`runs` lists its runs once, in place, for a witness that reads them again,
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

Both builders number by one block rule (`_block`): a block holds the
ordered pairs of a list of vertices in `permutations` order, and each
vertex has an entry, its first pair index and its position.  The level
numbering has a block per level.  t(a, u, v) orders u and v on the level
cut at a, as x(u, v) orders them on a line, so the radial numbering has a
block per anchor, over its level's other vertices, and t(a, u, v) is the
pair (u, v) in a's block.  The rows read the entries too; one rule writes
the independent-pair rows of a gap from a tail and a head block.
`evaluate` reads the rows from the source through `xorsat.violated`, the
reader the solver checks its assignment with, and spells out only the
violated rows and clauses.

The default reference selection (`choose_reference_sets`) gives as many
middle levels as it can a single anchor, so that they get one block and no
coupling rows; `reference_set_variants` adds the smallest- and the
largest-edge selection, which the decision does not depend on either.
A reference selection found valid for a graph is recorded as checked against
that graph (`record_checked_refs`), so no later builder or oracle scans it
again for the same graph.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from itertools import chain, combinations, permutations, starmap

from .graphs import Edge, LevelGraph, VertexId, record_checked, require_valid
from .xorsat import RowSource, Run, row_problem, violated


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
    `runs` holds its runs as lists, made on first read, and `rows` the flat
    list, made and checked on first read."""

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
    def runs(self) -> list[Run]:
        """The source's runs in build order, each listed once; `source` then
        reads these lists, so the solve and `violated` read the rows as made."""
        runs = [(twins, list(run)) for twins, run in self.source.runs()]
        self.source = RowSource(lambda: runs)
        return runs

    @cached_property
    def rows(self) -> list[Row]:
        """The rows in build order, made and checked once, from `runs`."""
        self.runs
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
    or as a bit list.  The rows are read from the system's source by
    `xorsat.violated`, and only violated rows and clauses get spelled out."""
    vals = assignment_values(system, a)
    rows = list(violated(system.source.runs(), vals))
    clauses = [(x, y, head, negated) for x, y, head, negated in system.clauses
               if vals[x] and vals[y] and vals[head] != (not negated)]
    if not rows and not clauses:
        return []
    var = system.variables
    return [*(XorEquation(tuple(map(var.__getitem__, idx)), parity) for idx, parity in rows),
            *(TransitivityClause(var[x], var[y], var[head], negated) for x, y, head, negated in clauses)]


# ---------------------------------------------------------------------------
# Level systems


Block = dict[VertexId, tuple[int, int]]


def _block(vs: Sequence[VertexId], first: int, at: Block) -> int:
    """Number the ordered pairs of the items vs from `first` in `permutations`
    order: with m items, (u, w) at positions p and q is first + p(m - 1) + q,
    less one when q > p.  Writes each item's entry (its first pair index,
    its position) into `at` and returns the index after the block."""
    stride = len(vs) - 1
    for p, v in enumerate(vs):
        at[v] = (first + p * stride, p)
    return first + len(vs) * stride


def pair_numbering(g: LevelGraph) -> tuple[Callable[[VertexId, VertexId], int], Block]:
    """The index of PairVar(u, w) in the level systems of g: levels in
    ascending order, each level a block of its ordered pairs.  Returns the
    index function and the table it reads, every level's entries in one."""
    at: Block = {}
    count = 0
    for vs in g.by_level.values():
        count = _block(vs, count, at)

    def number(u: VertexId, w: VertexId) -> int:
        first, pu = at[u]
        pw = at[w][1]
        return first + pw - (pw > pu)

    return number, at


def _twins(ends: Iterable[tuple[int, int]]) -> Iterator[tuple[int, int]]:
    """The consistency rows of a block, from its items' entries in position
    order, in `combinations` order: for p < q, the indices of (p, q) and
    (q, p) as a twin pair (lo, hi)."""
    return ((fp + q - 1, fq + p) for (fp, p), (fq, q) in combinations(ends, 2))


def _independent_rows(edges: Iterable[Edge], tail: Block, head: Block) -> Iterator[Row]:
    """x(u, w) + x(v, y) = 0 for each two edges (u, v), (w, y) of a proper gap,
    in `combinations` order, that are independent: both their tails' and
    their heads' positions differ.  The tails' pairs are numbered by the
    block `tail`, the heads' by `head`."""
    ends = [(tail[u], head[v]) for u, v in edges]
    for ((fu, pu), (fv, pv)), ((_, pw), (_, py)) in combinations(ends, 2):
        if pu != pw and pv != py:
            yield (fu + pw - (pw > pu), fv + py - (py > pv)), 0


def build_level_reduced(g: LevelGraph) -> ConstraintSystem:
    """Pair-order variables, consistency XORs as twins, planarity XORs."""
    require_valid(g, proper=True)
    number, at = pair_numbering(g)
    blocks = [[at[v] for v in vs] for vs in g.by_level.values() if len(vs) > 1]
    gaps = [gap for gap in g.by_gap.values() if len(gap) > 1]

    def runs():
        if blocks:
            yield True, chain.from_iterable(map(_twins, blocks))
        if gaps:
            yield False, chain.from_iterable(_independent_rows(gap, at, at) for gap in gaps)

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
    level, plus, minus = g.level, refs.alpha_plus, refs.alpha_minus
    # a level whose two anchors lie on it has no anchor problem to list
    problems = [p for i in range(1, g.k + 1) if not level.get(plus.get(i)) == i == level.get(minus.get(i))
                for p in anchor_problems(g, plus, minus, i)]
    if g.k >= 1 and plus.get(1) != minus.get(1):
        problems.append("anchors on level 1 must coincide")
    if plus.get(g.k) != minus.get(g.k):
        problems.append(f"anchors on level {g.k} must coincide")
    for i in range(1, g.k):
        e = (plus.get(i), minus.get(i + 1))
        # a missing anchor is reported above; the edges leaving the tail's
        # level are all of the graph's edges that could be e
        if None not in e and e not in g.gap_edges(level.get(e[0])):
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


def _per_gap_edges(g: LevelGraph, pick: Callable = min) -> tuple[list[Edge], VertexId]:
    """Each gap's smallest edge, or with pick=max its largest; an edgeless
    gap gets an edge between the smallest (largest) vertices of its two
    levels.  Returns the edges gap by gap and the anchor of a graph of one
    level, level 1's smallest (largest) vertex."""
    edges = [pick(gap) if (gap := g.gap_edges(i)) else (pick(g.on_level(i)), pick(g.on_level(i + 1)))
             for i in range(1, g.k)]
    return edges, pick(g.on_level(1))


def _path_edges(g: LevelGraph) -> tuple[list[Edge], VertexId]:
    """The reference edges under which the most middle levels have one
    anchor, and of those the lexicographically smallest, gap by gap.

    Level i's anchors coincide when gap i - 1's reference edge ends where
    gap i's begins, so a best selection follows monotone paths as far as
    it can.  An edgeless gap may take any edge between its two levels.  A
    pass down the gaps finds, for each gap, the tails of the edges that
    reach the most coinciding levels above it (`starts`; None for an
    edgeless gap, whose every vertex does) and whether that gap's edges can
    gain the level above them at all (`gain`): the most levels above gap i
    are gain[i] + gain[i + 1] + ..., and an edge ending in starts[i + 1]
    gains level i + 1.  A pass up takes in each gap the smallest edge that
    keeps the best count.  An edgeless gap's edge starts at the anchor below
    it, which gains its level whatever the edge's head, or on gap 1 at level
    1's smallest vertex; its candidates run to each vertex of the level
    above.  Both passes are linear in the edges and vertices.  Returns the
    edges gap by gap and the anchor of a graph of one level, its smallest
    vertex."""
    k, by_gap, by_level = g.k, g.by_gap, g.by_level
    gain = [0] * (k + 1)
    starts: list[set[VertexId] | None] = [set()] * (k + 1)  # nothing starts past the top gap
    for i in range(k - 1, 0, -1):
        up, gap = starts[i + 1], by_gap.get(i)
        if not gap:
            gain[i], starts[i] = up is None or bool(up), None
            continue
        reaching = {t for t, h in gap if up is None or h in up}
        gain[i], starts[i] = bool(reaching), reaching or {t for t, _ in gap}
    edges: list[Edge] = []
    below = None
    for i in range(1, k):
        here, up = starts[i], starts[i + 1]
        # the levels this gap's edge must gain: its own gain, and one more
        # where the anchor below could gain level i
        need = gain[i] + (below is not None and (here is None or below in here))
        for t, h in by_gap.get(i) or [(below or by_level[i][0], h) for h in by_level[i + 1]]:
            if (t == below) + (up is None or h in up) == need:
                break
        edges.append((t, h))
        below = h
    return edges, by_level[1][0]


def _selections(g: LevelGraph, rules: Iterable[Callable[[LevelGraph], tuple[list[Edge], VertexId]]]
                ) -> list[tuple[ReferenceSets, LevelGraph]]:
    """The reference selections of g that the rules give, each with the
    graph augmented by the edges it inserts, in rule order and each only if
    it differs from every earlier one.  A rule gives the reference edges gap
    by gap and the anchor of a graph of one level.  A graph with no vertex
    has nothing to anchor: it is answered as the graph with no level, whose
    reference sets are empty."""
    require_valid(g, proper=True)
    if not g.level:
        empty = record_checked(LevelGraph(0, {}, ()), proper=True)
        return [(record_checked_refs(ReferenceSets({}, {}), empty), empty)]
    by_gap = g.by_gap
    if len(g.by_level) < g.k:
        i = next(i for i in range(1, g.k + 1) if i not in g.by_level)
        raise ValueError(f"level {i} is empty, radial reference selection needs every level nonempty")
    chosen: list[tuple[ReferenceSets, LevelGraph]] = []
    seen: list[ReferenceSets] = []
    for rule in rules:
        edges, lone = rule(g)
        alpha_plus: dict[int, VertexId] = {}
        alpha_minus: dict[int, VertexId] = {}
        inserted: list[Edge] = []
        for i, e in enumerate(edges, 1):
            alpha_plus[i], alpha_minus[i + 1] = e
            if i not in by_gap:
                inserted.append(e)
        alpha_minus[1] = alpha_plus[1] if edges else lone
        alpha_plus[g.k] = alpha_minus[g.k]
        refs = ReferenceSets(alpha_plus, alpha_minus, tuple(inserted))
        if refs in seen:
            continue
        seen.append(refs)
        aug = record_checked(g.with_edges(inserted), proper=True) if inserted else g  # each joins levels i and i + 1
        problems = validate_reference_sets(aug, refs)
        if problems:
            raise AssertionError(f"internal error: invalid reference selection: {problems}")
        chosen.append((record_checked_refs(refs, aug), aug))
    return chosen


def choose_reference_sets(g: LevelGraph) -> tuple[ReferenceSets, LevelGraph]:
    """The default reference selection and the augmented graph: of the
    selections under which the most middle levels have one anchor, the
    lexicographically smallest gap by gap (`_path_edges`).  Where each gap's
    smallest edge already gives that many, it is that selection."""
    (chosen,) = _selections(g, [_path_edges])
    return chosen


def reference_set_variants(g: LevelGraph) -> list[tuple[ReferenceSets, LevelGraph]]:
    """The default reference selection, then the smallest-edge one, then the
    largest-edge one, each only if it differs from every earlier one; the
    other two keep the coupling rows of levels with two anchors in play,
    which the default seldom builds."""
    return _selections(g, [_path_edges, _per_gap_edges, partial(_per_gap_edges, pick=max)])


# ---------------------------------------------------------------------------
# Radial systems


GapClasses = tuple[Edge | None, Sequence[Edge], Sequence[Edge], Sequence[Edge]]


def gap_edge_classes(g: LevelGraph, refs: ReferenceSets | None, i: int) -> GapClasses:
    """Split gap i's edges into (reference edge, plain, plus-adjacent, minus-adjacent).

    A level gap (refs None) is a radial gap without a reference edge: every
    edge is plain, `g.gap_edges(i)` itself, and none is flagged.
    """
    if refs is None:
        return None, g.gap_edges(i), (), ()
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


def gap_flagged_edges(classes: GapClasses) -> Sequence[Edge]:
    """A gap's edges that carry a left flag, from its `gap_edge_classes`: plus-adjacent before minus-adjacent."""
    _, _, plus_adj, minus_adj = classes
    return plus_adj + minus_adj


TripleNumber = Callable[[VertexId, VertexId, VertexId], int]


def _triple_blocks(g: LevelGraph, refs: ReferenceSets) -> tuple[TripleNumber, dict[VertexId, Block], int]:
    """The index of TripleVar(a, u, v), the tables it reads, and the number of
    triples.  t(a, u, v) orders u and v on the level cut at a, so each anchor
    has a block of the ordered pairs of its level's other vertices, as
    `pair_numbering` has one per level: levels in ascending order, each
    level's anchors in `ReferenceSets.anchors` order.  The tables map each
    anchor to its block's entries."""
    blocks: dict[VertexId, Block] = {}
    count = 0
    for i, vs in g.by_level.items():
        for a in refs.anchors(i):
            blocks[a] = {}
            count = _block([v for v in vs if v != a], count, blocks[a])

    def number(a: VertexId, u: VertexId, v: VertexId) -> int:
        at = blocks[a]
        first, pu = at[u]
        pv = at[v][1]
        return first + pv - (pv > pu)

    return number, blocks, count


def build_radial_reduced(g: LevelGraph, refs: ReferenceSets) -> ConstraintSystem:
    """Anchored linear-order consistency as twins, cyclic coupling, and gap
    planarity XORs.  The flags are numbered after the triples: gap by gap,
    each in `gap_flagged_edges` order."""
    require_valid(g, proper=True)
    require_reference_sets(g, refs)
    number, blocks, triples = _triple_blocks(g, refs)
    gaps = [gap_edge_classes(g, refs, i) for i in range(1, g.k)]
    flag = {e: triples + f for f, e in enumerate(e for classes in gaps for e in gap_flagged_edges(classes))}
    # the gaps that give rows: two plain edges, or a flagged edge and a plain edge or one of the other class
    row_gaps = [(eps, plain, plus_adj, minus_adj) for eps, plain, plus_adj, minus_adj in gaps
                if len(plain) > 1 or plus_adj and (plain or minus_adj) or minus_adj and plain]

    def gap_rows() -> Iterator[Row]:
        for (ap, am_next), plain, plus_adj, minus_adj in row_gaps:
            tail, head = blocks[ap], blocks[am_next]
            yield from _independent_rows(plain, tail, head)
            for e in plus_adj:
                for f in minus_adj:
                    yield (flag[e], flag[f]), 1
            # a flagged edge shares one end with the reference edge, so it is
            # independent of a plain edge whose other end differs from its own
            for flagged, block, side in ((plus_adj, head, 1), (minus_adj, tail, 0)):
                ends = [block[e[side]] for e in plain]
                for e in flagged:
                    fe, q = flag[e], block[e[side]][1]
                    for fv, p in ends:
                        if p != q:
                            yield (fe, fv + q - (q > p)), 0

    def coupling_rows(am: VertexId, ap: VertexId) -> Iterator[Row]:
        # t(am, u, v) + t(ap, u, v) + t(am, u, ap) + t(am, v, ap) = 0 for the
        # other vertices u != v, then t(am, v, ap) + t(ap, am, v) = 0 for each
        bm, bp = blocks[am], blocks[ap]
        pa, (fa, qa) = bm[ap][1], bp[am]  # ap's position in am's block, am's entry in ap's
        ends = [(*bm[v], *bp[v]) for v in bm if v != ap]  # each vertex's entries in both blocks
        before_ap = [fu + pa - (pa > pu) for fu, pu, _, _ in ends]
        for (fu, pu, gu, qu), tu in zip(ends, before_ap):
            for (_, pv, _, qv), tv in zip(ends, before_ap):
                if pv != pu:
                    yield (fu + pv - (pv > pu), gu + qv - (qv > qu), tu, tv), 0
        for (_, _, _, qv), tv in zip(ends, before_ap):
            yield (tv, fa + qv - (qv > qa)), 0

    def runs():
        for i, vs in g.by_level.items():
            if len(vs) > 2:  # each anchor orders two or more other vertices
                anchors = refs.anchors(i)
                yield True, chain.from_iterable(_twins(blocks[a].values()) for a in anchors)
                if len(anchors) > 1:
                    yield False, coupling_rows(*anchors)
        if row_gaps:
            yield False, gap_rows()

    def points() -> Iterator[tuple[VertexId, VertexId, VertexId]]:
        return ((a, u, v) for a, at in blocks.items() for u, v in permutations(at, 2))

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
