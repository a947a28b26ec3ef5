"""Satisfiability of XOR-linear systems over GF(2).

`solve` reads a system's rows once, in build order, from any re-iterable
source: a list, or a `RowSource` that makes the rows anew on each read and
names its consistency rows x_lo + x_hi = 1 as twin pairs.  A twin is linked
in the parity union-find as it is read, without a union; every other
two-variable row is contracted by a union, and elimination to echelon form
(`eliminate`) runs only on the rows that are left, over one column per
union-find class.  Elimination rows are bitmask integers, so it works on
machine words regardless of variable count.  Each row becomes a mask when
elimination reaches it and is reduced only by the pivots it hits; only the
pivot rows keep the history of original rows an unsat certificate needs, and
one back-substitution pass sets the pivots.  `rank` counts the pivots of the
same elimination on the homogeneous system.  `solve` checks each index as it
reads it and its assignment once against every row, as `eliminate` does,
through `violated`: the one reader of the rows a bit list violates, which
reads twins as twins and serves `constraints.evaluate` too; an unsat certificate,
in build-order row indices, is written only when it is read.  Everything is
deterministic: pivots are chosen in ascending variable order and free
variables default to 0, and `solve` returns the same assignment and free
variables as `eliminate` on the whole system.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from itertools import chain, repeat

Row = tuple[Sequence[int], int]
Run = tuple[bool, Iterable]


class RowSource:
    """A system's rows, made anew on each read instead of held.

    `runs()` yields them in build order as runs: (True, pairs) for twin rows,
    each pair (lo, hi) with lo < hi the row x_lo + x_hi = 1, and (False, rows)
    for other rows.  No earlier row may join a twin's lo to a larger variable.
    Iterating yields every row, a twin as ((lo, hi), 1); the length is the row
    count, taken from the first `solve` or counted on first use.
    """

    def __init__(self, runs: Callable[[], Iterable[Run]]):
        self.runs = runs
        self.count: int | None = None

    def __iter__(self) -> Iterator[Row]:
        return chain.from_iterable(zip(run, repeat(1)) if twins else run for twins, run in self.runs())

    def __len__(self) -> int:
        if self.count is None:
            self.count = sum(1 for _ in self)
        return self.count


@dataclass(frozen=True)
class XorSystem:
    """n variables; each row is (index tuple in any order, parity 0 or 1)
    meaning sum of vars = parity mod 2.  The constructor takes the rows as
    given, a sequence or a `RowSource`; `build` checks and packs rows from
    elsewhere."""

    n: int
    rows: Sequence[Row] | RowSource

    @staticmethod
    def build(n: int, rows: list[tuple[Sequence[int], int]]) -> "XorSystem":
        packed = []
        for idx, parity in rows:
            problem = row_problem(n, idx, parity)
            if problem:
                raise ValueError(problem)
            packed.append((tuple(idx), parity))
        return XorSystem(n, tuple(packed))


@dataclass(frozen=True)
class Sat:
    assignment: tuple[int, ...]
    free_vars: tuple[int, ...]


class Unsat:
    """An unsatisfiable system.  `certificate` holds the original row indices
    whose GF(2) sum is the contradiction 0 = 1; `solve` gives the function
    that writes it, called on first read."""

    def __init__(self, certificate: tuple[int, ...] | Callable[[], tuple[int, ...]]):
        self._certificate = certificate

    @property
    def certificate(self) -> tuple[int, ...]:
        if callable(self._certificate):
            self._certificate = self._certificate()
        return self._certificate

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Unsat) and self.certificate == other.certificate

    def __hash__(self) -> int:
        return hash(self.certificate)

    def __repr__(self) -> str:
        return f"Unsat({self.certificate!r})"


SolveResult = Sat | Unsat


def row_problem(n: int, idx: Sequence[int], parity: int) -> str | None:
    """Why a row is not a row over variables 0..n-1, or None when it is."""
    if idx and (min(idx) < 0 or max(idx) >= n):
        return f"row {idx} references an undeclared variable index, {n} declared"
    if parity not in (0, 1):
        return f"row {idx} has parity {parity!r}, not 0 or 1"
    return None


def eliminate(sys: XorSystem) -> SolveResult:
    """Elimination to echelon form with back-substitution; returns one
    satisfying assignment or an unsat certificate.

    A pivot is its row's lowest set bit.  The pivot rows are the rows, in
    build order, independent of the rows before them, and each pivot column
    is the lowest bit of some vector of their span, as in Gauss-Jordan
    reduced form: so the pivot columns, and the assignment with free
    variables 0, are those of Gauss-Jordan elimination, and so is the
    certificate, the one sum of independent rows that closes the first row
    reducing to 0 = 1.  `solve` runs it on the rows its union-find leaves
    over; on a whole system it is the reference that `solve` must match.
    """
    result = _eliminate(sys)
    if isinstance(result, Sat):
        _require_satisfies(sys, result.assignment)
    return result


def _eliminate(sys: XorSystem) -> SolveResult:
    # pivot col -> (mask, parity, history mask over original row indices); a
    # pivot is its row's lowest set bit, so a pivot row reaches only columns above it
    pivots: dict[int, tuple[int, int, int]] = {}
    for r, (idx, parity) in enumerate(sys.rows):
        mask = 0
        for i in idx:
            mask ^= 1 << i  # repeated indices cancel over GF(2)
        hist = 1 << r
        while mask:
            col = (mask & -mask).bit_length() - 1
            if col not in pivots:
                pivots[col] = (mask, parity, hist)
                break
            pmask, pparity, phist = pivots[col]
            mask ^= pmask
            parity ^= pparity
            hist ^= phist
        else:
            if parity == 1:
                return Unsat(tuple(i for i in range(len(sys.rows)) if hist >> i & 1))
    bits = 0
    for col in sorted(pivots, reverse=True):
        # free variables are 0 and every column above col is already set
        mask, parity, _ = pivots[col]
        bits |= (parity ^ (mask & bits).bit_count() & 1) << col
    assignment = tuple(bits >> i & 1 for i in range(sys.n))
    free = tuple(i for i in range(sys.n) if i not in pivots)
    return Sat(assignment, free)


def _runs(sys: XorSystem) -> Iterable[Run]:
    rows = sys.rows
    return rows.runs() if isinstance(rows, RowSource) else ((False, rows),)


def violated(runs: Iterable[Run], bits: Sequence[int]) -> Iterator[Row]:
    """The rows of the runs, in build order, that the bits do not satisfy; a
    twin (lo, hi) is read as one and yielded as ((lo, hi), 1)."""
    for twins, run in runs:
        if twins:
            for lo, hi in run:
                if bits[lo] == bits[hi]:
                    yield (lo, hi), 1
            continue
        for row in run:
            parity = row[1]
            for i in row[0]:
                parity ^= bits[i]
            if parity:
                yield row


def _require_satisfies(sys: XorSystem, assignment: tuple[int, ...]) -> None:
    for _ in violated(_runs(sys), assignment):
        raise AssertionError("internal error: assignment does not satisfy a row")


def _cancel(idx) -> list[int]:
    """The row's variables in ascending order, repeated indices cancelled in pairs."""
    out: list[int] = []
    for i in sorted(idx):
        if out and out[-1] == i:
            out.pop()
        else:
            out.append(i)
    return out


class _ParityForest:
    """Union-find over variables that tracks each variable's parity to its parent.

    A class is represented by its largest variable, so a parent is always
    larger than its child.  The rows that joined two classes span each class
    as a forest; `solve` keeps their indices in `tree`, except the twins', to
    write unsat certificates in terms of the original rows.
    """

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.offset = [0] * n  # x_v + x_parent(v); 0 at a representative
        self.tree: list[int] = []  # the row of every union that joined two classes

    def find(self, v: int) -> tuple[int, int]:
        """(representative of v's class, x_v + x_representative), compressing the path."""
        parent, offset = self.parent, self.offset
        path = []
        while parent[v] != v:
            path.append(v)
            v = parent[v]
        p = 0
        for u in reversed(path):
            p ^= offset[u]
            offset[u] = p
            parent[u] = v
        return v, p

    def flatten(self) -> None:
        """Point every variable at its representative, with its parity to it:
        from the largest variable down, each parent is already flat."""
        parent, offset = self.parent, self.offset
        for v in range(len(parent) - 1, -1, -1):
            p = parent[v]
            if p != v:
                parent[v] = parent[p]
                offset[v] ^= offset[p]

    def certificate(self, rows, links) -> tuple[int, ...]:
        """Original rows summing to 0 = 1.

        `rows` are (row, variables) pairs whose rows sum to 0 = 1 once every
        variable is rewritten to its representative; rewriting v adds the
        forest rows on the path from v to its representative.  `links` are
        the forest's edges, (a, b, row) for each row that joined two classes.
        """
        adj: dict[int, list[tuple[int, int]]] = {}
        for a, b, row in links:
            adj.setdefault(a, []).append((b, row))
            adj.setdefault(b, []).append((a, row))
        paths: dict[int, dict[int, tuple[int, int]]] = {}  # representative -> vertex -> (next vertex, row)
        cert: set[int] = set()
        for r, vs in rows:
            cert ^= {r}
            for v in vs:
                rep = self.find(v)[0]
                if rep not in paths:
                    paths[rep] = via = {rep: (rep, -1)}
                    queue = [rep]
                    for u in queue:
                        for w, row in adj.get(u, ()):
                            if w not in via:
                                via[w] = (u, row)
                                queue.append(w)
                via = paths[rep]
                while v != rep:
                    v, row = via[v]
                    cert ^= {row}
        return tuple(sorted(cert))


def solve(sys: XorSystem) -> SolveResult:
    """One satisfying assignment or an unsat certificate, equal to those of `eliminate`.

    The rows are read once, in build order: a twin links its lo under its hi,
    the other two-variable rows are contracted by unions, and the rest are
    kept.  Those are rewritten onto the class representatives and eliminated,
    with the quotient columns in ascending order of representative.  A column
    is free for `eliminate` exactly when it represents a class whose quotient
    column lies in the span of earlier ones, and free variables are 0 on both
    paths, so the assignments and free variables agree.  After a conflict the
    rest of the rows are counted, and checked too when held as lists, as a
    witness check holds them, so no held row goes unchecked: a `RowSource`
    learns its length either way.
    """
    n = sys.n
    forest = _ParityForest(n)
    parent, offset, find, tree = forest.parent, forest.offset, forest.find, forest.tree
    rest: list[int] = []  # build-order indices of the rows left for elimination
    quotient: list[Row] = []  # those rows, rewritten in place below: the list eliminate reads is the only copy
    closing: list[int] | None = None  # rows that sum to 0 = 1 once on class representatives
    r = -1  # the last row read
    runs = iter(_runs(sys))
    for twins, rows in runs:
        run = iter(rows)
        if twins:
            for r, (lo, hi) in enumerate(run, r + 1):
                if not 0 <= lo < hi < n or parent[lo] != lo:
                    raise ValueError(row_problem(n, (lo, hi), 1)
                                     or f"twin ({lo}, {hi}) needs lo < hi and lo in no larger variable's class")
                parent[lo] = hi
                offset[lo] = 1
            continue
        for r, (idx, parity) in enumerate(run, r + 1):
            a, b = idx if len(idx) == 2 else (-1, -1)
            if not (a != b and 0 <= a < n and 0 <= b < n and parity in (0, 1)):
                problem = row_problem(n, idx, parity)
                if problem:
                    raise ValueError(problem)
                vs = _cancel(idx)
                if len(vs) != 2:
                    if vs:
                        rest.append(r)
                        quotient.append((idx, parity))
                    elif parity:
                        closing = [r]
                        break
                    continue
                a, b = vs
            # x_a + x_b = parity: join the two classes, the smaller representative under the larger
            ra = parent[a]
            if parent[ra] == ra:
                pa = offset[a]
            else:
                ra, pa = find(a)
            rb = parent[b]
            if parent[rb] == rb:
                pb = offset[b]
            else:
                rb, pb = find(b)
            if ra == rb:
                if pa ^ pb != parity:
                    closing = [r]
                    break
                continue
            if ra < rb:
                ra, rb = rb, ra
            parent[rb] = ra
            offset[rb] = pa ^ pb ^ parity
            tree.append(r)
        if closing is not None:
            left = chain(run, chain.from_iterable(zip(more, repeat(1)) if twin else more for twin, more in runs))
            if isinstance(rows, list):
                for r, (idx, parity) in enumerate(left, r + 1):
                    problem = row_problem(n, idx, parity)
                    if problem:
                        raise ValueError(problem)
            else:
                r += sum(1 for _ in left)
            break
    if isinstance(sys.rows, RowSource):
        sys.rows.count = r + 1
    if closing is None:
        forest.flatten()
        # each left-over row on its class representatives, then on quotient columns
        for q, (idx, parity) in enumerate(quotient):
            for v in idx:
                parity ^= offset[v]
            quotient[q] = (_cancel([parent[v] for v in idx]), parity)
        cols = sorted({rep for reps, _ in quotient for rep in reps})
        col = {rep: q for q, rep in enumerate(cols)}
        for q, (reps, parity) in enumerate(quotient):
            quotient[q] = (tuple(col[rep] for rep in reps), parity)
        result = _eliminate(XorSystem(len(cols), quotient))
        if isinstance(result, Sat):
            return _assignment(sys, forest, cols, result)
        closing = [rest[q] for q in result.certificate]
    return Unsat(lambda: _certificate(sys, forest, closing))


def _assignment(sys: XorSystem, forest: _ParityForest, cols: list[int], quotient: Sat) -> Sat:
    """The assignment of every variable of a flat forest from the quotient's,
    checked against every row."""
    value = [0] * sys.n
    for rep, bit in zip(cols, quotient.assignment):
        value[rep] = bit
    pivots = set(cols).difference(cols[q] for q in quotient.free_vars)
    # tuples from lists, whose length is known: a tuple built from a generator
    # starts at a guessed length and is resized, which moves its memory from
    # one of the interpreter's tuple free lists to another, filling them
    free = tuple([v for v, rep in enumerate(forest.parent) if rep == v and v not in pivots])
    assignment = tuple([value[rep] ^ off for rep, off in zip(forest.parent, forest.offset)])
    _require_satisfies(sys, assignment)
    return Sat(assignment, free)


def _certificate(sys: XorSystem, forest: _ParityForest, closing: list[int]) -> tuple[int, ...]:
    """Rereads the rows for the closing rows' variables and the forest's edges."""
    wanted = dict.fromkeys(closing)
    tree = set(forest.tree)
    links = []
    r = -1
    for twins, run in _runs(sys):
        if twins:
            for r, (lo, hi) in enumerate(run, r + 1):
                links.append((lo, hi, r))
            continue
        for r, (idx, _) in enumerate(run, r + 1):
            if r in wanted:
                wanted[r] = idx
            if r in tree:
                links.append((*_cancel(idx), r))
    return forest.certificate(wanted.items(), links)


def rank(sys: XorSystem) -> int:
    """GF(2) rank of the coefficient matrix; n - rank is the solution space dimension."""
    # the homogeneous system is always satisfiable, and its pivots are the rank
    result = eliminate(XorSystem(sys.n, tuple((idx, 0) for idx, _ in sys.rows)))
    return sys.n - len(result.free_vars)
