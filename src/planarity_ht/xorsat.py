"""Satisfiability of XOR-linear systems over GF(2).

`solve` contracts every two-variable row in a parity union-find and runs
Gauss-Jordan elimination (`eliminate`) only on the rows that are left, over
one column per union-find class.  Elimination rows are bitmask integers, so
it works on machine words regardless of variable count.  Each row becomes a
mask when elimination reaches it, and only the pivot rows keep the history
of original rows an unsat certificate needs; `rank` counts the pivots of the
same elimination on the homogeneous system.  Everything is
deterministic: pivots are chosen in ascending variable order and free
variables default to 0, and `solve` returns the same assignment and free
variables as `eliminate` on the whole system.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass


@dataclass(frozen=True)
class XorSystem:
    """n variables; each row is (index tuple in any order, parity 0 or 1)
    meaning sum of vars = parity mod 2.  The constructor takes the rows as
    given; `build` checks and packs rows from elsewhere."""

    n: int
    rows: Sequence[tuple[tuple[int, ...], int]]

    @staticmethod
    def build(n: int, rows: list[tuple[Sequence[int], int]]) -> "XorSystem":
        packed = []
        for idx, parity in rows:
            if any(not 0 <= i < n for i in idx):
                raise ValueError(f"variable index out of range in row {idx}")
            packed.append((tuple(idx), parity & 1))
        return XorSystem(n, tuple(packed))


@dataclass(frozen=True)
class Sat:
    assignment: tuple[int, ...]
    free_vars: tuple[int, ...]


@dataclass(frozen=True)
class Unsat:
    certificate: tuple[int, ...]
    """Original row indices whose GF(2) sum is the contradiction 0 = 1."""


SolveResult = Sat | Unsat


def eliminate(sys: XorSystem) -> SolveResult:
    """Gauss-Jordan elimination; returns one satisfying assignment or an unsat certificate.

    `solve` runs it on the rows its union-find leaves over; on a whole system
    it is the reference that `solve` must match.
    """
    # (pivot col, mask, parity, history mask over original row indices); each
    # pivot row is 0 in every other pivot column, so their order is immaterial
    pivot_rows: list[tuple[int, int, int, int]] = []
    for r, (idx, parity) in enumerate(sys.rows):
        mask = 0
        for i in idx:
            mask ^= 1 << i  # repeated indices cancel over GF(2)
        hist = 1 << r
        for col, pmask, pparity, phist in pivot_rows:
            if mask >> col & 1:
                mask ^= pmask
                parity ^= pparity
                hist ^= phist
        if mask == 0:
            if parity == 1:
                return Unsat(tuple(i for i in range(len(sys.rows)) if hist >> i & 1))
            continue
        col = (mask & -mask).bit_length() - 1  # lowest set bit: ascending pivot order
        # Reduce earlier pivot rows so the matrix stays in reduced form.
        for j, (c, m, p, h) in enumerate(pivot_rows):
            if m >> col & 1:
                pivot_rows[j] = (c, m ^ mask, p ^ parity, h ^ hist)
        pivot_rows.append((col, mask, parity, hist))
    pivots = {col for col, _, _, _ in pivot_rows}
    bits = 0
    for col, _, parity, _ in pivot_rows:
        # Row is col + free variables only; free variables are 0, so value = parity.
        bits |= parity << col
    assignment = tuple(bits >> i & 1 for i in range(sys.n))
    _require_satisfies(sys, assignment)
    free = tuple(i for i in range(sys.n) if i not in pivots)
    return Sat(assignment, free)


def _require_satisfies(sys: XorSystem, assignment: tuple[int, ...]) -> None:
    for idx, parity in sys.rows:
        if sum(assignment[i] for i in idx) & 1 != parity:
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

    A class is represented by its largest variable.  The rows that joined two
    classes span each class as a forest; they are kept to write unsat
    certificates in terms of the original rows.
    """

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.offset = [0] * n  # x_v + x_parent(v)
        self.tree: list[tuple[int, int, int]] = []  # (a, b, row) of every row that joined two classes

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

    def union(self, a: int, b: int, parity: int, row: int) -> bool:
        """Join the classes of a and b under x_a + x_b = parity; False if they already contradict it."""
        ra, pa = self.find(a)
        rb, pb = self.find(b)
        if ra == rb:
            return pa ^ pb == parity
        if ra < rb:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.offset[rb] = pa ^ pb ^ parity
        self.tree.append((a, b, row))
        return True

    def certificate(self, rows) -> tuple[int, ...]:
        """Original rows summing to 0 = 1.

        `rows` are (row, variables) pairs whose rows sum to 0 = 1 once every
        variable is rewritten to its representative; rewriting v adds the
        forest rows on the path from v to its representative.
        """
        adj: dict[int, list[tuple[int, int]]] = {}
        for a, b, row in self.tree:
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

    Two-variable rows are contracted in a parity union-find; the other rows
    are rewritten onto the class representatives and eliminated, with the
    quotient columns in ascending order of representative.  A column is free
    for `eliminate` exactly when it represents a class whose quotient column
    lies in the span of earlier ones, and free variables are 0 on both
    paths, so the assignments and free variables agree.
    """
    forest = _ParityForest(sys.n)
    rest: list[int] = []  # indices of the rows left for elimination
    for r, (idx, parity) in enumerate(sys.rows):
        vs = idx if len(idx) == 2 and idx[0] != idx[1] else _cancel(idx)
        if len(vs) == 2:
            if not forest.union(vs[0], vs[1], parity, r):
                return Unsat(forest.certificate([(r, vs)]))
        elif vs:
            rest.append(r)
        elif parity:
            return Unsat((r,))
    # each left-over row on its class representatives, then rewritten in place
    # to quotient columns: the list eliminate reads is the only copy
    quotient: list[tuple[Sequence[int], int]] = []
    for r in rest:
        idx, parity = sys.rows[r]
        reps = []
        for v in idx:
            rep, off = forest.find(v)
            reps.append(rep)
            parity ^= off
        quotient.append((_cancel(reps), parity))
    cols = sorted({rep for reps, _ in quotient for rep in reps})
    col = {rep: q for q, rep in enumerate(cols)}
    for q, (reps, parity) in enumerate(quotient):
        quotient[q] = (tuple(col[rep] for rep in reps), parity)
    result = eliminate(XorSystem(len(cols), quotient))
    if isinstance(result, Unsat):
        return Unsat(forest.certificate([(rest[q], sys.rows[rest[q]][0]) for q in result.certificate]))
    value = dict(zip(cols, result.assignment))
    pivots = set(cols).difference(cols[q] for q in result.free_vars)
    assignment = []
    free = []
    for v in range(sys.n):
        rep, off = forest.find(v)
        assignment.append(value.get(rep, 0) ^ off)
        if rep == v and v not in pivots:
            free.append(v)
    _require_satisfies(sys, tuple(assignment))
    return Sat(tuple(assignment), tuple(free))


def rank(sys: XorSystem) -> int:
    """GF(2) rank of the coefficient matrix; n - rank is the solution space dimension."""
    # the homogeneous system is always satisfiable, and its pivots are the rank
    result = eliminate(XorSystem(sys.n, tuple((idx, 0) for idx, _ in sys.rows)))
    return sys.n - len(result.free_vars)
