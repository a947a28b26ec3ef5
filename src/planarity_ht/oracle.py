"""Brute-force planarity deciders: the ground truth for small instances.

Both oracles enumerate the full combinatorial drawing space (linear orders
per level, or cyclic orders plus reference flags) and accept as soon as a
zero-crossing state appears.  Enumeration order is deterministic, so the
witness drawing and the examined-state count are reproducible.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import permutations, product
from math import factorial

from .constraints import ReferenceSets, flagged_edges, gap_edge_classes
from .drawing import LevelDrawing, RadialDrawing, _gap_crossing_pairs_radial, gap_crossing_pairs_level
from .graphs import Edge, LevelGraph, VertexId, require_valid

DEFAULT_BUDGET = 10_000_000
BUDGET_ENV_VAR = "PLANARITY_HT_BUDGET"


def default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    try:
        return int(raw) if raw else DEFAULT_BUDGET
    except ValueError:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from None


class BudgetExceededError(RuntimeError):
    def __init__(self, needed: int, budget: int):
        super().__init__(f"enumeration needs {needed} states, budget is {budget}")
        self.needed = needed
        self.budget = budget


@dataclass(frozen=True)
class OracleResult:
    planar: bool
    witness: LevelDrawing | RadialDrawing | None
    states_examined: int


def _orders(vs: tuple[VertexId, ...], pinned: int):
    """Every order of vs that keeps its first `pinned` vertices in place."""
    head, tail = vs[:pinned], vs[pinned:]
    return (head + rest for rest in permutations(tail))


def _enumerate(g: LevelGraph, budget: int | None, pinned: int, flagged: list[Edge],
               drawing, gap_pairs) -> OracleResult:
    """Visit every order per level (first `pinned` vertices fixed) and every
    flag combination; accept the first state with no crossing in any gap.

    The state count is checked against the budget before any order is built.
    """
    budget = default_budget() if budget is None else budget
    levels = [g.on_level(i) for i in range(1, g.k + 1)]
    needed = 2 ** len(flagged)
    for vs in levels:
        needed *= factorial(len(vs) - pinned)
    if needed > budget:
        raise BudgetExceededError(needed, budget)
    gaps = range(1, g.k)
    states = 0
    for combo in product(*(_orders(vs, pinned) for vs in levels)):
        orders = dict(enumerate(combo, start=1))
        for bits in product((False, True), repeat=len(flagged)):
            states += 1
            d = drawing(orders, dict(zip(flagged, bits)))
            if not any(gap_pairs(d, i) for i in gaps):
                return OracleResult(True, d, states)
    return OracleResult(False, None, states)


def brute_level(g: LevelGraph, budget: int | None = None) -> OracleResult:
    """Try every per-level vertex order; planar iff some combination is crossing-free."""
    require_valid(g, proper=True)
    return _enumerate(g, budget, 0, [], lambda orders, _: LevelDrawing(orders),
                      lambda d, i: gap_crossing_pairs_level(d, g, i))


def brute_radial(g: LevelGraph, refs: ReferenceSets, budget: int | None = None) -> OracleResult:
    """Try every cyclic order per level and every flag combination.

    Cyclic orders are enumerated with each level's smallest vertex pinned
    first, which visits every cyclic order exactly once.
    """
    require_valid(g, proper=True)
    if any(not g.on_level(i) for i in range(1, g.k + 1)):
        raise ValueError("radial enumeration needs every level nonempty")
    classes = {i: gap_edge_classes(g, refs, i) for i in range(1, g.k)}
    return _enumerate(g, budget, 1, flagged_edges(g, refs), RadialDrawing,
                      lambda d, i: _gap_crossing_pairs_radial(d, i, classes[i]))
