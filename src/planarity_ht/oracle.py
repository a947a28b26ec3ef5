"""Brute-force planarity deciders: the ground truth for small instances.

Both oracles search the full combinatorial drawing space (linear orders per
level, or cyclic orders plus reference flags) in one deterministic
enumeration order and accept the first zero-crossing state.  The search goes
level by level in that order and prunes by gap: a prefix of level orders is
dropped as soon as its newest gap has no crossing-free flag setting, and a
level order with no crossing-free completion above it is dead and never
searched again.  Both modes read a gap by the drawing layer's one crossing
rule, over the gap's edge classes under the reference sets (level mode has
none: no reference edge and no flag).  The rule reads the search's state
through one drawing view (`drawing._Positions`), which shows a level's new
order whenever its pick changes.  `states_examined` is the 1-based rank of
the witness state in the enumeration order, or the full count when there is
no witness; the budget bounds the full count.  The work is bounded by pairs
of orders: the gap rule runs at most sum_i |O_i|·|O_{i+1}|·2^{f_i} times,
with O_i level i's orders and f_i gap i's flag count, which is polynomial
in the level count for bounded width.  A graph with no level has one state,
the empty drawing, which is crossing-free.  The witness drawing and the
count are reproducible.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import permutations, product
from math import factorial

from .constraints import ReferenceSets, gap_edge_classes, gap_flagged_edges, require_reference_sets
from .drawing import LevelDrawing, RadialDrawing, _gap_crossing_pairs, _Positions
from .graphs import LevelGraph, VertexId, require_valid

DEFAULT_BUDGET = 10_000_000
BUDGET_ENV_VAR = "PLANARITY_HT_BUDGET"


def default_budget() -> int:
    raw = os.environ.get(BUDGET_ENV_VAR)
    try:
        budget = int(raw) if raw else DEFAULT_BUDGET
    except ValueError:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {raw!r}") from None
    if budget < 0:
        raise ValueError(f"{BUDGET_ENV_VAR} must not be negative, got {raw!r}")
    return budget


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


def _enumerate(g: LevelGraph, budget: int | None, pinned: int, refs: ReferenceSets | None,
               drawing) -> OracleResult:
    """Find the first state with no crossing in any gap, in enumeration order.

    A state is one order per level (first `pinned` vertices fixed) plus one
    value per flag.  The enumeration order is `product` over the levels' orders,
    each level in `_orders` order, then `product((False, True), ...)` over the
    flags, listed gap by gap, each gap's in `gap_flagged_edges` order of its
    `gap_edge_classes` under refs (None in level mode).  Gap i's crossings
    read only levels i and i+1 and gap i's flags, so the search walks the
    levels depth first in that order and drops a prefix as soon as its newest
    gap has no crossing-free flag setting.  For the same reason, whether
    levels i+1..k can be completed depends only on level i's order: when the
    search backs off level i+1 after its last pick, level i's current pick is
    dead, and a dead pick is skipped without reading its gap or re-ordering
    the view.  Each order is thus searched at most once, and the gap rule
    reads each pair of adjacent orders at most once per flag setting.  The
    skipped states have no crossing-free completion, so the first full state
    the search reaches, with each gap's first crossing-free flag setting, is
    the enumeration's first crossing-free state; `states_examined` is its
    1-based rank, or the full count when there is none.

    The full count is checked against the budget before any order is built,
    and no level's orders are listed: each level holds one generator of its
    orders and shows its current one, and the generator restarts whenever
    the search climbs onto the level, so memory is one order per level
    whatever the width.
    """
    budget = default_budget() if budget is None else budget
    levels = [g.on_level(i) for i in range(1, g.k + 1)]
    classes = {i: gap_edge_classes(g, refs, i) for i in g.by_gap}  # a gap without edges has no crossing
    gap_flags = {i: gap_flagged_edges(c) for i, c in classes.items()}
    flagged = [e for flags in gap_flags.values() for e in flags]
    counts = [factorial(len(vs) - pinned) for vs in levels]  # counts[i - 1]: level i's order count
    needed = 2 ** len(flagged)
    for count in counts:
        needed *= count
    if needed > budget:
        raise BudgetExceededError(needed, budget)
    if not g.k:
        return OracleResult(True, drawing({}, {}), 1)
    walks = [_orders(vs, pinned) for vs in levels]  # walks[i - 1]: level i's orders from its pick on
    view = _Positions({i: next(walk) for i, walk in enumerate(walks, start=1)}, g, {})
    pick = [0] * g.k  # pick[i - 1]: the index of level i's order, which the view shows
    settings: list[tuple[bool, ...]] = [()] * g.k  # settings[i]: gap i's flag values

    def first_free_setting(i: int) -> tuple[bool, ...] | None:
        flags = gap_flags.get(i, ())
        for setting in product((False, True), repeat=len(flags)):
            view.left_flag.update(zip(flags, setting))
            if i not in classes or not _gap_crossing_pairs(view, i, classes[i]):
                return setting
        return None

    dead = set()  # (level, pick) pairs with no crossing-free completion above them
    top = 1  # the deepest level with a picked order
    while True:
        setting = () if top == 1 else first_free_setting(top - 1)
        if setting is not None:
            settings[top - 1] = setting
            if top == g.k:
                break
            top += 1
            pick[top - 1] = -1
            walks[top - 1] = _orders(levels[top - 1], pinned)
        while True:  # level top's next live pick, backing off each level whose picks are spent
            while pick[top - 1] == counts[top - 1] - 1:
                top -= 1
                if top == 0:
                    return OracleResult(False, None, needed)
                dead.add((top, pick[top - 1]))
            pick[top - 1] += 1
            order = next(walks[top - 1])
            if (top, pick[top - 1]) not in dead:
                break
        view.show(top, order)

    # the rank: the orders' mixed-radix index, then the flag bits with
    # flagged[0] the most significant and True as 1
    rank = 0
    for j, count in zip(pick, counts):
        rank = rank * count + j
    bits = [b for setting in settings for b in setting]
    for b in bits:
        rank = 2 * rank + b
    return OracleResult(True, drawing(dict(view.orders), dict(zip(flagged, bits))), rank + 1)


def brute_level(g: LevelGraph, budget: int | None = None) -> OracleResult:
    """Try every per-level vertex order; planar iff some combination is crossing-free."""
    require_valid(g, proper=True)
    return _enumerate(g, budget, 0, None, lambda orders, _: LevelDrawing(orders))


def brute_radial(g: LevelGraph, refs: ReferenceSets, budget: int | None = None) -> OracleResult:
    """Try every cyclic order per level and every flag combination.

    Cyclic orders are enumerated with each level's smallest vertex pinned
    first, which visits every cyclic order exactly once.
    """
    require_valid(g, proper=True)
    require_reference_sets(g, refs)  # refuses an empty level, which has no anchor
    return _enumerate(g, budget, 1, refs, RadialDrawing)
