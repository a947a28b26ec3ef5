"""Test scaffolding that no library caller needs: random drawings, the
assignments a drawing induces read straight off it, the edges that carry a
left flag, a parser for the textual constraint dump, the Gauss-Jordan
elimination that `xorsat.eliminate` must match, a check result's witness
verified again on its own, and the references that `starform.build_plus`
and `constraints.validate_reference_sets` must match: the star form
subdivided by `graphs.properize`, and every level's `anchor_problems`."""

from __future__ import annotations

import random
import re
from itertools import permutations

from planarity_ht.constraints import (
    BoolVar,
    FlagVar,
    PairVar,
    ReferenceSets,
    TransitivityClause,
    TripleVar,
    XorEquation,
    anchor_problems,
    gap_edge_classes,
    gap_flagged_edges,
)
from planarity_ht.drawing import CrossingReport, LevelDrawing, RadialDrawing, star_report_level, star_report_radial
from planarity_ht.graphs import Edge, LevelGraph, properize
from planarity_ht.iofmt import FormatError
from planarity_ht.pipeline import CheckResult, stage_context
from planarity_ht.starform import PlusGraph, StarForm
from planarity_ht.xorsat import Sat, SolveResult, Unsat, XorSystem


def flagged_edges(g: LevelGraph, refs: ReferenceSets) -> list[Edge]:
    """The edges that carry a left flag: gap by gap, each in `gap_flagged_edges` order."""
    return [e for i in range(1, g.k) for e in gap_flagged_edges(gap_edge_classes(g, refs, i))]


def witness_report(g: LevelGraph, result: CheckResult) -> CrossingReport:
    """The crossing report of a check's witness of g, computed afresh from
    the stage context rather than read off the result."""
    report = star_report_level if result.mode == "level" else star_report_radial
    return report(result.witness, stage_context(g, result.mode))


def random_level_drawing(rng: random.Random, g: LevelGraph) -> LevelDrawing:
    orders = {}
    for i in range(1, g.k + 1):
        vs = list(g.on_level(i))
        rng.shuffle(vs)
        orders[i] = tuple(vs)
    return LevelDrawing(orders)


def random_radial_drawing(rng: random.Random, g: LevelGraph, refs: ReferenceSets) -> RadialDrawing:
    cyclic = {}
    for i in range(1, g.k + 1):
        vs = list(g.on_level(i))
        rng.shuffle(vs)
        cyclic[i] = tuple(vs)
    return RadialDrawing(cyclic, {e: rng.random() < 0.5 for e in flagged_edges(g, refs)})


def induced_pair_assignment(d: LevelDrawing) -> dict[BoolVar, bool]:
    """Pair-order values read straight off the positions of a level drawing."""
    out: dict[BoolVar, bool] = {}
    for order in d.orders.values():
        pos = {v: p for p, v in enumerate(order)}
        for u, w in permutations(order, 2):
            out[PairVar(u, w)] = pos[u] < pos[w]
    return out


def induced_radial_assignment(d: RadialDrawing, g: LevelGraph, refs: ReferenceSets) -> dict[BoolVar, bool]:
    """Anchored triple and flag values read straight off a radial drawing."""
    out: dict[BoolVar, bool] = {}
    for i in range(1, g.k + 1):
        vs = g.on_level(i)
        for a in refs.anchors(i):
            cut = d.cut_after(i, a)
            others = [v for v in vs if v != a]
            for u, v in permutations(others, 2):
                out[TripleVar(a, u, v)] = cut[u] < cut[v]
    for e in flagged_edges(g, refs):
        out[FlagVar(*e)] = d.left_flag[e]
    return out


_VAR_RE = re.compile(r"([xtl])\(([^()]*)\)")


def _parse_var(token: str) -> BoolVar:
    m = _VAR_RE.fullmatch(token)
    if not m:
        raise FormatError(f"cannot parse variable {token!r}")
    kind, body = m.groups()
    parts = body.split(",")
    if kind == "x" and len(parts) == 2:
        return PairVar(*parts)
    if kind == "t" and len(parts) == 3:
        return TripleVar(*parts)
    if kind == "l" and len(parts) == 2:
        return FlagVar(*parts)
    raise FormatError(f"variable {token!r} has the wrong arity")


def parse_dump(text: str) -> tuple[list[XorEquation], list[TransitivityClause]]:
    """Inverse of `iofmt.dump_system`, up to the declared variable set.

    Vertex ids containing commas, parentheses or '->' are not representable
    in this format.
    """
    xors: list[XorEquation] = []
    trans: list[TransitivityClause] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "->" in line:
            body, head = line.split("->")
            a_str, b_str = body.split("&")
            head = head.strip()
            negated = head.startswith("!")
            trans.append(
                TransitivityClause(
                    _parse_var(a_str.strip()), _parse_var(b_str.strip()),
                    _parse_var(head.lstrip("!")), negated,
                )
            )
        else:
            body, parity = line.rsplit("=", 1)
            vars_ = tuple(_parse_var(tok.strip()) for tok in body.split("+"))
            xors.append(XorEquation(vars_, int(parity)))
    return xors, trans


def gauss_jordan_eliminate(sys: XorSystem) -> SolveResult:
    """Gauss-Jordan elimination, keeping the reduced form at every row: the
    reference whose assignments, free variables and certificates
    `xorsat.eliminate` must match."""
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
    free = tuple(i for i in range(sys.n) if i not in pivots)
    return Sat(assignment, free)


def plus_by_properize(sf: StarForm) -> PlusGraph:
    """The subdivision of a star form by `graphs.properize`, each point's
    origin assigned in a second walk over the paths: the reference that
    `starform.build_plus` must equal field by field."""
    plus, prov = properize(sf.star)
    origin: dict[str, str] = dict(sf.owner)
    level, level_origin = sf.star.level, sf.level_origin
    for star_edge, path in prov.paths.items():
        if len(path) == 2:
            continue
        if star_edge in sf.edge_origin:
            # an edge image's points lie in its tail's block, then in its head's
            u, v = sf.edge_origin[star_edge]
            low = level[star_edge[0]]
            tail_block = level_origin[low]
            for j in range(1, len(path) - 1):
                origin[path[j]] = u if level_origin[low + j] == tail_block else v
        else:
            # stretch edge subdivision points
            owner = sf.owner[star_edge[0]]
            for w in path[1:-1]:
                origin[w] = owner
    return PlusGraph(sf, plus, prov, origin)


def reference_set_problems(g: LevelGraph, refs: ReferenceSets) -> list[str]:
    """`constraints.validate_reference_sets` with every level's
    `anchor_problems` listed, whether or not its anchors lie on it: the
    reference its check of the anchors must match."""
    problems = [p for i in range(1, g.k + 1) for p in anchor_problems(g, refs.alpha_plus, refs.alpha_minus, i)]
    if g.k >= 1 and refs.alpha_plus.get(1) != refs.alpha_minus.get(1):
        problems.append("anchors on level 1 must coincide")
    if refs.alpha_plus.get(g.k) != refs.alpha_minus.get(g.k):
        problems.append(f"anchors on level {g.k} must coincide")
    for i in range(1, g.k):
        e = (refs.alpha_plus.get(i), refs.alpha_minus.get(i + 1))
        if None not in e and e not in g.gap_edges(g.level.get(e[0])):
            problems.append(f"reference edge {e} missing from graph")
    return problems
