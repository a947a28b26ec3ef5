"""End-to-end decision pipelines.

A check properizes the input, assembles the reduced constraint system of the
properized graph G, and solves it over GF(2) from its row source, without
making its row list; its satisfiability is the answer.  Only when a witness
is wanted are the source's runs held (`ConstraintSystem.runs`), since the
lift is checked against the rows, and held before the solve, which then
reads them; no row list is made either way.  Only then too is the star form and
its proper subdivision G+ built: the solution is lifted to G+, each bit
computed as the drawing reads it, without G+'s constraint system, and
realized as a drawing whose smoothed form passes the even-crossings
verification; that drawing is the returned witness, and the verification's
crossing count the one part of its report the result keeps.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import xorsat
from .constraints import (
    ConstraintSystem,
    build_level_full,
    build_radial_full,
    choose_reference_sets,
    count_transitivity,
)
from .drawing import (
    LevelContext,
    LevelDrawing,
    RadialDrawing,
    drawing_from_assignment_level,
    drawing_from_assignment_radial,
    lift_assignment_level,
    lift_assignment_radial,
    make_level_context,
    make_radial_context,
    star_report_level,
    star_report_radial,
)
from .graphs import LevelGraph, properize


def to_xor_system(system: ConstraintSystem) -> xorsat.XorSystem:
    return xorsat.XorSystem(system.n, system.source)


def solve_reduced(system: ConstraintSystem) -> list[bool] | None:
    """One satisfying assignment of a pure-XOR system as a bit list in index
    order, or None."""
    if system.clauses:
        raise ValueError("only reduced systems are solvable as XOR systems")
    result = xorsat.solve(to_xor_system(system))
    if isinstance(result, xorsat.Unsat):
        return None
    return list(map(bool, result.assignment))


@dataclass
class CheckResult:
    """One decision; variables and equations count the reduced system of the
    properized input, the system that decided, transitivity_clauses its full system's clauses.

    With a witness comes witness_crossings, the crossing count of its
    verified drawing (every pair of independent edges crosses evenly); the
    per-pair crossing table is dropped once the check has passed.  Both are
    None without a witness, a non-planar answer included."""

    mode: str
    planar: bool
    variables: int
    equations: int
    transitivity_clauses: int
    witness: LevelDrawing | RadialDrawing | None = None
    witness_crossings: int | None = None


def stage_context(g: LevelGraph, mode: str) -> LevelContext:
    """The stage context of a raw input graph: properized and, in radial mode,
    with its reference sets chosen and inserted."""
    proper, _ = properize(g)
    if mode == "level":
        return make_level_context(proper)
    if mode == "radial":
        refs, augmented = choose_reference_sets(proper)
        return make_radial_context(augmented, refs)
    raise ValueError(f"unknown mode {mode!r}")


def _check(g: LevelGraph, mode: str, witness: bool, lift, realize, report_fn) -> CheckResult:
    ctx = stage_context(g, mode)
    if witness:
        ctx.system.runs  # the lift reads the rows: held before the solve, they are made once
    phi = solve_reduced(ctx.system)
    # the solve counts the rows as it reads them; a decision never makes the row list
    result = CheckResult(mode, phi is not None, ctx.system.n, len(ctx.system.source),
                         count_transitivity(ctx.base, ctx.refs))
    if phi is not None and witness:
        result.witness = realize(lift(phi, ctx), ctx)
        report = report_fn(result.witness, ctx)
        if report.ht_violations:
            raise AssertionError(f"witness drawing failed verification: {report.ht_violations[0]}")
        result.witness_crossings = report.total()
    return result


def check_level(g: LevelGraph, *, witness: bool = False) -> CheckResult:
    return _check(g, "level", witness, lift_assignment_level, drawing_from_assignment_level, star_report_level)


def check_radial(g: LevelGraph, *, witness: bool = False) -> CheckResult:
    return _check(g, "radial", witness, lift_assignment_radial, drawing_from_assignment_radial, star_report_radial)


def system_for_stage(g: LevelGraph, mode: str, stage: str, full: bool = False) -> ConstraintSystem:
    """The reduced system, or with `full` the full one, of the properized input
    (stage "G") or of its stretched subdivision (stage "Gplus")."""
    ctx = stage_context(g, mode)
    if stage not in ("G", "Gplus"):
        raise ValueError(f"unknown stage {stage!r}")
    plus = stage == "Gplus"
    if not full:
        return ctx.plus_system if plus else ctx.system
    graph, refs = (ctx.pg.graph, ctx.plus_refs) if plus else (ctx.base, ctx.refs)
    return build_level_full(graph) if refs is None else build_radial_full(graph, refs)
