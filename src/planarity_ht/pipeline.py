"""End-to-end decision pipelines.

A check properizes the input, assembles the reduced constraint system of the
properized graph G, and solves it over GF(2); its satisfiability is the
answer.  Only when a witness is wanted is the star form and its proper
subdivision G+ built: the solution is lifted to G+, each bit computed as the
drawing reads it, without G+'s constraint system, and realized as a drawing
whose smoothed form passes the even-crossings verification; that drawing is
the returned witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import xorsat
from .constraints import (
    Assignment,
    ConstraintSystem,
    build_level_full,
    build_radial_full,
    choose_reference_sets,
)
from .drawing import (
    CrossingReport,
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
    return xorsat.XorSystem(len(system.variables), system.rows)


def solve_reduced(system: ConstraintSystem) -> Assignment | None:
    """One satisfying assignment of a pure-XOR system, or None."""
    if system.clauses:
        raise ValueError("only reduced systems are solvable as XOR systems")
    result = xorsat.solve(to_xor_system(system))
    if isinstance(result, xorsat.Unsat):
        return None
    return dict(zip(system.variables, map(bool, result.assignment)))


@dataclass
class CheckResult:
    """One decision; variables and equations count the reduced system of the
    properized input, the system that decided."""

    mode: str
    planar: bool
    variables: int
    equations: int
    witness: LevelDrawing | RadialDrawing | None = None
    witness_report: CrossingReport | None = None


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
    phi = solve_reduced(ctx.system)
    result = CheckResult(mode, phi is not None, len(ctx.system.variables), len(ctx.system.rows))
    if phi is not None and witness:
        result.witness = realize(lift(phi, ctx), ctx)
        result.witness_report = report = report_fn(result.witness, ctx)
        if report.ht_violations:
            raise AssertionError(f"witness drawing failed verification: {report.ht_violations[0]}")
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
    graph = ctx.pg.graph if plus else ctx.base
    if mode == "level":
        return build_level_full(graph)
    return build_radial_full(graph, ctx.plus_refs if plus else ctx.refs)
