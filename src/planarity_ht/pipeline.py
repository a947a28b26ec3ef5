"""End-to-end decision pipelines.

A check properizes the input, assembles the reduced constraint system of the
properized graph G, and solves it over GF(2); its satisfiability is the
answer.  Only when a witness is wanted is the star form and its proper
subdivision G+ built: the solution is lifted to G+ and realized as a drawing
whose smoothed form passes the even-crossings verification; that drawing is
the returned witness.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import xorsat
from .constraints import (
    Assignment,
    ConstraintSystem,
    ReferenceSets,
    build_level_full,
    build_level_reduced,
    build_radial_full,
    build_radial_reduced,
    choose_reference_sets,
)
from .drawing import (
    CrossingReport,
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
from .graphs import LevelGraph, properize, require_valid


def to_xor_system(system: ConstraintSystem) -> xorsat.XorSystem:
    rows = [([system.index[v] for v in eq.vars], eq.parity) for eq in system.xors]
    return xorsat.XorSystem.build(len(system.variables), rows)


def solve_reduced(system: ConstraintSystem) -> Assignment | None:
    """One satisfying assignment of a pure-XOR system, or None."""
    if system.transitivity:
        raise ValueError("only reduced systems are solvable as XOR systems")
    result = xorsat.solve(to_xor_system(system))
    if isinstance(result, xorsat.Unsat):
        return None
    return {v: bool(result.assignment[i]) for v, i in system.index.items()}


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
    refs: ReferenceSets | None = None


def _attach_witness(result: CheckResult, phi: Assignment, ctx, lift, realize, report_fn) -> None:
    d = realize(lift(phi, ctx), ctx)
    report = report_fn(d, ctx)
    if report.ht_violations:
        raise AssertionError(f"witness drawing failed verification: {report.ht_violations[0]}")
    result.witness = d
    result.witness_report = report


def check_level(g: LevelGraph, *, witness: bool = False) -> CheckResult:
    require_valid(g)
    proper, _ = properize(g)
    system = build_level_reduced(proper)
    phi = solve_reduced(system)
    result = CheckResult("level", phi is not None, len(system.variables), len(system.xors))
    if phi is not None and witness:
        _attach_witness(result, phi, make_level_context(proper),
                        lift_assignment_level, drawing_from_assignment_level, star_report_level)
    return result


def check_radial(g: LevelGraph, *, witness: bool = False) -> CheckResult:
    require_valid(g)
    proper, _ = properize(g)
    refs, augmented = choose_reference_sets(proper)
    system = build_radial_reduced(augmented, refs)
    phi = solve_reduced(system)
    result = CheckResult("radial", phi is not None, len(system.variables), len(system.xors), refs=refs)
    if phi is not None and witness:
        _attach_witness(result, phi, make_radial_context(augmented, refs),
                        lift_assignment_radial, drawing_from_assignment_radial, star_report_radial)
    return result


def level_system_for_stage(g: LevelGraph, stage: str, reduced: bool = True) -> ConstraintSystem:
    require_valid(g)
    proper, _ = properize(g)
    if stage == "G":
        return build_level_reduced(proper) if reduced else build_level_full(proper)
    if stage == "Gplus":
        ctx = make_level_context(proper)
        return ctx.plus_system if reduced else build_level_full(ctx.pg.graph)
    raise ValueError(f"unknown stage {stage!r}")


def radial_system_for_stage(g: LevelGraph, stage: str, reduced: bool = True) -> ConstraintSystem:
    require_valid(g)
    proper, _ = properize(g)
    refs, augmented = choose_reference_sets(proper)
    if stage == "G":
        return build_radial_reduced(augmented, refs) if reduced else build_radial_full(augmented, refs)
    if stage == "Gplus":
        ctx = make_radial_context(augmented, refs)
        return ctx.plus_system if reduced else build_radial_full(ctx.pg.graph, ctx.plus_refs)
    raise ValueError(f"unknown stage {stage!r}")
