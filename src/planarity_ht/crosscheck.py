"""Cross-validation of the solver pipelines against the brute-force oracles.

For every instance the reduced-system decisions (on the input and on its
subdivision, and across distinct reference selections) must agree with the
enumeration oracle, satisfiable instances must round-trip through drawing
construction and back, and the star form's structural counts must match the
construction's arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .constraints import build_radial_reduced, reference_set_variants
from .drawing import (
    assignment_from_drawing_level,
    assignment_from_drawing_radial,
    drawing_from_assignment_level,
    drawing_from_assignment_radial,
    lift_assignment_level,
    lift_assignment_radial,
    make_level_context,
    make_radial_context,
    require_satisfying,
    star_report_level,
    star_report_radial,
)
from .graphs import LevelGraph, properize
from .oracle import brute_level, brute_radial
from .pipeline import solve_reduced


@dataclass
class CrosscheckSummary:
    instances: int = 0
    level_planar: int = 0
    radial_planar: int = 0
    mismatches: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


def check_structural_counts(g: LevelGraph, level_ctx, radial_ctx) -> list[str]:
    problems = []
    widths = g.widths()
    sf = level_ctx.star_form
    for i in range(1, g.k + 1):
        expect = 2 * widths[i - 1]
        got = len(sf.block(i))
        if got != expect:
            problems.append(f"plain star form: level {i} expanded to {got} sublevels, expected {expect}")
    rsf = radial_ctx.star_form
    refs = radial_ctx.refs
    for i in range(1, g.k + 1):
        n = len(radial_ctx.base.on_level(i))
        expect = 2 * n - 1 if refs.alpha_plus[i] != refs.alpha_minus[i] else 2 * n + 1
        got = len(rsf.block(i))
        if got != expect:
            problems.append(f"radial star form: level {i} expanded to {got} sublevels, expected {expect}")
    return problems


def _round_trip(mode: str, phi, ctx, lift, realize, report_fn, back) -> list[str]:
    """Lift a solution and check the lift against the subdivision's reduced
    system, realize and verify the drawing, and extract a satisfying
    assignment from it again; the checks and `back` raise if they fail."""
    lifted = lift(phi, ctx)
    require_satisfying(ctx.plus_system, lifted)
    d = realize(lifted, ctx)
    report = report_fn(d, ctx)
    if report.ht_violations:
        return [f"{mode} witness has odd independent pair {report.ht_violations[0]}"]
    back(d, ctx)
    return []


def crosscheck_instance(g: LevelGraph, budget: int | None = None) -> tuple[list[str], bool, bool]:
    """Run every solver/oracle/round-trip comparison on one instance.

    Returns (mismatch descriptions, level planar, radial planar).
    """
    problems: list[str] = []
    proper, _ = properize(g)
    lctx = make_level_context(proper)

    phi = solve_reduced(lctx.system)
    sat_g = phi is not None
    sat_gp = solve_reduced(lctx.plus_system) is not None
    level_oracle = brute_level(proper, budget)
    if not sat_g == sat_gp == level_oracle.planar:
        problems.append(
            f"level decisions diverge: input system {sat_g}, subdivision system {sat_gp}, "
            f"oracle {level_oracle.planar}"
        )
    if sat_g and not problems:
        problems += _round_trip("level", phi, lctx, lift_assignment_level,
                                drawing_from_assignment_level, star_report_level,
                                assignment_from_drawing_level)

    (refs, augmented), *others = reference_set_variants(proper)
    rctx = make_radial_context(augmented, refs)
    radial_phis = [solve_reduced(rctx.system)]
    radial_phis += [solve_reduced(build_radial_reduced(alt_graph, alt_refs)) for alt_refs, alt_graph in others]
    radial_sats = [p is not None for p in radial_phis]
    sat_radial_gp = solve_reduced(rctx.plus_system) is not None
    radial_oracle = brute_radial(rctx.base, rctx.refs, budget)
    decisions = set(radial_sats) | {sat_radial_gp, radial_oracle.planar}
    if len(decisions) != 1:
        problems.append(
            f"radial decisions diverge: input systems {radial_sats}, subdivision system "
            f"{sat_radial_gp}, oracle {radial_oracle.planar}"
        )
    if radial_oracle.planar and not problems:
        problems += _round_trip("radial", radial_phis[0], rctx, lift_assignment_radial,
                                drawing_from_assignment_radial, star_report_radial,
                                assignment_from_drawing_radial)

    problems.extend(check_structural_counts(proper, lctx, rctx))

    if level_oracle.planar and not radial_oracle.planar:
        problems.append("level planar instance reported radially non-planar")

    return problems, level_oracle.planar, radial_oracle.planar


def run_crosscheck(instances, budget: int | None = None) -> CrosscheckSummary:
    """Crosscheck each instance in turn; stop at the first with a mismatch."""
    summary = CrosscheckSummary()
    for g in instances:
        problems, level_planar, radial_planar = crosscheck_instance(g, budget)
        summary.instances += 1
        summary.level_planar += level_planar
        summary.radial_planar += radial_planar
        if problems:
            from .iofmt import graph_to_json

            summary.mismatches.append(f"instance {graph_to_json(g)}: " + "; ".join(problems))
            break
    return summary
