"""Cross-validation of the solver pipelines against the brute-force oracles.

Each mode of an instance runs through one comparison: the reduced-system
decisions (on the input, on its subdivision and, in radial mode, across
distinct reference selections) must agree with the enumeration oracle, and
a satisfiable instance must round-trip through drawing construction and
back.  The way back is the witness's even-crossings check: it converts a
drawing of the subdivision exactly when its independent edges cross evenly
(the strong Hanani-Tutte theorem), and otherwise names the first odd pair.
A lift that violates the subdivision's system, or a drawing that does not
convert back, is a mismatch of its mode like any other.  The star forms'
structural counts must match the construction's arithmetic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .constraints import build_radial_reduced, reference_set_variants
from .drawing import (
    NotHananiTutteError,
    UnsatisfyingAssignmentError,
    assignment_from_drawing_level,
    assignment_from_drawing_radial,
    drawing_from_assignment_level,
    drawing_from_assignment_radial,
    lift_assignment_level,
    lift_assignment_radial,
    make_level_context,
    make_radial_context,
    require_satisfying,
)
from .graphs import LevelGraph, properize
from .iofmt import graph_to_json
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
    """A level with n vertices expands into 2n sublevels; in radial mode into
    2n-1 when its two anchors differ and 2n+1 when they coincide."""
    refs = radial_ctx.refs
    radial = [2 * n - 1 if refs.alpha_plus[i] != refs.alpha_minus[i] else 2 * n + 1
              for i, n in enumerate(radial_ctx.base.widths(), 1)]
    problems = []
    for name, sf, expected in (("plain", level_ctx.star_form, [2 * n for n in g.widths()]),
                               ("radial", radial_ctx.star_form, radial)):
        got_by_level = Counter(sf.level_origin.values())  # each level's sublevels, counted in one pass
        for i, expect in enumerate(expected, 1):
            got = got_by_level[i]
            if got != expect:
                problems.append(f"{name} star form: level {i} expanded to {got} sublevels, expected {expect}")
    return problems


def _compare(mode: str, ctx, alternatives, oracle, lift, realize, back) -> list[str]:
    """Compare one mode's decisions on G's system, on each alternative system
    and on G+'s system with the oracle's.  When they agree on planar, lift
    G's solution, check the lift against G+'s system, realize the drawing
    and convert it back, which is its even-crossings check."""
    if oracle.planar:
        # the round trip reads both systems' rows: held before the solves, they are made once
        ctx.system.runs, ctx.plus_system.runs
    phi = solve_reduced(ctx.system)
    sats = [phi is not None] + [solve_reduced(system) is not None for system in alternatives]
    sat_plus = solve_reduced(ctx.plus_system) is not None
    if set(sats) | {sat_plus} != {oracle.planar}:
        return [f"{mode} decisions diverge: input systems {sats}, subdivision system {sat_plus}, "
                f"oracle {oracle.planar}"]
    if not oracle.planar:
        return []
    try:
        lifted = lift(phi, ctx)
        require_satisfying(ctx.plus_system, lifted)
        back(realize(lifted, ctx), ctx)
    except (UnsatisfyingAssignmentError, NotHananiTutteError) as exc:
        return [f"{mode} round trip failed: {exc}"]
    return []


def crosscheck_instance(g: LevelGraph, budget: int | None = None) -> tuple[list[str], bool, bool]:
    """Run every solver/oracle/round-trip comparison on one instance.

    Returns (mismatch descriptions, level planar, radial planar).
    """
    proper, _ = properize(g)
    lctx = make_level_context(proper)
    level_oracle = brute_level(proper, budget)
    problems = _compare("level", lctx, [], level_oracle, lift_assignment_level,
                        drawing_from_assignment_level, assignment_from_drawing_level)

    (refs, augmented), *others = reference_set_variants(proper)
    rctx = make_radial_context(augmented, refs)
    radial_oracle = brute_radial(rctx.base, rctx.refs, budget)
    problems += _compare("radial", rctx, [build_radial_reduced(alt, alt_refs) for alt_refs, alt in others],
                         radial_oracle, lift_assignment_radial, drawing_from_assignment_radial,
                         assignment_from_drawing_radial)

    problems += check_structural_counts(proper, lctx, rctx)
    if level_oracle.planar and not radial_oracle.planar:
        problems.append("level planar instance reported radially non-planar")
    return problems, level_oracle.planar, radial_oracle.planar


def run_crosscheck(instances, budget: int | None = None) -> CrosscheckSummary:
    """Crosscheck each instance in turn; stop at the first with a mismatch.
    `instances` is read lazily, so an iterator is drawn only that far."""
    summary = CrosscheckSummary()
    for g in instances:
        problems, level_planar, radial_planar = crosscheck_instance(g, budget)
        summary.instances += 1
        summary.level_planar += level_planar
        summary.radial_planar += radial_planar
        if problems:
            summary.mismatches.append(f"instance {graph_to_json(g)}: " + "; ".join(problems))
            break
    return summary
