"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  The exhaustive corpus is produced once per session.
"""

from __future__ import annotations

import random
import time
from itertools import combinations

import numpy as np
import pytest

from planarity_ht.constraints import (
    PairVar,
    build_level_reduced,
    build_radial_reduced,
    choose_reference_sets,
    reference_set_variants,
)
from planarity_ht.corpus import exhaustive_proper_graphs, random_proper_graph
from planarity_ht.drawing import (
    assignment_from_drawing_level,
    assignment_from_drawing_radial,
    drawing_from_assignment_level,
    drawing_from_assignment_radial,
    gap_crossing_pairs_radial,
    lift_assignment_level,
    lift_assignment_radial,
    make_level_context,
    make_radial_context,
    require_satisfying,
    star_report_level,
    star_report_radial,
)
from planarity_ht.graphs import LevelGraph, critical_pairs, independent, limits
from planarity_ht.oracle import brute_level, brute_radial
from planarity_ht.pipeline import check_level, check_radial, solve_reduced
from planarity_ht.xorsat import Sat, XorSystem, solve
from tests.conftest import make_path
from tests.helpers import induced_pair_assignment, random_level_drawing, random_radial_drawing

CORPUS_LEVELS = 3
CORPUS_WIDTH = 3
CORPUS_CAP = 20_000


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name} failed: {detail}"


@pytest.fixture(scope="session")
def corpus() -> list[LevelGraph]:
    return list(exhaustive_proper_graphs(CORPUS_LEVELS, CORPUS_WIDTH, cap=CORPUS_CAP))


@pytest.fixture(scope="session")
def level_results(corpus):
    """((solver satisfiable, oracle planar) per corpus instance, elapsed seconds)."""
    t0 = time.time()
    out = []
    for g in corpus:
        sat = solve_reduced(build_level_reduced(g)) is not None
        out.append((sat, brute_level(g).planar))
    return out, time.time() - t0


@pytest.fixture(scope="session")
def radial_results(corpus):
    """((per-variant decisions, oracle planar, variant count) per instance, elapsed)."""
    t0 = time.time()
    out = []
    for g in corpus:
        variants = reference_set_variants(g)
        sats = [solve_reduced(build_radial_reduced(aug, refs)) is not None for refs, aug in variants]
        refs0, aug0 = variants[0]
        planar = brute_radial(aug0, refs0, budget=10_000_000).planar
        out.append((sats, planar, len(variants)))
    return out, time.time() - t0


def test_criterion_1_level_equivalence(corpus, level_results):
    results, elapsed = level_results
    mismatches = sum(1 for sat, planar in results if sat != planar)
    _report(
        "1 level equivalence",
        mismatches == 0 and elapsed < 60,
        f"{len(corpus)} instances, {mismatches} mismatches, {elapsed:.1f}s (budget 60s)",
    )


def test_criterion_2_radial_equivalence(corpus, radial_results):
    results, elapsed = radial_results
    mismatches = 0
    multi_variant = 0
    for sats, planar, n_variants in results:
        if any(s != planar for s in sats):
            mismatches += 1
        multi_variant += n_variants >= 2
    _report(
        "2 radial equivalence",
        mismatches == 0 and elapsed < 300,
        f"{len(corpus)} instances, {mismatches} mismatches, {elapsed:.1f}s (budget 300s), "
        f"{multi_variant} instances offered 2 distinct reference selections "
        f"(the rest admit exactly one)",
    )


def test_criterion_3_hanani_tutte_synthesis(corpus, level_results, radial_results):
    t0 = time.time()
    level_built = radial_built = violations = 0
    for g, (level_sat, _), (radial_sats, radial_planar, _) in zip(
        corpus, level_results[0], radial_results[0]
    ):
        if level_sat:
            ctx = make_level_context(g)
            phi = solve_reduced(build_level_reduced(g))
            phi_plus = lift_assignment_level(phi, ctx)
            d = drawing_from_assignment_level(phi_plus, ctx)
            violations += bool(star_report_level(d, ctx).ht_violations)
            level_built += 1
        if radial_planar:
            refs, aug = reference_set_variants(g)[0]
            ctx = make_radial_context(aug, refs)
            phi = solve_reduced(build_radial_reduced(aug, refs))
            phi_plus = lift_assignment_radial(phi, ctx)
            d = drawing_from_assignment_radial(phi_plus, ctx)
            violations += bool(star_report_radial(d, ctx).ht_violations)
            radial_built += 1
    _report(
        "3 even-crossings synthesis",
        violations == 0,
        f"{level_built} level and {radial_built} radial drawings built, "
        f"{violations} verification failures, {time.time() - t0:.1f}s",
    )


def test_lift_satisfies_the_subdivision_system_on_the_corpus(corpus, level_results, radial_results):
    # the lifting lemma: a solution of G's reduced system lifts to one of
    # G+'s; the witness path reads the lift without building G+'s system
    level_lifted = radial_lifted = 0
    for g, (level_sat, _), (_, radial_planar, _) in zip(corpus, level_results[0], radial_results[0]):
        if level_sat:
            ctx = make_level_context(g)
            require_satisfying(ctx.plus_system, lift_assignment_level(solve_reduced(ctx.system), ctx))
            level_lifted += 1
        if radial_planar:
            refs, aug = reference_set_variants(g)[0]
            ctx = make_radial_context(aug, refs)
            require_satisfying(ctx.plus_system, lift_assignment_radial(solve_reduced(ctx.system), ctx))
            radial_lifted += 1
    assert level_lifted > 0 and radial_lifted > 0


def test_criterion_4_crossing_parity_limits():
    rng = random.Random(20250810)
    drawings = 0
    pairs_checked = 0
    disagreements = 0
    while drawings < 1000:
        g = random_proper_graph(rng, max_levels=3, max_width=3)
        ctx = make_level_context(g)
        star = ctx.star_form.star
        crits = critical_pairs(star)
        for _ in range(10):
            if drawings >= 1000:
                break
            d = random_level_drawing(rng, ctx.pg.graph)
            psi = induced_pair_assignment(d)
            report = star_report_level(d, ctx)
            for pair in crits:
                lim = limits(pair, ctx.pg.graph, ctx.pg.prov)
                even = report.count(pair.e, pair.f) % 2 == 0
                agree = psi[PairVar(lim.e_low, lim.f_low)] == psi[PairVar(lim.e_high, lim.f_high)]
                disagreements += even != agree
                pairs_checked += 1
            drawings += 1
    _report(
        "4 crossing parity at limits",
        disagreements == 0,
        f"{drawings} drawings, {pairs_checked} critical pairs, {disagreements} disagreements",
    )


def _cyclic_clockwise(order, a, b, c):
    pos = {v: i for i, v in enumerate(order)}
    n = len(order)
    return (pos[b] - pos[a]) % n < (pos[c] - pos[a]) % n


def test_criterion_5_three_paths_parity():
    rng = random.Random(5081520)
    drawings = 0
    triples_checked = 0
    disagreements = 0
    while drawings < 1000:
        g = random_proper_graph(rng, max_levels=3, max_width=4, edge_density=0.6)
        refs, aug = choose_reference_sets(g)
        ctx = make_radial_context(aug, refs)
        pg = ctx.pg
        star = ctx.star_form.star
        origin = ctx.segment_origin
        indep_triples = [
            t for t in combinations(sorted(star.edges), 3)
            if all(independent(a, b) for a, b in combinations(t, 2))
        ]
        for _ in range(5):
            if drawings >= 1000:
                break
            d = random_radial_drawing(rng, pg.graph, ctx.plus_refs)
            cross_by_gap = {
                j: gap_crossing_pairs_radial(d, pg.graph, ctx.plus_refs, j)
                for j in range(1, pg.graph.k)
            }
            for e1, e2, e3 in indep_triples:
                lo = max(star.level[e[0]] for e in (e1, e2, e3))
                hi = min(star.level[e[1]] for e in (e1, e2, e3))
                if lo >= hi:
                    continue
                total = 0
                for j in range(lo, hi):
                    for s, t in cross_by_gap[j]:
                        o1, o2 = origin(s), origin(t)
                        if o1 != o2 and {o1, o2} <= {e1, e2, e3}:
                            total += 1
                pts_lo = [pg.point_at(e, lo) for e in (e1, e2, e3)]
                pts_hi = [pg.point_at(e, hi) for e in (e1, e2, e3)]
                same = _cyclic_clockwise(d.cyclic[lo], *pts_lo) == _cyclic_clockwise(d.cyclic[hi], *pts_hi)
                disagreements += same != (total % 2 == 0)
                triples_checked += 1
            drawings += 1
    _report(
        "5 three-path boundary parity",
        disagreements == 0 and triples_checked >= 1000,
        f"{drawings} drawings, {triples_checked} path triples, {disagreements} disagreements",
    )


def test_criterion_6_round_trips():
    rng = random.Random(606060)
    level_done = radial_done = failures = 0
    while level_done < 250 or radial_done < 250:
        g = random_proper_graph(rng, max_levels=4, max_width=5, edge_density=0.35)
        if level_done < 250:
            phi = solve_reduced(build_level_reduced(g))
            if phi is not None:
                ctx = make_level_context(g)
                phi_plus = lift_assignment_level(phi, ctx)
                d = drawing_from_assignment_level(phi_plus, ctx)
                try:
                    assignment_from_drawing_level(d, ctx)
                except Exception:
                    failures += 1
                level_done += 1
        if radial_done < 250:
            try:
                refs, aug = choose_reference_sets(g)
            except ValueError:
                continue
            phi = solve_reduced(build_radial_reduced(aug, refs))
            if phi is not None:
                ctx = make_radial_context(aug, refs)
                phi_plus = lift_assignment_radial(phi, ctx)
                d = drawing_from_assignment_radial(phi_plus, ctx)
                try:
                    assignment_from_drawing_radial(d, ctx)
                except Exception:
                    failures += 1
                radial_done += 1
    _report(
        "6 drawing round trips",
        failures == 0,
        f"{level_done} level + {radial_done} radial satisfiable instances, {failures} failures",
    )


def test_criterion_7_named_instances(k22):
    level = check_level(k22).planar
    radial = check_radial(k22).planar
    paths_ok = all(
        check_level(make_path(k)).planar and check_radial(make_path(k)).planar
        for k in range(1, 7)
    )
    ok = (not level) and radial and paths_ok
    _report(
        "7 named instances",
        ok,
        f"K2,2 level planar={level} radial planar={radial}, paths k=1..6 all planar={paths_ok}",
    )


def test_criterion_8_structural_counts(corpus):
    bad = 0
    for g in corpus:
        widths = g.widths()
        sf = make_level_context(g).star_form
        for i in range(1, g.k + 1):
            if len(sf.block(i)) != 2 * widths[i - 1]:
                bad += 1
        refs, aug = choose_reference_sets(g)
        rsf = make_radial_context(aug, refs).star_form
        for i in range(1, g.k + 1):
            n = len(aug.on_level(i))
            expect = 2 * n - 1 if refs.alpha_plus[i] != refs.alpha_minus[i] else 2 * n + 1
            if len(rsf.block(i)) != expect:
                bad += 1
    _report("8 star form sublevel counts", bad == 0, f"{len(corpus)} instances, {bad} bad blocks")


def _numpy_satisfiable(sys: XorSystem) -> bool:
    n = sys.n
    ok = np.ones(1 << n, dtype=bool)
    assignments = np.arange(1 << n, dtype=np.uint32)
    for idx, parity in sys.rows:
        acc = np.zeros(1 << n, dtype=np.uint32)
        for i in idx:
            acc ^= (assignments >> np.uint32(i)) & np.uint32(1)
        ok &= acc == parity
        if not ok.any():
            return False
    return bool(ok.any())


def test_criterion_9_xor_solver_vs_enumeration():
    rng = random.Random(909090)
    mismatches = 0
    for _ in range(1000):
        n = rng.randint(1, 16)
        rows = []
        for _ in range(rng.randint(0, 2 * n)):
            size = rng.randint(1, min(4, n))
            rows.append((sorted(rng.sample(range(n), size)), rng.randint(0, 1)))
        sys_ = XorSystem.build(n, rows)
        mismatches += isinstance(solve(sys_), Sat) != _numpy_satisfiable(sys_)
    _report("9 solver vs enumeration", mismatches == 0, f"1000 systems (n <= 16), {mismatches} mismatches")
