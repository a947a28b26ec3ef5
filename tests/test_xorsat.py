from __future__ import annotations

import gc
import importlib.util
import random
import sys
import tracemalloc
from itertools import islice
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planarity_ht import xorsat
from planarity_ht.constraints import build_radial_reduced
from planarity_ht.corpus import exhaustive_proper_graphs
from planarity_ht.pipeline import check_level, check_radial, stage_context, system_for_stage, to_xor_system
from planarity_ht.xorsat import RowSource, Sat, Unsat, XorSystem, eliminate, rank, solve, violated
from tests.helpers import gauss_jordan_eliminate


def brute_force_satisfiable(sys: XorSystem) -> bool:
    for bits in range(1 << sys.n):
        if all(sum(bits >> i & 1 for i in idx) & 1 == p for idx, p in sys.rows):
            return True
    return False


def test_two_row_chain():
    sys = XorSystem.build(3, [([0, 1], 1), ([1, 2], 0)])
    result = solve(sys)
    assert isinstance(result, Sat)
    assert result.assignment == (1, 0, 0)


def test_contradiction_certificate():
    sys = XorSystem.build(2, [([0, 1], 0), ([0, 1], 1)])
    result = solve(sys)
    assert isinstance(result, Unsat)
    assert result.certificate == (0, 1)


def assert_contradiction(sys: XorSystem, certificate: tuple[int, ...]) -> None:
    """The certificate's rows sum to 0 = 1."""
    cols: set[int] = set()
    parity = 0
    for r in certificate:
        idx, p = sys.rows[r]
        for i in idx:
            cols ^= {i}
        parity ^= p
    assert cols == set() and parity == 1


def test_certificate_rows_sum_to_contradiction():
    rng = random.Random(5)
    found = 0
    while found < 20:
        n = rng.randint(1, 8)
        rows = [
            (sorted(rng.sample(range(n), rng.randint(1, min(3, n)))), rng.randint(0, 1))
            for _ in range(rng.randint(1, 12))
        ]
        sys = XorSystem.build(n, rows)
        result = solve(sys)
        if isinstance(result, Unsat):
            found += 1
            assert_contradiction(sys, result.certificate)


def test_rank_examples():
    assert rank(XorSystem.build(3, [])) == 0
    assert rank(XorSystem.build(2, [([0, 1], 1)])) == 1
    assert rank(XorSystem.build(3, [([0, 1], 0), ([1, 2], 0), ([0, 2], 0)])) == 2


@st.composite
def rank_systems(draw):
    """Rows of 0-4 indices over up to 8 variables, repeats allowed."""
    n = draw(st.integers(1, 8))
    rows = [(draw(st.lists(st.integers(0, n - 1), max_size=4)), draw(st.integers(0, 1)))
            for _ in range(draw(st.integers(0, 10)))]
    return XorSystem.build(n, rows)


@settings(max_examples=300, deadline=None)
@given(rank_systems())
def test_rank_counts_the_solutions_of_the_homogeneous_system(system):
    solutions = sum(all(sum(bits >> i & 1 for i in idx) & 1 == 0 for idx, _ in system.rows)
                    for bits in range(1 << system.n))
    assert solutions == 2 ** (system.n - rank(system))


@st.composite
def dense_systems(draw):
    """Up to 2n rows of 1 to n indices over n <= 24 variables, repeats allowed."""
    n = draw(st.integers(1, 24))
    rows = [(draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n)), draw(st.integers(0, 1)))
            for _ in range(draw(st.integers(0, 2 * n)))]
    return XorSystem.build(n, rows)


@settings(max_examples=400, deadline=None)
@given(dense_systems())
def test_echelon_elimination_matches_gauss_jordan(sys):
    # the pivot rows are the rows independent of the rows before them on both
    # paths, so the pivot columns, the assignment with free variables 0 and
    # the first contradiction's history over those rows are the same; Sat
    # compares assignment and free variables, Unsat its certificate
    assert eliminate(sys) == gauss_jordan_eliminate(sys)
    homogeneous = XorSystem(sys.n, tuple((idx, 0) for idx, _ in sys.rows))
    assert rank(sys) == sys.n - len(gauss_jordan_eliminate(homogeneous).free_vars)


def test_free_variables_default_to_zero():
    sys = XorSystem.build(4, [([0], 1)])
    result = solve(sys)
    assert isinstance(result, Sat)
    assert result.assignment == (1, 0, 0, 0)
    assert result.free_vars == (1, 2, 3)


@st.composite
def small_systems(draw):
    n = draw(st.integers(1, 10))
    n_rows = draw(st.integers(0, 12))
    rows = []
    for _ in range(n_rows):
        size = draw(st.integers(1, min(4, n)))
        idx = draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size, unique=True))
        rows.append((idx, draw(st.integers(0, 1))))
    return XorSystem.build(n, rows)


@settings(max_examples=150, deadline=None)
@given(small_systems())
def test_solve_agrees_with_enumeration(sys):
    result = solve(sys)
    assert isinstance(result, Sat) == brute_force_satisfiable(sys)


@settings(max_examples=50, deadline=None)
@given(small_systems())
def test_solve_is_deterministic(sys):
    a = solve(sys)
    b = solve(sys)
    assert a == b


@st.composite
def mostly_pair_systems(draw):
    """Rows of 1-4 indices, repeats allowed, most of them two-variable rows."""
    n = draw(st.integers(1, 12))
    rows = []
    for _ in range(draw(st.integers(0, 16))):
        size = draw(st.sampled_from([1, 2, 2, 2, 3, 4]))
        idx = draw(st.lists(st.integers(0, n - 1), min_size=size, max_size=size))
        rows.append((idx, draw(st.integers(0, 1))))
    return XorSystem.build(n, rows)


@settings(max_examples=400, deadline=None)
@given(mostly_pair_systems())
def test_union_find_solve_matches_plain_elimination(sys):
    result = solve(sys)
    reference = eliminate(sys)
    assert isinstance(result, Sat) == isinstance(reference, Sat)
    if isinstance(result, Sat):
        assert result == reference
    else:
        assert_contradiction(sys, result.certificate)


def test_union_find_certificates_cover_both_conflict_kinds():
    # a pair-row cycle with odd parity, and a 3-row conflict left for elimination
    cycle = XorSystem.build(3, [([0, 1], 1), ([1, 2], 1), ([0, 2], 1)])
    assert solve(cycle) == Unsat((0, 1, 2))
    residual = XorSystem.build(4, [([0, 1], 0), ([2, 3], 1), ([0, 2, 3], 0), ([1], 0)])
    result = solve(residual)
    assert isinstance(result, Unsat)
    assert_contradiction(residual, result.certificate)


def test_rows_as_built_solve_like_sorted_rows():
    # the pipeline hands the builders' rows to the solver unsorted
    unsorted = unsat = 0
    for n, g in enumerate(exhaustive_proper_graphs(3, 3)):
        if n % 50:
            continue
        for mode in ("level", "radial"):
            ctx = stage_context(g, mode)
            for system in (ctx.system, ctx.plus_system):
                rows = system.rows
                by_index = [(tuple(sorted(idx)), parity) for idx, parity in rows]
                result = solve(XorSystem(len(system.variables), rows))
                assert result == solve(XorSystem(len(system.variables), by_index))
                unsorted += by_index != rows
                unsat += isinstance(result, Unsat)
    assert unsorted > 20 and unsat > 20


def test_solve_memory_stays_below_the_size_of_its_rows(monkeypatch):
    # a radial planted 3x100 system leaves its cyclic-coupling rows to
    # elimination; building every leftover row's mask and history up front
    # peaked at 1.15 times the rows' own size (1.24 on Python 3.10), reducing
    # each row as it is read at 0.63 (0.68), and holding each leftover row
    # once, as the quotient list elimination reads, at 0.47 on Python 3.11.
    # With the consistency rows linked as twins it peaks at 0.364 on Python
    # 3.10 and 0.318 on 3.11, 3.12 and 3.13
    spec = importlib.util.spec_from_file_location("bench_gen", Path(__file__).parent.parent / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_gen", gen)  # its dataclasses look their module up
    spec.loader.exec_module(gen)
    g = gen.planted_planar(random.Random(7), [100] * 3, 1.0).graph
    ctx = stage_context(g, "radial")
    ctx.system  # the graph's indexes are built outside the trace
    gc.collect()
    tracemalloc.start()
    try:
        system = build_radial_reduced(ctx.base, ctx.refs)
        n, rows = system.n, system.rows
        del system
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]  # the rows, their index tuples and the indices
        tracemalloc.reset_peak()
        assert isinstance(solve(XorSystem(n, rows)), Sat)
        peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert peak < 0.45 * held


@pytest.mark.parametrize("mode", ["level", "radial"])
def test_the_streamed_solve_equals_elimination_of_the_made_rows(mode, bench_gen):
    # a decision solves G's system from its row source, the consistency rows
    # linked as twins; the row list made afterwards is elimination's input
    check = check_level if mode == "level" else check_radial
    graphs = [*islice(exhaustive_proper_graphs(3, 3), 0, None, 10),
              *(inst.graph for inst in bench_gen.decide_instances(1, 216))]
    unsat = 0
    for g in graphs:
        system = stage_context(g, mode).system
        streamed = solve(to_xor_system(system))
        assert isinstance(system.source, RowSource) and "rows" not in vars(system)
        rows = system.rows
        reference = eliminate(XorSystem(system.n, rows))
        if isinstance(reference, Sat):
            assert streamed == reference, g
        else:
            assert isinstance(streamed, Unsat), g
            assert_contradiction(XorSystem(system.n, rows), streamed.certificate)
            unsat += 1
        result = check(g)
        full = system_for_stage(g, mode, "G", full=True)
        assert (result.planar, result.variables, result.equations, result.transitivity_clauses) == (
            isinstance(reference, Sat), len(system.variables), len(rows), len(full.clauses)), g
    assert 100 < unsat < len(graphs) - 100


def test_twins_are_checked_as_they_are_read():
    def source(*runs):
        return XorSystem(4, RowSource(lambda: runs))

    for runs in ([(True, [(0, 1)]), (True, [(0, 2)])],  # 0 already joined to 1
                 [(True, [(2, 1)])],  # lo above hi
                 [(False, [((0, 3), 0)]), (True, [(0, 1)])]):  # 0 already joined to 3
        with pytest.raises(ValueError, match=r"needs lo < hi and lo in no larger variable's class"):
            solve(source(*runs))
    with pytest.raises(ValueError, match=r"row \(0, 4\) references an undeclared variable index, 4 declared"):
        solve(source((True, [(0, 4)])))
    with pytest.raises(ValueError, match=r"^row \[0, 4\] references an undeclared variable index, 4 declared$"):
        XorSystem.build(4, [([0, 1], 0), ([0, 4], 1)])
    with pytest.raises(ValueError, match=r"^row \[0, 1\] has parity 3, not 0 or 1$"):
        XorSystem.build(2, [([0, 1], 3), ([0], 2)])
    # a twin's lo may already be joined to a smaller variable; a closing row
    # after a conflict is counted, not read
    rows = source((False, [((0, 1), 1)]), (True, [(1, 2)]), (False, [((0, 2), 1), ((), 1), ((), 1)]))
    result = solve(rows)
    assert result == Unsat((0, 1, 2)) and len(rows.rows) == 5


def test_violated_reads_twins_as_twins():
    runs = [(True, [(0, 1), (2, 3)]), (False, [((0, 2), 0), ((1, 2, 3), 1), ((), 0)])]
    assert list(violated(runs, [0, 1, 1, 1])) == [((2, 3), 1), ((0, 2), 0)]
    assert list(violated(runs, [False, True, False, True])) == [((1, 2, 3), 1)]
    assert list(violated(runs, [1, 0, 1, 0])) == []


def test_the_solvers_own_assignment_check_fires(monkeypatch):
    # the three-variable rows are left over for elimination; an elimination
    # that hands back one wrong bit must be caught by the solver's own check
    system = XorSystem.build(4, [([0, 1, 2], 1), ([1, 2, 3], 0), ([0, 3], 1)])
    eliminated = xorsat._eliminate

    def one_wrong_bit(sys):
        result = eliminated(sys)
        bits = list(result.assignment)
        bits[0] ^= 1
        return Sat(tuple(bits), result.free_vars)

    assert isinstance(solve(system), Sat) and isinstance(eliminate(system), Sat)
    monkeypatch.setattr(xorsat, "_eliminate", one_wrong_bit)
    for run in (solve, eliminate):
        with pytest.raises(AssertionError, match="^internal error: assignment does not satisfy a row$"):
            run(system)
