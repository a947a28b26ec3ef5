from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from planarity_ht.corpus import exhaustive_proper_graphs
from planarity_ht.pipeline import stage_context
from planarity_ht.xorsat import Sat, Unsat, XorSystem, eliminate, rank, solve


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
