"""Checks of the benchmark's own parts: labels, tracing and determinism.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import gen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from reference import REFERENCE_S  # noqa: E402
from planarity_ht.constraints import choose_reference_sets  # noqa: E402
from planarity_ht.drawing import LevelDrawing, count_crossings_level  # noqa: E402
from planarity_ht.oracle import BudgetExceededError, brute_level, brute_radial  # noqa: E402
from planarity_ht.pipeline import check_level  # noqa: E402

BUDGET = 20_000


def _oracle_answers(g):
    """(level, radial) answers of the enumeration oracles, or None past the budget."""
    try:
        refs, augmented = choose_reference_sets(g)
        return brute_level(g, BUDGET).planar, brute_radial(augmented, refs, BUDGET).planar
    except BudgetExceededError:
        return None


@pytest.mark.parametrize("make", [gen.decide_instances, gen.witness_instances])
def test_built_labels_match_the_oracles(make):
    checked = 0
    for seed in range(3):
        for inst in make(seed, 36):
            answers = _oracle_answers(inst.graph)
            if answers is not None:
                assert answers == (inst.planar, inst.planar), inst.graph
                checked += 1
    assert checked >= 6


def test_hidden_orders_are_crossing_free():
    for inst in gen.decide_instances(0, 18) + gen.witness_instances(0, 10):
        if inst.planar:
            report = count_crossings_level(LevelDrawing(inst.hidden), inst.graph)
            assert report.planar, inst.graph


def test_planted_families_within_budget():
    rng = random.Random(7)
    for _ in range(20):
        inst = gen.planted_planar(rng, [3, 3, 3], keep=0.8)
        for candidate in (inst, gen.plant_k33(rng, inst)):
            assert _oracle_answers(candidate.graph) == (candidate.planar, candidate.planar)


def test_level_search_matches_the_oracle():
    for inst in gen.corpus_sample(0, 150):
        assert gen.level_planar(inst.graph) == brute_level(inst.graph).planar, inst.graph


def test_corpus_sample_is_stratified_and_seeded():
    a, b = gen.corpus_sample(1, 100), gen.corpus_sample(2, 100)
    sizes = lambda pool: sorted((tuple(i.graph.widths()), len(i.graph.edges)) for i in pool)  # noqa: E731
    assert sizes(a) == sizes(b)
    assert [i.graph for i in a] != [i.graph for i in b]
    assert [i.graph for i in a] == [i.graph for i in gen.corpus_sample(1, 100)]


def test_missing_hook_is_reported_not_raised():
    tracer = tracing.Tracer()
    tracer.hook("pipeline", "no_such_function", "x")
    tracer.hook("no_such_module", "f", "x")
    assert tracer.missing == ["pipeline.no_such_function", "no_such_module.f"]


def test_self_times_add_up_to_the_traced_time():
    from planarity_ht import pipeline

    tracer = tracing.install()
    g = gen.witness_instances(0, 1)[0].graph
    tracer.attach()
    try:
        pipeline.check_level(g, witness=True)
    finally:
        tracer.detach()
    assert tracer.missing == []
    spans = tracer.by_name()
    assert spans["pipeline.check"][0] == 1
    assert sum(s for _, s in spans.values()) == pytest.approx(tracer.root_seconds())
    assert check_level is pipeline.check_level  # detach restored the original


def test_call_latencies_follow_the_nearby_reference_speed():
    """The machine halves its speed halfway: both calls still read as 10 ms at the reference speed."""
    n = 4 * run.REF_WINDOW
    phase = run.Phase(2)
    for k in range(2 * n):
        slow = k >= n
        phase.samples.append((int(slow), 0.02 if slow else 0.01))
        phase.refs.append(2 * REFERENCE_S if slow else REFERENCE_S)
    assert run.call_latencies(phase) == pytest.approx([0.01, 0.01])


COUNT_UNITS = {"count", "ratio"}


def _counts(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=300, cwd=BENCH.parent,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] in COUNT_UNITS}


@pytest.mark.parametrize("workload", ["decide", "witness", "crosscheck"])
def test_counts_repeat_exactly_across_runs(workload):
    assert _counts(workload, 3) == _counts(workload, 3)
