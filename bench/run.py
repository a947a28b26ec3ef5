"""Seeded benchmark of the planarity_ht library, driven through its public API.

    python3 bench/run.py --workload decide --seed 1 --seconds 36 --trace 0

One caller, one thread, closed loop: each call starts when the previous one
has returned.  The pool of instances is made from --seed and cycled through
until --seconds have passed, answer checks included, and at least one full
pass is done.  A call is timed in CPU seconds of the process and scaled to
the reference speed (see reference.py), so the host's drift in speed stays
out of the figures.  A call's latency is the median of its repeats (most
calls run once); `inst_per_s` is calls divided by the sum of those
latencies.  Every answer is checked outside the timed region.

With --trace 0 the last line of stdout holds the end-to-end metrics.  With
--trace 1 the run first spends a quarter of --seconds on the tracing
overhead, then makes one full pass with every layer boundary traced (see
tracing.py), and the last line holds the per-layer metrics.  The line before it is a JSON object
with the run's details.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

sys.dont_write_bytecode = True  # the same import cost on every run, and nothing written
BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"


def _import_library():
    """Import planarity_ht from this checkout's src/, refusing any other copy."""
    sys.path[:0] = [str(SRC), str(BENCH)]
    start = time.process_time()
    try:
        import planarity_ht
        from planarity_ht import crosscheck, drawing, pipeline  # noqa: F401
    except ImportError as exc:
        sys.exit(f"bench: cannot import planarity_ht from {SRC}: {exc}")
    took = time.process_time() - start
    if not Path(planarity_ht.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: planarity_ht was imported from {planarity_ht.__file__}, not from {SRC}")
    return took


IMPORT_S = _import_library()

import gen  # noqa: E402
import tracing  # noqa: E402
from reference import REFERENCE_S, reference_seconds  # noqa: E402
from planarity_ht import constraints, crosscheck, drawing, graphs, pipeline  # noqa: E402

TAIL_PERCENTILES = (99.9, 99.5, 99, 98, 95, 90, 80, 75, 50)
SETUP_REPEATS = 5
WARMUP_INSTANCES = 4
REF_WINDOW = 10     # reference times on each side of a call that set its scale
REF_AROUND_SETUP = 5


@dataclass(frozen=True)
class Workload:
    name: str
    pool_size: int
    make_pool: Callable[[int, int], list[gen.Instance]]
    modes: tuple[str, ...]
    call: Callable[[gen.Instance, str], object]
    check: Callable[[gen.Instance, str, object], str | None]


def _check_fn(mode: str):
    # looked up on every call, so the tracer's wrapper is found while attached
    return getattr(pipeline, f"check_{mode}")


def _check_decision(inst: gen.Instance, mode: str, result) -> str | None:
    if result.planar != inst.planar:
        return f"{mode}: answered planar={result.planar}, built planar={inst.planar}"
    if result.witness is not None:
        return f"{mode}: a decision without --witness returned a witness"
    return None


def _stage_context(g, mode: str):
    proper, _ = graphs.properize(g)
    if mode == "level":
        return drawing.make_level_context(proper)
    refs, augmented = constraints.choose_reference_sets(proper)
    return drawing.make_radial_context(augmented, refs)


def _check_witness(inst: gen.Instance, mode: str, result) -> str | None:
    """The witness orders each stage level exactly once and has no odd independent pair."""
    if not result.planar:
        return f"{mode}: planar-by-construction graph reported non-planar"
    d = result.witness
    if d is None:
        return f"{mode}: no witness returned"
    ctx = _stage_context(inst.graph, mode)
    stage = ctx.pg.graph
    orders = d.orders if mode == "level" else d.cyclic
    if sorted(orders) != list(range(1, stage.k + 1)):
        return f"{mode}: witness levels {sorted(orders)} are not 1..{stage.k}"
    for j in range(1, stage.k + 1):
        if sorted(orders[j]) != list(stage.on_level(j)):
            return f"{mode}: witness level {j} does not hold each stage vertex exactly once"
    report = drawing.star_report_level(d, ctx) if mode == "level" else drawing.star_report_radial(d, ctx)
    if report.ht_violations:
        return f"{mode}: witness has an odd independent pair {report.ht_violations[0]}"
    return None


def _check_crosscheck(inst: gen.Instance, mode: str, result) -> str | None:
    problems, level_planar, radial_planar = result
    if problems:
        return "; ".join(problems)
    if level_planar != gen.level_planar(inst.graph):
        return f"level answer {level_planar} differs from the benchmark's own search"
    if level_planar and not radial_planar:
        return "level planar but radially non-planar"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload("decide", 216, gen.decide_instances, ("level", "radial"),
                 lambda inst, mode: _check_fn(mode)(inst.graph), _check_decision),
        Workload("witness", 200, gen.witness_instances, ("level", "radial"),
                 lambda inst, mode: _check_fn(mode)(inst.graph, witness=True), _check_witness),
        Workload("crosscheck", 960, gen.corpus_sample, ("both",),
                 lambda inst, mode: crosscheck.crosscheck_instance(inst.graph), _check_crosscheck),
    )
}


class Verifier:
    """Checks each answer once; a repeat of an already checked answer is compared, not re-checked."""

    def __init__(self, workload: Workload, pool: list[gen.Instance]):
        self.workload = workload
        self.pool = pool
        self.checked: dict[tuple[int, str], object] = {}

    def __call__(self, i: int, mode: str, result) -> str | None:
        key = (i, mode)
        if key in self.checked and _same_answer(self.checked[key], result):
            return None
        try:
            problem = self.workload.check(self.pool[i], mode, result)
        except Exception as exc:  # a malformed answer can break the check itself
            problem = f"{mode}: checking the answer raised {type(exc).__name__}: {exc}"
        if problem is None:
            self.checked[key] = result
        return problem


def _same_answer(a, b) -> bool:
    if isinstance(a, tuple):
        return a == b
    return (a.planar, a.witness) == (b.planar, b.witness)


@dataclass
class Phase:
    calls: int
    samples: list[tuple[int, float]] = field(default_factory=list)  # (call index, CPU seconds)
    refs: list[float] = field(default_factory=list)  # reference time just before each sample
    attempted: int = 0
    failed: int = 0
    full_passes: int = 0

    def cpu_seconds(self) -> float:
        return sum(took for _, took in self.samples)

    def scale(self) -> float:
        """REFERENCE_S over the phase's median reference time."""
        return REFERENCE_S / statistics.median(self.refs)


def measure(workload: Workload, pool, verify: Verifier, budget_s: float, problems: list[str],
            tracer: tracing.Tracer | None = None, on_pass: Callable[[], None] | None = None) -> Phase:
    """Cycle through the pool's calls until budget_s has passed and one full pass is done."""
    calls = [(i, mode) for i in range(len(pool)) for mode in workload.modes]
    phase = Phase(len(calls))
    start = time.perf_counter()
    while True:
        for c, (i, mode) in enumerate(calls):
            if phase.full_passes and time.perf_counter() - start >= budget_s:
                return phase
            phase.refs.append(reference_seconds())
            if tracer is not None:
                tracer.attach()
            problem = None
            t0 = tracing.clock()
            try:
                result = workload.call(pool[i], mode)
            except Exception as exc:  # any failure of the library counts against it
                took = tracing.clock() - t0
                problem = f"{mode}: {type(exc).__name__}: {exc}"
            else:
                took = tracing.clock() - t0
            if tracer is not None:
                tracer.detach()
            if problem is None:
                problem = verify(i, mode, result)
            phase.samples.append((c, took))
            phase.attempted += 1
            if problem is not None:
                phase.failed += 1
                problems.append(f"instance {i}: {problem}")
        phase.full_passes += 1
        if on_pass is not None:
            on_pass()


def call_latencies(phase: Phase) -> list[float]:
    """Each call's median latency over its repeats, in seconds at the reference speed.

    A sample is scaled by REFERENCE_S over the median of the reference times
    measured within REF_WINDOW calls of it, which follows the machine's
    drift in speed during the run.
    """
    scaled: list[list[float]] = [[] for _ in range(phase.calls)]
    refs = phase.refs
    for k, (c, took) in enumerate(phase.samples):
        nearby = refs[max(0, k - REF_WINDOW): k + REF_WINDOW + 1]
        scaled[c].append(took * REFERENCE_S / statistics.median(nearby))
    return [statistics.median(ls) for ls in scaled]


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """The highest of TAIL_PERCENTILES with at least 10 samples above it (nearest rank)."""
    ordered = sorted(latencies)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p * n / 100))  # 1-based
        if n - rank >= 10:
            return p, ordered[rank - 1], n - rank
    return 0.0, ordered[0], n - 1


def timed_setups(workload: Workload, seed: int) -> tuple[list[gen.Instance], float]:
    """The pool and the median set-up time, library import included, at the reference speed.

    Each round of set-up is scaled by the reference times measured just
    before and after it; the import by those before the first round.
    """
    for _ in range(REF_AROUND_SETUP):  # the interpreter specialises reference_work's code on first use
        reference_seconds()
    rounds = []
    for r in range(SETUP_REPEATS):
        before = [reference_seconds() for _ in range(REF_AROUND_SETUP)]
        start = tracing.clock()
        pool = setup(workload, seed)
        took = tracing.clock() - start
        after = [reference_seconds() for _ in range(REF_AROUND_SETUP)]
        rounds.append(took * REFERENCE_S / statistics.median(before + after))
        if r == 0:
            import_s = IMPORT_S * REFERENCE_S / statistics.median(before)
    return pool, import_s + statistics.median(rounds)


def setup(workload: Workload, seed: int) -> list[gen.Instance]:
    pool = workload.make_pool(seed, workload.pool_size)
    smallest = sorted(pool, key=lambda inst: (len(inst.graph.level), len(inst.graph.edges)))
    for inst in smallest[:WARMUP_INSTANCES]:
        for mode in workload.modes:
            try:
                workload.call(inst, mode)
            except Exception:  # the measured calls report it
                pass
    return pool


def _commit() -> str:
    """HEAD of the checkout when it is a git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def tracing_overhead(workload: Workload, pool, tracer: tracing.Tracer, budget_s: float) -> float:
    """Traced over untraced time of the same calls, each run twice back to back.

    Running the two side by side keeps the machine's drift in speed out of
    the ratio; alternating which goes first cancels the second run's warm
    start.  Answers are checked in the measured pass, not here.
    """
    untraced = traced = 0.0
    start = time.perf_counter()
    order = (False, True)
    for inst in pool:
        for mode in workload.modes:
            if untraced and time.perf_counter() - start >= budget_s:
                return traced / untraced - 1
            order = order[::-1]
            for active in order:
                if active:
                    tracer.attach()
                t0 = tracing.clock()
                try:
                    workload.call(inst, mode)
                except Exception:  # reported by the measured pass
                    pass
                took = tracing.clock() - t0
                tracer.detach()
                if active:
                    traced += took
                else:
                    untraced += took
    return traced / untraced - 1


SELF_TIMED = (
    "pipeline.check", "crosscheck.instance", "pipeline.solve_reduced", "pipeline.to_xor_system",
    "xorsat.solve", "graphs.properize", "starform.build_star", "starform.build_plus",
    "constraints.references", "constraints.build", "constraints.evaluate",
    "drawing.make_context", "drawing.lift", "drawing.realize", "drawing.verify", "drawing.round_trip",
    "oracle.brute_level", "oracle.brute_radial",
)


def layer_metrics(tracer: tracing.Tracer, pass_counts: dict[str, int], traced: Phase, overhead: float) -> dict:
    spans = tracer.by_name()
    per_call = traced.scale() / traced.attempted  # seconds per call at the reference speed
    out: dict[str, tuple[float, str]] = {}
    for name in SELF_TIMED:
        out[f"{name}.self_s"] = (spans.get(name, (0, 0.0))[1] * per_call, "s")
    for name in ("xorsat.solve", "constraints.build"):
        out[f"{name}.calls"] = (pass_counts.get(f"{name}.calls", 0), "count")
    out["oracle.calls"] = (pass_counts.get("oracle.brute_level.calls", 0)
                           + pass_counts.get("oracle.brute_radial.calls", 0), "count")
    for name in ("xorsat.vars", "xorsat.rows", "xorsat.rank", "xorsat.unsat", "constraints.xors",
                 "starform.plus_vertices", "starform.sublevels", "drawing.witness_crossings",
                 "oracle.states_examined", "constraints.transitivity_discarded"):
        out[name] = (pass_counts.get(name, 0), "count")
    xors = pass_counts.get("constraints.xors", 0)
    discarded = pass_counts.get("constraints.transitivity_discarded", 0)
    out["constraints.kept_ratio"] = (xors / (xors + discarded) if xors + discarded else 0.0, "ratio")
    out["trace.untraced_s"] = ((traced.cpu_seconds() - tracer.root_seconds()) * per_call, "s")
    out["trace.overhead_pct"] = (100 * overhead, "%")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in out.items()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]

    pool, setup_s = timed_setups(workload, args.seed)

    problems: list[str] = []
    verify = Verifier(workload, pool)
    meta = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": sys.version.split()[0], "nproc": len(os.sched_getaffinity(0)), "commit": _commit(),
        "instances": len(pool), "calls_per_pass": len(pool) * len(workload.modes),
    }
    if not args.trace:
        phase = measure(workload, pool, verify, args.seconds, problems)
        lat = call_latencies(phase)
        p, tail_s, beyond = tail(lat)
        meta.update(passes=phase.full_passes, samples=phase.attempted, tail_percentile=p,
                    tail_calls_beyond=beyond, reference_ms=1000 * statistics.median(phase.refs),
                    cpu_inst_per_s=phase.attempted / phase.cpu_seconds())
        metrics = {
            "inst_per_s": {"value": len(lat) / sum(lat), "unit": "1/s"},
            "latency_p50_ms": {"value": 1000 * statistics.median(lat), "unit": "ms"},
            "latency_tail_ms": {"value": 1000 * tail_s, "unit": "ms"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
        }
    else:
        tracer = tracing.install()
        passes: list[dict[str, int]] = []

        def snapshot() -> None:
            counts = dict(tracer.counts)
            counts.update((f"{name}.calls", c) for name, (c, _) in tracer.by_name().items())
            passes.append(counts)

        overhead = tracing_overhead(workload, pool, tracer, args.seconds / 4)
        tracer.reset()
        traced = measure(workload, pool, verify, args.seconds * 3 / 4, problems, tracer, snapshot)
        per_pass = [{k: v - before.get(k, 0) for k, v in after.items()}
                    for before, after in zip([{}] + passes, passes)]
        if any(counts != per_pass[0] for counts in per_pass[1:]):
            problems.append("layer counts differ between identical passes")
        metrics = layer_metrics(tracer, per_pass[0], traced, overhead)
        meta.update(passes=traced.full_passes, samples=traced.attempted, missing_hooks=tracer.missing,
                    spans=[{"name": n, "parent": p, "calls": c, "self_s": s}
                           for (n, p), (c, _, s) in sorted(tracer.spans.items(), key=str)])
        phase = traced
    meta["problems"] = problems[:10]
    for problem in problems[:10]:
        print(f"bench: {problem}", file=sys.stderr)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": not problems, "attempted": phase.attempted, "failed": phase.failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
