"""Span tracing of the library's layers, installed from outside the library.

`pipeline`, `crosscheck`, `drawing` and `starform` import the functions of
other layers by name, so a layer is traced by replacing the name in every
module that looks it up, not only where it is defined.  Each wrapper records
a span: its name, the name of the span open when it started (its parent),
its duration, and its self time (duration minus the time of its child
spans).  Spans are aggregated per (name, parent) in memory.  Counters record
the sizes of the work at the same boundaries.

A hooked name that no longer exists is reported as missing, not raised, so
the benchmark keeps running after a refactor moves or deletes it.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import process_time

# Spans and the benchmark's call latencies use the same clock: CPU seconds of
# the process.  The library is single-threaded computation without I/O, so on
# an idle machine this is its wall time; on a shared host it leaves out the
# time the host gives the CPU to someone else.
clock = process_time


class Tracer:
    """Wrappers for the hooked names; they replace the originals only while attached."""

    def __init__(self) -> None:
        self.missing: list[str] = []
        self.spans: dict[tuple[str, str | None], list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span name, time covered by children]
        self._hooks: list[tuple[object, str, object, object]] = []  # module, name, original, wrapper

    def hook(self, module_name: str, attr: str, span: str | None, on_result=None) -> None:
        """Wrap planarity_ht.<module_name>.<attr>; the wrapper is in place while attached.

        span None records counts but no span; on_result(counts, args, result)
        adds the call's sizes to the counters.
        """
        try:
            module = importlib.import_module(f"planarity_ht.{module_name}")
        except ImportError:
            module = None
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span is None:
                result = fn(*args, **kwargs)
            else:
                frame = [span, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    took = clock() - start
                    stack.pop()
                    parent = stack[-1] if stack else None
                    if parent is not None:
                        parent[1] += took
                    rec = spans[(span, parent[0] if parent else None)]
                    rec[0] += 1
                    rec[1] += took
                    rec[2] += took - frame[1]
            if on_result is not None:
                on_result(self.counts, args, result)
            return result

        self._hooks.append((module, attr, fn, wrapper))

    def attach(self) -> None:
        for module, attr, _, wrapper in self._hooks:
            setattr(module, attr, wrapper)

    def detach(self) -> None:
        for module, attr, fn, _ in self._hooks:
            setattr(module, attr, fn)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()

    def by_name(self) -> dict[str, tuple[int, float]]:
        """Calls and self seconds of each span name, over all parents."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for (name, _), (calls, _, self_s) in self.spans.items():
            out[name][0] += calls
            out[name][1] += self_s
        return {name: tuple(rec) for name, rec in out.items()}

    def root_seconds(self) -> float:
        """Summed duration of the spans opened with no span around them."""
        return sum(total for (_, parent), (_, total, _) in self.spans.items() if parent is None)


def _count_solve(counts, args, result) -> None:
    system = args[0]
    counts["xorsat.vars"] += system.n
    counts["xorsat.rows"] += len(system.rows)
    free = getattr(result, "free_vars", None)  # only a satisfiable result has free variables
    if free is None:
        counts["xorsat.unsat"] += 1
    else:
        counts["xorsat.rank"] += system.n - len(free)


def _count_system(counts, args, system) -> None:
    counts["constraints.xors"] += len(system.xors)


def _count_discarded(counts, args, system) -> None:
    counts["constraints.transitivity_discarded"] += len(system.transitivity)


def _count_plus(counts, args, pg) -> None:
    counts["starform.plus_vertices"] += len(pg.graph.level)
    counts["starform.sublevels"] += pg.graph.k


def _count_report(counts, args, report) -> None:
    counts["drawing.witness_crossings"] += report.total()


def _count_oracle(counts, args, result) -> None:
    counts["oracle.states_examined"] += result.states_examined


# (span name, counter, [(module, attribute), ...]): every module that looks the layer's function up
HOOKS = [
    ("pipeline.check", None, [("pipeline", "check_level"), ("pipeline", "check_radial")]),
    ("crosscheck.instance", None, [("crosscheck", "crosscheck_instance")]),
    ("pipeline.solve_reduced", None, [("pipeline", "solve_reduced"), ("crosscheck", "solve_reduced")]),
    ("pipeline.to_xor_system", None, [("pipeline", "to_xor_system")]),
    ("xorsat.solve", _count_solve, [("xorsat", "solve")]),
    ("graphs.properize", None, [("pipeline", "properize"), ("crosscheck", "properize"), ("starform", "properize")]),
    ("starform.build_star", None, [("drawing", "build_star_level"), ("drawing", "build_star_radial")]),
    ("starform.build_plus", _count_plus, [("drawing", "build_plus")]),
    ("constraints.references", None, [("pipeline", "choose_reference_sets"),
                                      ("crosscheck", "reference_set_variants")]),
    ("constraints.build", _count_system, [
        ("pipeline", "build_level_reduced"), ("pipeline", "build_radial_reduced"),
        ("crosscheck", "build_level_reduced"), ("crosscheck", "build_radial_reduced"),
        ("drawing", "build_level_reduced"), ("drawing", "build_radial_reduced"),
    ]),
    # the reduced builders build the full system and drop its transitivity clauses
    (None, _count_discarded, [("constraints", "build_level_full"), ("constraints", "build_radial_full")]),
    ("constraints.evaluate", None, [("drawing", "evaluate")]),
    ("drawing.make_context", None, [
        ("pipeline", "make_level_context"), ("pipeline", "make_radial_context"),
        ("crosscheck", "make_level_context"), ("crosscheck", "make_radial_context"),
    ]),
    ("drawing.lift", None, [
        ("pipeline", "lift_assignment_level"), ("pipeline", "lift_assignment_radial"),
        ("crosscheck", "lift_assignment_level"), ("crosscheck", "lift_assignment_radial"),
    ]),
    ("drawing.realize", None, [
        ("pipeline", "drawing_from_assignment_level"), ("pipeline", "drawing_from_assignment_radial"),
        ("crosscheck", "drawing_from_assignment_level"), ("crosscheck", "drawing_from_assignment_radial"),
    ]),
    ("drawing.verify", _count_report, [
        ("pipeline", "star_report_level"), ("pipeline", "star_report_radial"),
        ("crosscheck", "star_report_level"), ("crosscheck", "star_report_radial"),
    ]),
    ("drawing.round_trip", None, [
        ("crosscheck", "assignment_from_drawing_level"), ("crosscheck", "assignment_from_drawing_radial"),
    ]),
    ("oracle.brute_level", _count_oracle, [("crosscheck", "brute_level")]),
    ("oracle.brute_radial", _count_oracle, [("crosscheck", "brute_radial")]),
]


def install() -> Tracer:
    """A tracer for every layer boundary, detached: it records nothing until attached."""
    tracer = Tracer()
    for span, counter, sites in HOOKS:
        for module, attr in sites:
            tracer.hook(module, attr, span, counter)
    return tracer
