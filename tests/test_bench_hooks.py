"""The benchmark's tracer wraps library functions by name; a renamed or
deleted name silently drops out of its per-layer figures.  This guard keeps
the set of names it cannot find to the ones retired on purpose."""

from __future__ import annotations

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_bench_tracer_finds_every_hooked_name():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.install()  # detached: no library function is replaced
    # build_plus subdivides the star form itself, so starform looks no
    # properize up; pipeline and crosscheck take their level systems from the
    # stage contexts, whose builds go through drawing's hooked builders;
    # crosscheck verifies a witness by converting it back, so it runs no star
    # report
    assert tracer.missing == ["starform.properize",
                              "pipeline.build_level_reduced", "pipeline.build_radial_reduced",
                              "crosscheck.build_level_reduced", "crosscheck.star_report_level",
                              "crosscheck.star_report_radial"]
