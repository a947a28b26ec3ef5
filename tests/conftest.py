from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from planarity_ht.graphs import LevelGraph


@pytest.fixture
def bench_gen(monkeypatch):
    """bench/gen.py, the benchmark's planted instance families."""
    spec = importlib.util.spec_from_file_location("bench_gen", Path(__file__).parent.parent / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_gen", gen)  # its dataclasses look their module up
    spec.loader.exec_module(gen)
    return gen


@pytest.fixture
def k22() -> LevelGraph:
    """Complete bipartite 2+2 on two levels: the canonical level-nonplanar instance."""
    return LevelGraph(
        2,
        {"a1": 1, "b1": 1, "a2": 2, "b2": 2},
        (("a1", "a2"), ("a1", "b2"), ("b1", "a2"), ("b1", "b2")),
    )


@pytest.fixture
def path3() -> LevelGraph:
    return LevelGraph(3, {"p1": 1, "p2": 2, "p3": 3}, (("p1", "p2"), ("p2", "p3")))


def make_path(k: int) -> LevelGraph:
    names = [f"p{i}" for i in range(1, k + 1)]
    return LevelGraph(k, {v: i + 1 for i, v in enumerate(names)}, tuple(zip(names, names[1:])))
