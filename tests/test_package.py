"""The package stands alone: it runs with nothing but its own source on the
path, and no module of it imports a name it does not use."""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

from planarity_ht.graphs import LevelGraph
from planarity_ht.iofmt import graph_to_json, load_drawing

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "planarity_ht"

# imports every module of the package, then checks a graph with a witness
# through the command line entry point; -I keeps the caller's path and
# environment out, so the package's source is the only project code reachable
STANDALONE = """
import importlib, pkgutil, sys
sys.path.insert(0, {src!r})
import planarity_ht
for module in pkgutil.iter_modules(planarity_ht.__path__):
    importlib.import_module("planarity_ht." + module.name)
print(planarity_ht.__file__, file=sys.stderr)
from planarity_ht import cli
sys.exit(cli.main(["--json", "check", "radial", "g.json", "--witness", "w.json"]))
"""


def test_the_package_runs_with_only_its_source_on_the_path(tmp_path):
    g = LevelGraph(3, {"a": 1, "b": 1, "c": 2, "d": 3}, (("a", "c"), ("b", "d"), ("c", "d")))
    (tmp_path / "g.json").write_text(json.dumps(graph_to_json(g)))
    run = subprocess.run([sys.executable, "-I", "-c", STANDALONE.format(src=str(SRC))], cwd=tmp_path,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert Path(run.stderr.strip()).resolve() == PACKAGE / "__init__.py"
    assert json.loads(run.stdout)["planar"] is True
    assert load_drawing(str(tmp_path / "w.json")).cyclic


def _unused_imports(path: Path) -> list[str]:
    """The names a module imports and never reads; `__future__` imports are exempt."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in read]


def test_no_module_imports_a_name_it_does_not_use():
    # __init__ imports names to export them
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 10
    assert [unused for path in modules for unused in _unused_imports(path)] == []
