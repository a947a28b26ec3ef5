"""Byte-for-byte CLI output, pinned by digest.

Every command a user can run on a graph -- `check` (plain, --json, --full,
--witness), `emit-constraints` for G, G --full and G+, `oracle`, `render` of
the check witness -- runs in-process through `cli.main` on a fixed set of
graphs, in both modes, plus one `crosscheck` over the whole graph directory.
Each graph/mode digest covers every command's exit code, stdout, stderr and
the bytes of each file it wrote; `tests/data/cli_golden.json` holds the
digests.

A change that alters output on purpose regenerates the file with

    PYTHONPATH=src python -m tests.test_cli_golden

and says so in its change notes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from itertools import islice
from pathlib import Path

from planarity_ht.cli import main
from planarity_ht.corpus import exhaustive_proper_graphs, random_proper_graph
from planarity_ht.graphs import LevelGraph
from planarity_ht.iofmt import graph_to_json

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"
MODES = ("level", "radial")


def _bipartite(n: int) -> LevelGraph:
    top, bottom = [f"a{j}" for j in range(n)], [f"b{j}" for j in range(n)]
    return LevelGraph(2, {**{v: 1 for v in top}, **{v: 2 for v in bottom}},
                      tuple((u, v) for u in top for v in bottom))


def golden_graphs() -> dict[str, LevelGraph]:
    """The graphs whose output is pinned, by file stem."""
    graphs = {
        "k22": _bipartite(2),
        "k33": _bipartite(3),
        "cycle6": LevelGraph(2, {"a1": 1, "a2": 1, "a3": 1, "b1": 2, "b2": 2, "b3": 2},
                             (("a1", "b1"), ("a1", "b2"), ("a2", "b2"), ("a2", "b3"), ("a3", "b1"), ("a3", "b3"))),
        "long": LevelGraph(4, {"p": 1, "q": 1, "r": 2, "s": 3, "t": 4, "u": 4},
                           (("p", "s"), ("p", "t"), ("q", "r"), ("q", "u"), ("r", "t"), ("s", "u"))),
        "gap": LevelGraph(4, {"a": 1, "b": 1, "c": 3, "d": 4},
                          (("a", "c"), ("b", "d"), ("c", "d"))),
        "ids": LevelGraph(3, {"u->v": 1, "w~top": 1, "x~bot": 2, "y->z~": 2, "q": 3},
                          (("u->v", "x~bot"), ("u->v", "y->z~"), ("w~top", "x~bot"), ("x~bot", "q"), ("y->z~", "q"))),
        # more level drawings than the oracle budget of 200000: the oracle exits 3
        "wide": LevelGraph(2, {**{f"a{j}": 1 for j in range(6)}, **{f"b{j}": 2 for j in range(6)}},
                           tuple((f"a{j}", f"b{j + d}") for j in range(6) for d in (0, 1) if j + d < 6)),
    }
    rng = random.Random(20181018)
    graphs.update((f"random{n:02d}", random_proper_graph(rng, 4, 4)) for n in range(30))
    graphs.update((f"corpus{n:04d}", g) for n, g in islice(enumerate(exhaustive_proper_graphs(3, 3)), 0, None, 50))
    return graphs


def _run(digest, argv: list[str], writes: tuple[str, ...] = ()) -> None:
    """Run one command and fold its argv, exit code, output and the files named
    in writes (removed beforehand, so a file it did not write reads as None)
    into digest."""
    for name in writes:
        with contextlib.suppress(FileNotFoundError):
            os.remove(name)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    record = [argv, code, out.getvalue(), err.getvalue()]
    record += [Path(name).read_text(encoding="utf-8") if os.path.exists(name) else None for name in writes]
    digest.update(json.dumps(record).encode())


def _graph_mode(stem: str, mode: str) -> str:
    digest = hashlib.sha256()
    g = f"{stem}.json"
    _run(digest, ["check", mode, g])
    _run(digest, ["--json", "check", mode, g])
    _run(digest, ["--json", "check", mode, g, "--full"])
    witness, svg = f"{stem}.{mode}.witness.json", f"{stem}.{mode}.svg"
    _run(digest, ["--json", "check", mode, g, "--witness", witness], (witness,))
    if os.path.exists(witness):
        _run(digest, ["render", witness, g, "--out", svg], (svg,))
        os.remove(witness)
        os.remove(svg)
    for flags in ([], ["--full"], ["--stage", "Gplus"]):
        _run(digest, ["emit-constraints", mode, g, *flags])
    _run(digest, ["--json", "oracle", mode, g, "--budget", "200000"])
    return digest.hexdigest()


def compute_digests(workdir: Path) -> dict[str, str]:
    """Every graph/mode digest plus the crosscheck's, run from workdir with relative names."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        graphs = golden_graphs()
        os.mkdir("graphs")
        for stem, g in graphs.items():
            Path("graphs", f"{stem}.json").write_text(json.dumps(graph_to_json(g)), encoding="utf-8")
        os.chdir("graphs")
        digests = {f"{stem}/{mode}": _graph_mode(stem, mode) for stem in graphs for mode in MODES}
        crosscheck = hashlib.sha256()
        _run(crosscheck, ["--json", "crosscheck", "."])
        digests["crosscheck"] = crosscheck.hexdigest()
        return digests
    finally:
        os.chdir(cwd)


def test_cli_output_matches_the_golden_digests(tmp_path):
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = compute_digests(tmp_path)
    differ = sorted(key for key in want.keys() | got.keys() if want.get(key) != got.get(key))
    assert not differ, f"CLI output changed for {len(differ)} graph/mode keys: {', '.join(differ)}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = compute_digests(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
