"""Command line interface.

Exit codes: 0 planar (or success); 1 non-planar, or a crosscheck mismatch,
a failed lift check or round trip included; 2 usage/validation error, a
graph file with no level included; 3 oracle budget exceeded.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import random
import sys

from . import corpus, iofmt, pipeline, render
from .crosscheck import run_crosscheck
from .drawing import LevelDrawing, RadialDrawing, check_drawing_covers
from .graphs import InvalidGraphError, LevelGraph, require_valid
from .oracle import BUDGET_ENV_VAR, DEFAULT_BUDGET, BudgetExceededError, brute_level, brute_radial

EXIT_PLANAR = 0
EXIT_NONPLANAR = 1
EXIT_ERROR = 2
EXIT_BUDGET = 3


def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _load_valid_graph(path: str) -> LevelGraph:
    g = iofmt.load_graph(path)
    require_valid(g)
    if g.k < 1:  # valid as a pipeline stage, not as an input
        raise InvalidGraphError([f"level count must be positive, got {g.k}"])
    return g


def cmd_check(args) -> int:
    g = _load_valid_graph(args.file)
    check = pipeline.check_level if args.mode == "level" else pipeline.check_radial
    result = check(g, witness=args.witness is not None)
    payload = {
        "command": "check",
        "mode": args.mode,
        "planar": result.planar,
        "variables": result.variables,
        "equations": result.equations,
        "system": "full" if args.full else "reduced",
    }
    if args.full:
        # the full system's rows are the reduced ones; only its clauses are extra
        payload["transitivity_clauses"] = result.transitivity_clauses
    verdict = "planar" if result.planar else "not planar"
    text = f"{args.mode}: {verdict} ({result.variables} variables, {result.equations} equations)"
    if result.witness is not None:
        out = args.witness
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(iofmt.drawing_to_json(result.witness), fh, indent=2, sort_keys=True)
            fh.write("\n")
        payload["witness"] = out
        payload["witness_crossings"] = result.witness_crossings
        text += f"; witness drawing written to {out}"
    _emit(args, payload, text)
    return EXIT_PLANAR if result.planar else EXIT_NONPLANAR


def cmd_emit_constraints(args) -> int:
    g = _load_valid_graph(args.file)
    system = pipeline.system_for_stage(g, args.mode, args.stage, full=args.full)
    sys.stdout.write(iofmt.dump_system(system))
    return EXIT_PLANAR


def cmd_oracle(args) -> int:
    g = _load_valid_graph(args.file)
    ctx = pipeline.stage_context(g, args.mode)
    result = (brute_level(ctx.base, args.budget) if args.mode == "level"
              else brute_radial(ctx.base, ctx.refs, args.budget))
    payload = {
        "command": "oracle",
        "mode": args.mode,
        "planar": result.planar,
        "states_examined": result.states_examined,
    }
    if result.witness is not None:
        payload["witness"] = iofmt.drawing_to_json(result.witness)
    verdict = "planar" if result.planar else "not planar"
    _emit(args, payload, f"{args.mode} oracle: {verdict} after {result.states_examined} states")
    return EXIT_PLANAR if result.planar else EXIT_NONPLANAR


def _candidate_targets(g: LevelGraph, d: LevelDrawing | RadialDrawing):
    """Find which stage of the pipeline the drawing's vertex names belong to."""
    ctx = pipeline.stage_context(g, "level" if isinstance(d, LevelDrawing) else "radial")
    yield ctx.base, ctx.refs
    yield ctx.pg.graph, ctx.plus_refs


def cmd_render(args) -> int:
    g = _load_valid_graph(args.graph)
    d = iofmt.load_drawing(args.drawing)
    orders = d.orders if isinstance(d, LevelDrawing) else d.cyclic
    for target, refs in _candidate_targets(g, d):
        if len(orders) == target.k and not check_drawing_covers(orders, target):
            if isinstance(d, LevelDrawing):
                svg = render.render_level_svg(target, d)
            else:
                svg = render.render_radial_svg(target, d, refs)
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(svg)
            _emit(args, {"command": "render", "out": args.out,
                         "crossings": render.count_markers(svg)}, f"wrote {args.out}")
            return EXIT_PLANAR
    print("error: drawing does not cover the graph or any of its pipeline stages", file=sys.stderr)
    return EXIT_ERROR


def cmd_crosscheck(args) -> int:
    # a corpus directory is loaded whole, so a malformed file is refused
    # before any instance runs; generated instances are drawn one at a time
    if args.corpus:
        paths = sorted(glob.glob(os.path.join(args.corpus, "*.json")))
        if not paths:
            print(f"error: no .json graph files in {args.corpus}", file=sys.stderr)
            return EXIT_ERROR
        instances = [_load_valid_graph(p) for p in paths]
    elif args.random is not None:
        rng = random.Random(args.seed)
        k, w = args.max_size
        instances = (corpus.random_proper_graph(rng, k, w) for _ in range(args.random))
    else:
        k, w = args.max_size
        instances = corpus.exhaustive_proper_graphs(k, w, cap=args.cap)
    summary = run_crosscheck(instances, budget=args.budget)
    payload = {
        "command": "crosscheck",
        "instances": summary.instances,
        "level_planar": summary.level_planar,
        "radial_planar": summary.radial_planar,
        "mismatches": summary.mismatches,
    }
    text = (
        f"crosschecked {summary.instances} instances: "
        f"{summary.level_planar} level planar, {summary.radial_planar} radial planar, "
        f"{len(summary.mismatches)} mismatches"
    )
    if summary.mismatches:
        text += "\n" + "\n".join(summary.mismatches)
    _emit(args, payload, text)
    return EXIT_PLANAR if summary.ok else EXIT_NONPLANAR


def _size_pair(raw: str) -> tuple[int, int]:
    try:
        k, w = raw.split(",")
        k, w = int(k), int(w)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected K,W (levels,width), got {raw!r}") from None
    if k < 1 or w < 1:
        raise argparse.ArgumentTypeError(f"K and W must be at least 1, got {raw!r}")
    return k, w


def _count(raw: str) -> int:
    try:
        n = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a count, got {raw!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"count must not be negative, got {raw!r}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planarity-ht",
        description="Level and radial level planarity testing via XOR constraint systems.",
    )
    parser.add_argument("--json", action="store_true", help="machine readable one-line summary on stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide planarity of a graph file")
    p.add_argument("mode", choices=["level", "radial"])
    p.add_argument("file")
    p.add_argument("--full", action="store_true",
                   help="report the full system's size; the decision still uses the reduced system, "
                        "whose satisfiability is equivalent")
    p.add_argument("--witness", metavar="PATH",
                   help="construct the even-crossings witness drawing and write it to PATH")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("emit-constraints", help="print a constraint system")
    p.add_argument("mode", choices=["level", "radial"])
    p.add_argument("file")
    p.add_argument("--full", action="store_true")
    p.add_argument("--stage", choices=["G", "Gplus"], default="G",
                   help="emit for the properized input or for its stretched subdivision")
    p.set_defaults(func=cmd_emit_constraints)

    p = sub.add_parser("oracle", help="decide planarity by exhaustive enumeration")
    p.add_argument("mode", choices=["level", "radial"])
    p.add_argument("file")
    p.add_argument("--budget", type=_count, default=None,
                   help=f"max states to enumerate (default {DEFAULT_BUDGET}, "
                        f"override with {BUDGET_ENV_VAR})")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("render", help="render a drawing file to SVG")
    p.add_argument("drawing")
    p.add_argument("graph")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("crosscheck", help="compare solver and oracle over an instance corpus")
    p.add_argument("corpus", nargs="?", help="directory of graph .json files")
    p.add_argument("--random", type=_count, metavar="N", help="generate N random instances")
    p.add_argument("--max-size", type=_size_pair, default=(3, 3), metavar="K,W")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--cap", type=_count, default=20_000)
    p.add_argument("--budget", type=_count, default=None)
    p.set_defaults(func=cmd_crosscheck)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (InvalidGraphError, iofmt.FormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
