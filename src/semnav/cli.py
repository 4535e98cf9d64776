"""Command-line surface: gen, build, index, plan, bench, render, validate.

Exit codes: 0 success; 1 planning failure (no-route / discovery-failed);
2 invalid input; 3 internal inconsistency.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from importlib import resources
from pathlib import Path

from . import discovery, mapio, metric, planner, segmentation
from .errors import (
    ConfigError,
    GenerationError,
    GridBoundsError,
    MapConsistencyError,
    MapFormatError,
    SemnavError,
    ValidationError,
)
from .graph import GoalQuery
from .metric import MetricPoint

EXIT_OK = 0
EXIT_PLAN_FAILURE = 1
EXIT_INVALID_INPUT = 2
EXIT_INCONSISTENT = 3

_INVALID_INPUT_ERRORS = (
    ConfigError,
    ValidationError,
    MapFormatError,
    GridBoundsError,
    GenerationError,
)


def _default_rules_path() -> Path:
    return Path(str(resources.files("semnav").joinpath("data/default_rules.txt")))


def _default_table_path() -> Path:
    return Path(str(resources.files("semnav").joinpath("data/default_cooccurrence.txt")))


def _parse_start(text: str) -> str | MetricPoint:
    if "," in text:
        try:
            x, y = text.split(",")
            return MetricPoint(float(x), float(y))
        except ValueError as exc:
            raise ValidationError(f"bad start {text!r}: expected 'x,y' or a node id") from exc
    return text


def _make_oracle(args):
    if args.oracle == "none":
        return None
    if args.oracle == "http":
        return discovery.HttpOracle(url=args.oracle_url)
    table_path = args.table or _default_table_path()
    return discovery.MockOracle(discovery.load_cooccurrence_table(table_path))


def _plan(m, args) -> tuple[planner.PlanOutcome, int]:
    """Plan args.start -> args.goal; a failure is reported and mapped to its exit code."""
    request = planner.PlanRequest(
        start=_parse_start(args.start),
        goal=GoalQuery(args.goal),
        allow_inscribed=args.allow_inscribed,
        refine_metric=args.refine,
    )
    outcome = planner.plan(m, request, _make_oracle(args))
    if outcome.ok:
        return outcome, EXIT_OK
    detail = f": {outcome.detail}" if outcome.detail else ""
    print(f"planning failed: {outcome.failure_reason}{detail}", file=sys.stderr)
    if outcome.failure_reason in (planner.FAIL_INVALID_START, planner.FAIL_INVALID_GOAL):
        return outcome, EXIT_INVALID_INPUT
    if outcome.failure_reason == planner.FAIL_NO_METRIC_ROUTE:
        return outcome, EXIT_INCONSISTENT
    return outcome, EXIT_PLAN_FAILURE


def _add_oracle_flags(p: argparse.ArgumentParser):
    p.add_argument("--oracle", choices=("mock", "http", "none"), default="mock")
    p.add_argument("--table", help="co-occurrence table file for the mock oracle")
    p.add_argument("--oracle-url", help="HTTP oracle endpoint (or INTELLIMOVE_ORACLE_URL)")


def cmd_gen(args) -> int:
    from . import envgen

    spec = envgen.load_env_spec(args.spec) if args.spec else envgen.EnvSpec()
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    grid, gt, graph = envgen.generate(spec)
    m = mapio.assemble_map(grid, gt.raster, graph, gt.label_to_room, name=args.name)
    out = Path(args.out)
    mapio.save_map(planner.index_legs(m), out)

    pixels = metric.costs_to_pixels(grid.cells)
    metric.write_pgm(out / "occupancy.pgm", pixels)
    (out / "occupancy.meta").write_text(
        f"resolution: {grid.resolution!r}\n"
        f"origin_x: {grid.origin_x!r}\n"
        f"origin_y: {grid.origin_y!r}\n"
        f"free_thresh: {metric.DEFAULT_FREE_THRESH}\n"
        f"lethal_thresh: {metric.DEFAULT_LETHAL_THRESH}\n",
        encoding="utf-8",
    )
    objects_doc = [
        {"id": o.id, "class": o.class_label, "position": [o.position.x, o.position.y]}
        for o in gt.objects
    ]
    (out / "objects.json").write_text(json.dumps(objects_doc, indent=2), encoding="utf-8")
    gt_doc = {
        "rooms": [
            {
                "id": r.id,
                "category": r.category,
                "label": r.label,
                "rect_cells": [r.col0, r.row0, r.width, r.height],
            }
            for r in gt.rooms
        ],
        "doors": [
            {
                "rooms": [d.room_a, d.room_b],
                "rect_cells": [d.col0, d.row0, d.width, d.height],
            }
            for d in gt.doors
        ],
        "wall_cells": gt.wall_cells,
    }
    (out / "groundtruth.json").write_text(json.dumps(gt_doc, indent=2), encoding="utf-8")
    print(f"generated {len(gt.rooms)} rooms, {len(gt.objects)} objects -> {out}")
    return EXIT_OK


def cmd_build(args) -> int:
    from . import builder

    grid = metric.load_costmap(args.costmap, args.meta)
    objects = builder.load_objects(args.objects) if args.objects else []
    rules = segmentation.parse_rules(args.rules or _default_rules_path())
    min_cells = None
    if args.min_room_area is not None:
        min_cells = segmentation.default_min_room_cells(grid.resolution, args.min_room_area)
    m = builder.build_semantic_map(
        grid,
        objects,
        rules,
        door_width_max=args.door_width_max,
        min_room_cells=min_cells,
        name=args.name,
    )
    mapio.save_map(m, args.out)
    print(
        f"built map with {len(m.graph.rooms)} rooms, {len(m.graph.objects)} objects, "
        f"{len(m.graph.room_edges)} edges -> {args.out}"
    )
    return EXIT_OK


def cmd_index(args) -> int:
    m = planner.index_legs(mapio.load_map(args.map, legs=False))  # any legs.bin is replaced
    mapio.write_legs(args.map, m.legs)
    print(f"indexed {len(m.legs.keys)} legs, {len(m.legs.moves)} moves -> {args.map}")
    return EXIT_OK


def cmd_plan(args) -> int:
    if args.waypoints_out and not args.refine:
        raise ValidationError("plan: --waypoints-out needs --refine")
    outcome, code = _plan(mapio.load_map(args.map), args)
    if code:
        return code
    path = outcome.result
    print(f"mode: {path.mode}")
    print("path: " + " -> ".join(path.nodes))
    print(f"cost: {path.graph_cost:.6f}")
    print(f"wall_time_ms: {outcome.wall_time:.3f}")
    if path.waypoints and args.waypoints_out:
        doc = [[p.x, p.y] for p in path.waypoints]
        Path(args.waypoints_out).write_text(json.dumps(doc), encoding="utf-8")
        print(f"waypoints: {len(path.waypoints)} -> {args.waypoints_out}")
    return EXIT_OK


def cmd_bench(args) -> int:
    from . import bench

    m = mapio.load_map(args.map)
    report = bench.run_bench(
        m,
        trials=args.trials,
        mode=args.mode,
        seed=args.seed,
        oracle=_make_oracle(args),
    )
    print(report.table())
    print(report.to_json())
    if args.out:
        Path(args.out).write_text(report.to_json(), encoding="utf-8")
    return EXIT_OK


def cmd_render(args) -> int:
    if (args.start is None) != (args.goal is None):
        raise ValidationError("render: --start and --goal go together")
    if args.refine and args.start is None:
        raise ValidationError("render: --refine needs --start and --goal")
    m = mapio.load_map(args.map)
    path = None
    if args.start is not None:
        outcome, code = _plan(m, args)
        if code:
            return code
        path = outcome.result
    svg = mapio.render_svg(m, path, scale=args.scale)
    Path(args.out).write_text(svg, encoding="utf-8")
    print(f"rendered -> {args.out}")
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        violations = mapio.leg_violations(mapio.load_map(args.map))
        if violations:
            raise MapConsistencyError("stored legs fail their check", violations)
    except MapConsistencyError as exc:
        for v in exc.violations:
            print(str(v))
        print(f"{len(exc.violations)} violation(s)", file=sys.stderr)
        return EXIT_INCONSISTENT
    print("ok")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semnav",
        description="Semantic topometric maps and room-graph planning.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic environment map directory")
    p.add_argument("--spec", help="environment spec file (key: value lines)")
    p.add_argument("--seed", type=int, help="override the spec seed")
    p.add_argument("--name", default="generated")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("build", help="build a semantic map from a costmap and object poses")
    p.add_argument("--costmap", required=True, help="occupancy PGM (P5)")
    p.add_argument("--meta", required=True, help="costmap metadata file")
    p.add_argument("--objects", help="objects JSON file")
    p.add_argument("--rules", help="category rules file (default: bundled rules)")
    p.add_argument("--door-width-max", type=float, default=segmentation.DEFAULT_DOOR_WIDTH_MAX)
    p.add_argument("--min-room-area", type=float, help="minimum room area in m^2")
    p.add_argument("--name", default="map")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("index", help="add the leg table (legs.bin) to a saved map")
    p.add_argument("--map", required=True)
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("plan", help="plan a path on a saved map")
    p.add_argument("--map", required=True)
    p.add_argument("--start", required=True, help="room/object id or 'x,y' world point")
    p.add_argument("--goal", required=True)
    p.add_argument("--allow-inscribed", action="store_true")
    p.add_argument("--refine", action="store_true", help="compute metric waypoints")
    p.add_argument("--waypoints-out", help="write refined waypoints JSON here")
    _add_oracle_flags(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("bench", help="run sampled planning trials and report stats")
    p.add_argument("--map", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--mode", default="targeted")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="also write the JSON report here")
    _add_oracle_flags(p)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("render", help="render a map (optionally with a path) to SVG")
    p.add_argument("--map", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--scale", type=float, default=20.0, help="pixels per meter")
    p.add_argument("--start")
    p.add_argument("--goal")
    p.add_argument("--allow-inscribed", action="store_true")
    p.add_argument("--refine", action="store_true")
    _add_oracle_flags(p)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("validate", help="check a saved map's invariants")
    p.add_argument("--map", required=True)
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MapConsistencyError as exc:
        print(f"inconsistent map: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except _INVALID_INPUT_ERRORS as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT
    except SemnavError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except OSError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID_INPUT


if __name__ == "__main__":
    sys.exit(main())
