"""Self-test: a tiny smoke run of every workload, traced and untraced, and
each output check rejecting a deliberately corrupted result.

Run as `python3 perfbench/run.py --self-test`; exits 1 on any failure.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import tracing
import workloads
from checks import CheckFailed, check_reconstruction, check_svg
from semnav import mapio, planner
from semnav.segmentation import RoomLabelRaster

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


class SelfTest:
    def __init__(self):
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
        if not ok:
            self.failures.append(what)

    def rejects(self, what: str, check, *args) -> None:
        try:
            check(*args)
        except CheckFailed as exc:
            self.expect(True, f"{what} is rejected ({exc})")
        else:
            self.expect(False, f"{what} is rejected")


def smoke(t: SelfTest) -> None:
    """Each workload on tiny maps through the command line, both trace modes."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for w in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"], "--tiny",
                   "--seed", "3", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=170)
            what = f"smoke {w['name']} --trace {trace}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                t.expect(False, f"{what}: last line is a JSON result (exit {proc.returncode})")
                sys.stderr.write(proc.stderr)
                continue
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            t.expect(
                proc.returncode == 0
                and set(result) == RESULT_KEYS
                and result["correct"] is True
                and result["failed"] == 0
                and result["attempted"] >= 1
                and units == wanted[trace],
                f"{what}: exit 0, correct, every listed metric with its unit",
            )


def plan_outputs(name: str, work: Path):
    """A tiny plan workload, its state, and outputs for 60 queries."""
    wl = workloads.make(name, tiny=True)
    wl.prepare(work, 7, 1)
    m, oracle = state = wl.setup()
    queries = workloads.sample_queries(m.graph, 60, random.Random(5), oracle)
    return wl, state, [(q, wl.run_op(state, q)) for q in queries]


def corrupt_plans(t: SelfTest, work: Path) -> None:
    wl, state, outputs = plan_outputs("plan-warm", work / "warm")
    m = state[0]
    for q, outcome in outputs:
        wl.check(state, q, outcome)  # every unmodified output passes
    t.expect(True, f"{len(outputs)} unmodified refined plans pass their checks")

    def with_path(outcome, **changes):
        return dataclasses.replace(outcome, result=dataclasses.replace(outcome.result, **changes))

    q, long = next(
        (q, o) for q, o in outputs if sum(n in m.graph.rooms for n in o.result.nodes) >= 3
    )
    nodes = long.result.nodes
    t.rejects("a route with a dropped edge", wl.check, state, q,
              with_path(long, nodes=nodes[:1] + nodes[2:]))
    t.rejects("a route whose cost is off by 1e-6", wl.check, state, q,
              with_path(long, graph_cost=long.result.graph_cost + 1e-6))
    points = long.result.waypoints
    middle = len(points) // 2
    t.rejects("waypoints with a jump", wl.check, state, q,
              with_path(long, waypoints=points[:middle] + points[middle + 1 :]))
    t.rejects("waypoints ending short of the goal", wl.check, state, q,
              with_path(long, waypoints=points[:-1]))

    svg = mapio.render_svg(m, long.result)
    check_svg(svg, len(points))
    t.rejects("an SVG without the route", check_svg, mapio.render_svg(m, None), len(points))
    t.rejects("an SVG cut short", check_svg, svg[: len(svg) // 2], len(points))

    # On the chain map, candidates of one class sit in rooms at different depths.
    wl, state, outputs = plan_outputs("plan-graph", work / "graph")
    m = state[0]
    for q, outcome in outputs:
        wl.check(state, q, outcome)
    t.expect(True, f"{len(outputs)} unmodified room-level plans pass their checks")
    for q, outcome in outputs:
        if q.mode != "multi-target":
            continue
        costlier = [
            path
            for node in q.goal_nodes
            if (path := planner.dijkstra(m.graph, q.start, node)) is not None
            and path.graph_cost > outcome.result.graph_cost
        ]
        if costlier:
            t.rejects("a multi-target plan that picked a costlier candidate", wl.check, state, q,
                      with_path(outcome, nodes=costlier[0].nodes,
                                graph_cost=costlier[0].graph_cost))
            break
    else:
        t.expect(False, "a multi-target query with a costlier candidate exists")


def corrupt_build(t: SelfTest, work: Path) -> None:
    wl = workloads.make("build", tiny=True)
    wl.prepare(work / "build", 7, 1)
    item = wl.deck[0]
    built = wl.run_op(None, item)
    wl.check(None, item, built)
    t.expect(True, "an unmodified build passes its check")
    edge = built.graph.room_edges[0]
    ids = {rid: label for label, rid in built.room_labels.items()}
    labels = built.raster.labels.copy()
    labels[labels == ids[edge.room_b]] = ids[edge.room_a]
    merged = dataclasses.replace(
        built, raster=RoomLabelRaster(width=built.raster.width, height=built.raster.height,
                                      labels=labels)
    )
    t.rejects("a built map with two rooms merged", check_reconstruction, wl.truth[item[0]], merged)


def missing_target(t: SelfTest) -> None:
    """A wrap target that a later change renamed is reported, not fatal."""
    gone = ("planner.gone", "semnav.planner", "no_such_function", tracing.SPAN)
    tracer = tracing.Tracer(tracing.TARGETS + (gone,)).install()
    tracer.uninstall()
    t.expect(tracer.missing == ["semnav.planner.no_such_function"],
             "a missing wrap target is reported and the rest are wrapped")


def main() -> int:
    t = SelfTest()
    missing_target(t)
    work = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    try:
        work.mkdir(parents=True)
        corrupt_plans(t, work)
        corrupt_build(t, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()
    smoke(t)
    print(f"self-test: {len(t.failures)} failure(s)")
    return 1 if t.failures else 0
