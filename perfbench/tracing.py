"""Span tracer for the traced run.

The tracer wraps, from outside the package, the module attributes that
semnav's callers resolve at call time (`semnav.planner.dijkstra`,
`semnav.mapio.read_pgm`, ...), so the program itself carries no tracing
code. Each wrapped call records a span: name, start, end, parent span and
the op it ran in. Hot, tiny calls (graph neighbour lookups) record a count
only, which keeps the overhead of the traced run bounded.

A wrap target that no longer exists (a later change removed or renamed it)
is reported as missing; the traced run carries on without it.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

SPAN = "span"
COUNT = "count"

# (metric name, module, attribute path, kind). Several call sites may feed
# one metric name, e.g. the grid search is reached from the planner and
# from segmentation through their own module globals.
TARGETS = (
    ("planner.plan", "semnav.planner", "plan", SPAN),
    ("planner.dijkstra", "semnav.planner", "dijkstra", SPAN),
    ("planner.refine_to_metric", "semnav.planner", "refine_to_metric", SPAN),
    ("discovery.goal_llm_response", "semnav.planner", "goal_llm_response", SPAN),
    ("metric.grid_shortest_path", "semnav.planner", "grid_shortest_path", SPAN),
    ("metric.grid_shortest_path", "semnav.segmentation", "grid_shortest_path", SPAN),
    ("metric.load_costmap", "semnav.metric", "load_costmap", SPAN),
    ("graph.find_goal_state", "semnav.graph", "SemanticGraph.find_goal_state", SPAN),
    ("graph.neighbors", "semnav.graph", "SemanticGraph.neighbors", COUNT),
    ("builder.build_semantic_map", "semnav.builder", "build_semantic_map", SPAN),
    ("builder.load_objects", "semnav.builder", "load_objects", SPAN),
    ("segmentation.segment_rooms", "semnav.builder", "segment_rooms", SPAN),
    ("segmentation.extract_adjacency", "semnav.builder", "extract_adjacency", SPAN),
    ("segmentation.region_centroid_cell", "semnav.builder", "region_centroid_cell", SPAN),
    ("segmentation.region_centroid_cell", "semnav.segmentation", "region_centroid_cell", SPAN),
    ("segmentation.categorize_room", "semnav.builder", "categorize_room", SPAN),
    ("mapio.load_map", "semnav.mapio", "load_map", SPAN),
    ("mapio.save_map", "semnav.mapio", "save_map", SPAN),
    ("mapio.render_svg", "semnav.mapio", "render_svg", SPAN),
    ("mapio.validate_semantic_map", "semnav.mapio", "validate_semantic_map", SPAN),
    ("mapio.graph_from_json", "semnav.mapio", "graph_from_json", SPAN),
    ("mapio.read_pgm", "semnav.mapio", "read_pgm", SPAN),
    ("mapio.read_pgm", "semnav.metric", "read_pgm", SPAN),
    ("mapio.write_pgm", "semnav.mapio", "write_pgm", SPAN),
)

# Calls whose return value the analysis needs (to tell a useful search
# from a wasted one); every other result is dropped at once.
KEEP_RESULT = frozenset({"planner.dijkstra"})


class Tracer:
    """In-memory spans and counts; install() wraps, uninstall() restores."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[list] = []  # [name, start, end, parent, op, result]
        self.counts: dict[tuple[str, int], int] = defaultdict(int)  # (name, op) -> calls
        self.missing: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> "Tracer":
        for name, module_name, path, kind in self.targets:
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module_name}.{path}")
                continue
            wrap = self._span_wrapper if kind == SPAN else self._count_wrapper
            setattr(owner, attr, wrap(name, original))
            self._restore.append((owner, attr, original))
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keep = name in KEEP_RESULT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if keep:
                record[5] = result
            return result

        return traced

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name, self.op] += 1
            return fn(*args, **kwargs)

        return counted


SPAN_NAMES = tuple(dict.fromkeys(name for name, _m, _p, kind in TARGETS if kind == SPAN))

# Per-layer metrics and their units. Values are means per measured op,
# except the mapio I/O figures, which are means per call: on plan-warm and
# plan-graph the map is loaded once, in set-up, so a per-op figure would
# hide it.
PER_LAYER = {
    "metric.grid_shortest_path.calls": "count",
    "metric.grid_shortest_path.ms": "ms",
    "metric.grid_shortest_path.ms_per_call": "ms",
    "planner.refine_to_metric.self_ms": "ms",
    "planner.dijkstra.calls_per_plan": "count",
    "planner.dijkstra.calls_per_candidate": "ratio",
    "planner.dijkstra.ms": "ms",
    "planner.dijkstra.useful_ratio": "ratio",
    "graph.neighbors.calls_per_plan": "count",
    "graph.find_goal_state.ms": "ms",
    "planner.plan.self_ms": "ms",
    "discovery.goal_llm_response.ms": "ms",
    "segmentation.segment_rooms.ms": "ms",
    "segmentation.extract_adjacency.self_ms": "ms",
    "segmentation.region_centroid_cell.calls": "count",
    "segmentation.region_centroid_cell.ms": "ms",
    "segmentation.categorize_room.ms": "ms",
    "builder.build_semantic_map.self_ms": "ms",
    "mapio.load_map.self_ms": "ms",
    "mapio.read_pgm.ms": "ms",
    "mapio.graph_from_json.ms": "ms",
    "mapio.validate_semantic_map.ms": "ms",
    "mapio.save_map.self_ms": "ms",
    "mapio.write_pgm.ms": "ms",
    "mapio.bytes_written": "bytes",
    "mapio.render_svg.ms": "ms",
    "mapio.svg_bytes": "bytes",
    "planner.plan.targeted_p50_ms": "ms",
    "planner.plan.multi_target_p50_ms": "ms",
    "planner.plan.discovery_p50_ms": "ms",
    "planner.plan.goal_reach_rate": "ratio",
    "trace.overhead_ratio": "ratio",
    "trace.missing_targets": "count",
    **{f"{name}.self_share": "ratio" for name in SPAN_NAMES},
}

PER_CALL = ("mapio.",)


class Totals:
    """calls, wall seconds and self seconds per span name."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.wall: dict[str, float] = defaultdict(float)
        self.self: dict[str, float] = defaultdict(float)


def totals(tracer: Tracer) -> tuple[Totals, Totals]:
    """(inside measured ops, over every traced call including set-up)."""
    child = [0.0] * len(tracer.spans)
    for name, start, end, parent, _op, _r in tracer.spans:
        if parent >= 0:
            child[parent] += end - start
    in_ops, every = Totals(), Totals()
    for i, (name, start, end, _parent, op, _r) in enumerate(tracer.spans):
        for scope in (every, in_ops) if op >= 0 else (every,):
            scope.calls[name] += 1
            scope.wall[name] += end - start
            scope.self[name] += end - start - child[i]
    for (name, op), n in tracer.counts.items():
        for scope in (every, in_ops) if op >= 0 else (every,):
            scope.calls[name] += n
    return in_ops, every


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, traced_ops, untraced_ops, say) -> dict:
    """PER_LAYER values from the traced pass, except the planner's per-mode
    latencies, which the caller adds from the untraced ops.

    traced_ops and untraced_ops are lists of run.Op; each Op's info is the
    check's OpInfo, or None for a failed op.
    """
    in_ops, every = totals(tracer)
    n_ops = max(1, len(traced_ops))
    wall = sum(o.latency for o in traced_ops)
    plans = in_ops.calls["planner.plan"]
    out: dict[str, float] = {}

    def mean_ms(name, kind="wall"):
        """Per measured op, or per call for the PER_CALL layers."""
        source = every if name.startswith(PER_CALL) else in_ops
        table = source.self if kind == "self" else source.wall
        divisor = source.calls[name] if name.startswith(PER_CALL) else n_ops
        return _ratio(table[name] * 1000.0, divisor)

    grid = "metric.grid_shortest_path"
    out[f"{grid}.calls"] = in_ops.calls[grid] / n_ops
    out[f"{grid}.ms"] = mean_ms(grid)
    out[f"{grid}.ms_per_call"] = _ratio(in_ops.wall[grid] * 1000.0, in_ops.calls[grid])
    out["planner.refine_to_metric.self_ms"] = mean_ms("planner.refine_to_metric", "self")

    useful = searched = 0
    for name, _s, _e, _parent, op, result in tracer.spans:
        if name != "planner.dijkstra" or op < 0 or traced_ops[op].info is None:
            continue
        info = traced_ops[op].info
        if result is not None and (tuple(result.nodes), result.graph_cost) == info.route:
            useful += 1
        if info.mode == "multi-target":
            searched += 1
    candidates = sum(o.info.candidates for o in traced_ops if o.info is not None)
    out["planner.dijkstra.calls_per_plan"] = _ratio(in_ops.calls["planner.dijkstra"], plans)
    out["planner.dijkstra.calls_per_candidate"] = _ratio(searched, candidates)
    out["planner.dijkstra.ms"] = mean_ms("planner.dijkstra")
    out["planner.dijkstra.useful_ratio"] = _ratio(useful, in_ops.calls["planner.dijkstra"])
    out["graph.neighbors.calls_per_plan"] = _ratio(in_ops.calls["graph.neighbors"], plans)
    out["graph.find_goal_state.ms"] = mean_ms("graph.find_goal_state")
    out["planner.plan.self_ms"] = mean_ms("planner.plan", "self")
    out["discovery.goal_llm_response.ms"] = mean_ms("discovery.goal_llm_response")

    out["segmentation.segment_rooms.ms"] = mean_ms("segmentation.segment_rooms")
    out["segmentation.extract_adjacency.self_ms"] = mean_ms(
        "segmentation.extract_adjacency", "self"
    )
    out["segmentation.region_centroid_cell.calls"] = (
        in_ops.calls["segmentation.region_centroid_cell"] / n_ops
    )
    out["segmentation.region_centroid_cell.ms"] = mean_ms("segmentation.region_centroid_cell")
    out["segmentation.categorize_room.ms"] = mean_ms("segmentation.categorize_room")
    out["builder.build_semantic_map.self_ms"] = mean_ms("builder.build_semantic_map", "self")

    out["mapio.load_map.self_ms"] = mean_ms("mapio.load_map", "self")
    out["mapio.read_pgm.ms"] = mean_ms("mapio.read_pgm")
    out["mapio.graph_from_json.ms"] = mean_ms("mapio.graph_from_json")
    out["mapio.validate_semantic_map.ms"] = mean_ms("mapio.validate_semantic_map")
    out["mapio.save_map.self_ms"] = mean_ms("mapio.save_map", "self")
    out["mapio.write_pgm.ms"] = mean_ms("mapio.write_pgm")
    written = [o.info.bytes_written for o in traced_ops if o.info and o.info.bytes_written]
    out["mapio.bytes_written"] = _ratio(sum(written), len(written))
    out["mapio.render_svg.ms"] = mean_ms("mapio.render_svg")
    svgs = [o.info.svg_bytes for o in traced_ops if o.info and o.info.svg_bytes]
    out["mapio.svg_bytes"] = _ratio(sum(svgs), len(svgs))

    # The untraced ops cover whole passes over the same deck the traced
    # pass served, so their throughputs compare like with like; both are
    # scaled to the reference speed, as the phases run at different times.
    untraced_rate = _ratio(len(untraced_ops), sum(o.scaled for o in untraced_ops))
    traced_rate = _ratio(len(traced_ops), sum(o.scaled for o in traced_ops))
    out["trace.overhead_ratio"] = _ratio(untraced_rate, traced_rate)
    out["trace.missing_targets"] = len(tracer.missing)
    for name in SPAN_NAMES:
        out[f"{name}.self_share"] = _ratio(in_ops.self[name], wall)

    say(f"traced {len(traced_ops)} ops, {len(tracer.spans)} spans, {plans} plans")
    for target in tracer.missing:
        say(f"missing wrap target: {target}")
    say("self-time share of op wall time (traced pass):")
    for name in sorted(SPAN_NAMES, key=lambda n: -in_ops.self[n]):
        if in_ops.calls[name]:
            share = _ratio(in_ops.self[name], wall)
            say(f"  {name:<36} {share:7.2%}  {in_ops.calls[name]:>8} calls")
    return out
