"""Semantic planner: mode dispatch, room-graph Dijkstra, metric refinement.

Planning dispatches on how many graph nodes match the goal:

    none      Discovery Mode — ask the oracle which room most likely holds
              the goal, then route to that room (one attempt, no recursion);
    exactly 1 Targeted Navigation Mode — route to that node;
    several   Multi-target Exploration Mode — route to the cheapest
              candidate, silently skipping unreachable candidates.

Each plan runs one room-graph search, whatever the mode. Path length means
accumulated edge weight. Planning reads the map's layers and writes only
its leg memo, whose every entry is the same whichever plan stores it, so
any number of concurrent plans may share one SemanticMap.

A refined plan turns the room route into cells leg by leg. On a map with a
leg table (index_legs, saved as legs.bin) every leg from a room or object
start is read from the table, as each runs between two anchors of one room,
and realized as waypoints once per loaded map; only the legs it lacks are
searched, in one metric.grid_shortest_paths call.
"""

from __future__ import annotations

import heapq
import numbers
import time
from dataclasses import dataclass, replace
from itertools import chain, islice, repeat

import numpy as np

from .discovery import RoomContext, goal_llm_response
from .errors import (
    GridBoundsError,
    MapConsistencyError,
    SemnavError,
    UnreachableError,
    UnrealizableRouteError,
    ValidationError,
)
from .graph import GoalQuery, SemanticGraph, normalize_label
from .mapio import LEGS_FILE, SemanticMap
from .metric import GridIndex, MetricPoint, grid_shortest_paths, leg_table

MODE_DISCOVERY = "discovery"
MODE_TARGETED = "targeted"
MODE_MULTI_TARGET = "multi-target"

FAIL_NO_ROUTE = "no-route"
FAIL_DISCOVERY = "discovery-failed"
FAIL_INVALID_START = "invalid-start"
FAIL_INVALID_GOAL = "invalid-goal"
# the room route has no cell-level realization on the costmap: the map's
# layers disagree, though each one loaded cleanly
FAIL_NO_METRIC_ROUTE = "no-metric-route"


@dataclass(frozen=True)
class PlanRequest:
    start: str | MetricPoint
    goal: GoalQuery
    allow_inscribed: bool = False
    refine_metric: bool = False


@dataclass(frozen=True)
class SemanticPath:
    """Room-node route, ending at an object node for object goals."""

    nodes: tuple[str, ...]
    graph_cost: float
    mode: str = MODE_TARGETED
    waypoints: tuple[MetricPoint, ...] | None = None


@dataclass(frozen=True)
class PlanOutcome:
    result: SemanticPath | None
    failure_reason: str | None = None
    wall_time: float = 0.0  # milliseconds
    detail: str | None = None  # what the failure reason alone does not say

    @property
    def ok(self) -> bool:
        return self.result is not None


def dijkstra(graph: SemanticGraph, start_room: str, *goal_nodes: str) -> SemanticPath | None:
    """Room path to the nearest goal; None when no goal is reachable.

    One heap search from start_room. It stops once a popped entry costs more
    than the first goal room to settle, or once every goal's room is settled.
    An object goal resolves to its containing room and the object id is
    appended as the terminal node (objects are leaves with no edges).
    Equal-cost paths tie-break to the lexicographically smallest node-id
    sequence, as heap entries carry the path tuple; so no goal's path depends
    on the other goals. The goal with the cheapest path wins, ties going to
    the earliest in goal_nodes. Entries pop in (cost, path) order, so every
    goal room tied with the first settles before the stop, and a search that
    ran on would return the same path.
    """
    if start_room not in graph.rooms:
        raise ValidationError(f"start {start_room!r} is not a room node")
    targets: list[tuple[str, tuple[str, ...]]] = []  # (goal room, tail)
    for node in goal_nodes:
        if node in graph.objects:
            targets.append((graph.objects[node].room_id, (node,)))
        elif node in graph.rooms:
            targets.append((node, ()))
        else:
            raise ValidationError(f"goal {node!r} is not a node in the graph")

    pending = {room for room, _ in targets}
    bound = float("inf")  # the first settled goal room's cost; later goals settle at it
    settled: dict[str, tuple[float, tuple[str, ...]]] = {}
    heap: list[tuple[float, tuple[str, ...]]] = [(0.0, (start_room,))]
    while heap and pending:
        cost, path = heapq.heappop(heap)
        if cost > bound:
            break
        node = path[-1]
        if node in settled:
            continue
        settled[node] = (cost, path)
        if node in pending:
            pending.remove(node)
            bound = cost
        for neighbor, weight in graph.neighbors(node):
            if neighbor not in settled:
                heapq.heappush(heap, (cost + weight, path + (neighbor,)))

    reached = [
        SemanticPath(nodes=settled[room][1] + tail, graph_cost=settled[room][0])
        for room, tail in targets
        if room in settled
    ]
    return min(reached, key=lambda p: p.graph_cost, default=None)


def resolve_start(m: SemanticMap, start: str | MetricPoint) -> tuple[str, MetricPoint] | None:
    """Start room id plus the metric point refinement should begin from.

    Accepts a room id, an object id (its containing room), or a world point
    (a tuple or list of two real numbers) resolved through the room raster.
    None means the start is invalid, as for a start whose room is not a room
    node; a point in an unlabeled cell is not snapped.
    """
    if isinstance(start, str):
        label = normalize_label(start)
        if label in m.graph.rooms:
            return label, m.graph.rooms[label].centroid
        obj = m.graph.objects.get(label)
        if obj is None or obj.room_id not in m.graph.rooms:
            return None
        return obj.room_id, obj.position
    pair = isinstance(start, (tuple, list)) and len(start) == 2
    if not (pair and all(isinstance(v, numbers.Real) for v in start)):
        return None
    point = MetricPoint(*start)
    try:
        cell = m.costmap.world_to_grid(point)
    except GridBoundsError:
        return None
    room_id = m.room_id_at(cell)
    if room_id not in m.graph.rooms:  # an unlabeled cell, or a label naming no room node
        return None
    return room_id, point


def plan(m: SemanticMap, request: PlanRequest, oracle=None) -> PlanOutcome:
    """Run the full mode-dispatch plan over a semantic map, which it only reads.

    An oracle that fails, returns a malformed payload or breaks the
    DiscoveryResponse contract gives a "discovery-failed" PlanOutcome, like
    any other planning failure, rather than an exception; so does a refined
    route that refine_to_metric cannot realize on the costmap
    ("no-metric-route", with the room and the cause as detail).
    """
    t0 = time.perf_counter()

    def done(result=None, failure=None, detail=None):
        wall = (time.perf_counter() - t0) * 1000.0
        return PlanOutcome(result=result, failure_reason=failure, wall_time=wall, detail=detail)

    resolved = resolve_start(m, request.start)
    if resolved is None:
        return done(failure=FAIL_INVALID_START)
    start_room, start_point = resolved

    goal = request.goal
    if isinstance(goal, str):
        goal = GoalQuery(text=goal)
    text = goal.text if isinstance(goal, GoalQuery) else None
    if not (isinstance(text, str) and normalize_label(text)):
        # a blank or non-text goal names nothing, so discovery would only guess a room
        return done(failure=FAIL_INVALID_GOAL)
    goal_nodes = m.graph.find_goal_state(goal)

    if not goal_nodes:
        mode = MODE_DISCOVERY
        if oracle is None:
            return done(failure=FAIL_DISCOVERY)
        contexts = [
            RoomContext(room_id=r.id, category=r.category, attributes=tuple(r.attributes))
            for r in sorted(m.graph.rooms.values(), key=lambda r: r.id)
        ]
        try:
            response = goal_llm_response(contexts, goal, oracle)
        except SemnavError:
            return done(failure=FAIL_DISCOVERY)
        candidates = (response.top_room,)
    else:
        mode = MODE_TARGETED if len(goal_nodes) == 1 else MODE_MULTI_TARGET
        candidates = goal_nodes

    best = dijkstra(m.graph, start_room, *candidates)
    if best is None:
        return done(failure=FAIL_NO_ROUTE)
    best = replace(best, mode=mode)
    if request.refine_metric:
        try:
            waypoints = refine_to_metric(
                m, best, start_point, allow_inscribed=request.allow_inscribed
            )
        except UnrealizableRouteError as exc:
            return done(failure=FAIL_NO_METRIC_ROUTE, detail=str(exc))
        best = replace(best, waypoints=waypoints)
    return done(result=best)


def refine_to_metric(
    m: SemanticMap,
    path: SemanticPath,
    start_point: MetricPoint,
    *,
    allow_inscribed: bool = False,
) -> tuple[MetricPoint, ...]:
    """Realize a graph path as a cell-level waypoint polyline.

    Concatenates grid shortest-path segments start -> portal -> ... -> goal;
    adjacent segments share their joint cell, and every waypoint is the
    center of a traversable cell. Leg i runs through rooms[i], between two
    of its anchors (leg_anchors) unless the start is a world point. A leg the
    map's leg table holds is served from it (LegTable.walk checks the path:
    it ends at its goal and stays on traversable cells of the grid); the
    table is built with inscribed cells blocked, so it serves no
    allow_inscribed request, and a leg with an end off the grid has no key.
    Every other leg is searched, all in one grid_shortest_paths call, which
    returns what the table stores for the same leg, as the table was built
    by it. A leg with no path (an end off the grid or untraversable, no
    route inside the room, or a stored path that fails its check) means the
    map's layers disagree, reported as an UnrealizableRouteError naming the
    room of the first such leg. A path over rooms no edge joins is a
    MapConsistencyError.

    A served leg is walked, checked and converted once per map: its
    waypoints, or its fault, are memoised on m (SemanticMap._leg_memo) under
    its key, and later plans read them from there and join the tuples. Each
    cell's MetricPoint is shared by every memoised leg through it. This is
    sound because m's costmap and legs are fixed for the map's life; a map
    made from m by dataclasses.replace starts an empty memo. Searched legs
    are not memoised.
    """
    graph = m.graph
    rooms = [n for n in path.nodes if n in graph.rooms]
    if not rooms:
        raise ValidationError("path contains no room nodes")

    goal_node = path.nodes[-1]
    if goal_node in graph.objects:
        goal_point = graph.objects[goal_node].position
    else:
        goal_point = graph.rooms[goal_node].centroid

    portals: list[GridIndex] = []
    for a, b in zip(rooms, rooms[1:]):
        edge = graph.get_edge(a, b)
        if edge is None:
            raise MapConsistencyError(f"rooms {a!r} and {b!r} are not connected by an edge")
        portals.append(edge.portal)

    def unrealizable(leg: int, cause) -> UnrealizableRouteError:
        return UnrealizableRouteError(
            f"room {rooms[leg]!r}: cannot realize graph path on the costmap: {cause}"
        )

    g = m.costmap
    try:
        anchors = [g.world_to_grid(MetricPoint(*start_point)), *portals]
    except GridBoundsError as exc:
        raise unrealizable(0, exc) from exc
    failure = None  # (leg, cause) of the first leg known to fail
    try:
        anchors.append(g.world_to_grid(MetricPoint(*goal_point)))
    except GridBoundsError as exc:  # the goal's leg is the last
        failure = len(anchors) - 1, exc
    legs = list(zip(anchors, anchors[1:]))
    table = None if allow_inscribed else m.legs
    keys = [table.key(a, b) for a, b in legs] if table is not None else [None] * len(legs)
    memo = m._leg_memo
    found = list(map(memo.get, keys))  # no None key is stored
    missed = [i for i, k in enumerate(keys) if k is not None and found[i] is None]
    if missed:
        served = [
            (i, got) for i, got in zip(missed, table.walk(g, [legs[i] for i in missed]))
            if got is not None
        ]
        points = _shared_points(memo, g, [got for _, got in served if not isinstance(got, str)])
        for i, got in served:
            if not isinstance(got, str):
                got = tuple(islice(points, len(got[0])))
            found[i] = memo[keys[i]] = got
    for i, got in enumerate(found):
        if isinstance(got, str):
            a, b = legs[i]
            cause = f"{LEGS_FILE}: stored path {tuple(a)} -> {tuple(b)} {got}"
            failure = i, MapConsistencyError(cause)
            break
    last = len(legs) if failure is None else failure[0]  # legs after a failure are not needed
    searched = [i for i in range(last) if found[i] is None]
    if searched:
        done = 0
        try:
            for (cols, rows), _ in grid_shortest_paths(
                g, [legs[i] for i in searched], allow_inscribed=allow_inscribed
            ):
                found[searched[done]] = tuple(_cell_points(g, cols, rows))
                done += 1
        except (GridBoundsError, UnreachableError, ValidationError) as exc:
            failure = searched[done], exc  # before any failure found above
    if failure is not None:
        leg, cause = failure
        raise unrealizable(leg, cause) from cause
    return tuple(chain(found[0], *(points[1:] for points in found[1:])))  # each joint cell once


def _cell_points(g, cols: np.ndarray, rows: np.ndarray):
    """Each cell's center as CostmapGrid.grid_to_world computes it, in the same
    float operations over arrays, as MetricPoints; every cell is on the grid."""
    xs = (g.origin_x + (cols + 0.5) * g.resolution).tolist()
    ys = (g.origin_y + (rows + 0.5) * g.resolution).tolist()
    return map(tuple.__new__, repeat(MetricPoint), zip(xs, ys))


def _shared_points(memo: dict, g, paths: list):
    """The cells of paths ((cols, rows) each), back to back, as MetricPoints,
    each cell's one point in memo under the key ~flat cell index."""
    if not paths:
        return iter(())
    cols = np.concatenate([c for c, _ in paths])
    rows = np.concatenate([r for _, r in paths])
    flat = ~(rows * g.width + cols)
    return map(memo.setdefault, flat.tolist(), _cell_points(g, cols, rows))


def leg_anchors(m: SemanticMap) -> list[set[GridIndex]]:
    """Per room, the cells a refined leg from a room or object start can start
    or end at: the room's centroid cell, its objects' cells and its portals.
    Points off the grid are left out."""
    g = m.costmap
    anchors: dict[str, set[GridIndex]] = {}
    points = [(r.id, r.centroid) for r in m.graph.rooms.values()]
    points += [(o.room_id, o.position) for o in m.graph.objects.values()]
    for room, point in points:
        try:
            anchors.setdefault(room, set()).add(g.world_to_grid(MetricPoint(*point)))
        except GridBoundsError:
            pass
    for e in m.graph.room_edges:
        for room in (e.room_a, e.room_b):
            anchors.setdefault(room, set()).add(e.portal)
    return list(anchors.values())


def index_legs(m: SemanticMap) -> SemanticMap:
    """m with the leg table of its anchors (leg_anchors), built on its costmap."""
    return replace(m, legs=leg_table(m.costmap, leg_anchors(m)))
