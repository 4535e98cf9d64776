"""Output checks, run outside the timed span of every op.

Each check raises CheckFailed with a reason. They use only the public map
objects and this directory's own code (a scipy room-distance table, a
reconstruction rule written here), so a defect in a semnav search cannot
hide by being repeated in its own check.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

REL_TOL = 1e-9
IOU_MIN = 0.8
MAP_FILES = ("costmap.pgm", "costmap.meta", "rooms.pgm", "graph.json", "meta.json")
SVG_NS = "{http://www.w3.org/2000/svg}"


class CheckFailed(Exception):
    pass


def _require(ok: bool, reason: str) -> None:
    if not ok:
        raise CheckFailed(reason)


class RoomDistances:
    """All-pairs room-graph distances, computed with scipy, not semnav."""

    def __init__(self, graph):
        self.index = {rid: i for i, rid in enumerate(sorted(graph.rooms))}
        n = len(self.index)
        rows, cols, weights = [], [], []
        for e in graph.room_edges:
            a, b = self.index[e.room_a], self.index[e.room_b]
            rows += [a, b]
            cols += [b, a]
            weights += [e.weight, e.weight]
        matrix = csr_matrix((weights, (rows, cols)), shape=(n, n))
        self.table = csgraph_dijkstra(matrix, directed=True)

    def cost(self, a: str, b: str) -> float:
        return float(self.table[self.index[a], self.index[b]])


def room_of(graph, node: str) -> str:
    return graph.objects[node].room_id if node in graph.objects else node


def check_room_route(graph, path, start_room: str, goal_nodes, distances=None) -> None:
    """Edges exist, weights sum to graph_cost, route ends in the goal set.

    With a distance table, the route cost must also equal the cheapest
    distance from the start room to any goal room (multi-target minimality).
    """
    nodes = tuple(path.nodes)
    rooms = [n for n in nodes if n in graph.rooms]
    _require(len(rooms) > 0 and tuple(rooms) == nodes[: len(rooms)], f"route {nodes} malformed")
    _require(len(nodes) - len(rooms) <= 1, f"route {nodes} has more than one object leaf")
    if len(nodes) > len(rooms):
        leaf = nodes[-1]
        _require(
            leaf in graph.objects and graph.objects[leaf].room_id == rooms[-1],
            f"leaf {leaf!r} is not an object of final room {rooms[-1]!r}",
        )
    _require(rooms[0] == start_room, f"route starts at {rooms[0]!r}, not {start_room!r}")
    total = 0.0
    for a, b in zip(rooms, rooms[1:]):
        edge = graph.get_edge(a, b)
        _require(edge is not None, f"rooms {a!r} and {b!r} share no edge")
        total += edge.weight
    _require(
        math.isclose(total, path.graph_cost, rel_tol=REL_TOL),
        f"edge weights sum to {total!r}, graph_cost is {path.graph_cost!r}",
    )
    _require(nodes[-1] in goal_nodes, f"route ends at {nodes[-1]!r}, outside the goal set")
    if distances is not None:
        best = min(distances.cost(start_room, room_of(graph, g)) for g in goal_nodes)
        _require(
            math.isclose(best, path.graph_cost, rel_tol=REL_TOL),
            f"route cost {path.graph_cost!r} exceeds the cheapest goal at {best!r}",
        )


def cell_of(costmap, point) -> tuple[int, int]:
    """(col, row) of the cell holding a world point."""
    return (
        math.floor((point[0] - costmap.origin_x) / costmap.resolution),
        math.floor((point[1] - costmap.origin_y) / costmap.resolution),
    )


def check_waypoints(costmap, waypoints, start_cell, goal_cell) -> None:
    """8-neighbour steps over traversable cells, from start cell to goal cell."""
    _require(bool(waypoints), "no waypoints")
    xy = np.asarray(waypoints, dtype=float)
    cols = np.floor((xy[:, 0] - costmap.origin_x) / costmap.resolution).astype(np.int64)
    rows = np.floor((xy[:, 1] - costmap.origin_y) / costmap.resolution).astype(np.int64)
    _require((int(cols[0]), int(rows[0])) == tuple(start_cell), "waypoints miss the start cell")
    _require((int(cols[-1]), int(rows[-1])) == tuple(goal_cell), "waypoints miss the goal cell")
    inside = (cols >= 0) & (cols < costmap.width) & (rows >= 0) & (rows < costmap.height)
    _require(bool(inside.all()), "waypoint outside the grid")
    _require(bool((costmap.cells[rows, cols] < 253).all()), "waypoint on an untraversable cell")
    step = np.maximum(np.abs(np.diff(cols)), np.abs(np.diff(rows)))
    _require(bool((step == 1).all()), "successive waypoints are not 8-neighbours")


def check_reconstruction(truth, built) -> None:
    """Criterion 8: room count, IoU >= 0.8, categories and adjacency match."""
    graph = built.graph
    _require(
        len(graph.rooms) == len(truth.rooms),
        f"room count {len(graph.rooms)} != {len(truth.rooms)}",
    )
    gt_labels = truth.raster.labels.astype(np.int64).ravel()
    bt_labels = built.raster.labels.astype(np.int64).ravel()
    n_bt = int(bt_labels.max()) + 1
    joint = np.bincount(gt_labels * n_bt + bt_labels, minlength=(int(gt_labels.max()) + 1) * n_bt)
    joint = joint.reshape(-1, n_bt)
    gt_sizes, bt_sizes = joint.sum(axis=1), joint.sum(axis=0)
    mapping = {}
    for room in truth.rooms:
        overlap = joint[room.label].copy()
        overlap[0] = 0
        best = int(np.argmax(overlap))
        _require(overlap[best] > 0 and best in built.room_labels, f"{room.id} unmatched")
        union = gt_sizes[room.label] + bt_sizes[best] - overlap[best]
        iou = overlap[best] / union
        _require(iou >= IOU_MIN, f"{room.id} IoU {iou:.3f} < {IOU_MIN}")
        mapping[room.id] = built.room_labels[best]
    _require(len(set(mapping.values())) == len(mapping), "two rooms mapped to one segment")
    for room in truth.rooms:
        category = graph.rooms[mapping[room.id]].category
        _require(category == room.category, f"{room.id} category {category} != {room.category}")
    want = {frozenset((mapping[d.room_a], mapping[d.room_b])) for d in truth.doors}
    have = {frozenset((e.room_a, e.room_b)) for e in graph.room_edges}
    _require(want == have, f"adjacency differs on {sorted(map(sorted, want ^ have))}")


def check_map_dir(path) -> int:
    """Every map file was written; returns the bytes on disk."""
    root = Path(path)
    missing = [name for name in MAP_FILES if not (root / name).is_file()]
    _require(not missing, f"map directory lacks {missing}")
    return sum((root / name).stat().st_size for name in MAP_FILES)


def check_svg(svg: str, n_points: int) -> None:
    """The SVG parses and carries the route polyline with every point."""
    try:
        doc = ET.fromstring(svg)
    except ET.ParseError as exc:
        raise CheckFailed(f"SVG does not parse: {exc}") from exc
    routes = [g for g in doc.iter(f"{SVG_NS}g") if g.get("class") == "route"]
    _require(len(routes) == 1, f"SVG has {len(routes)} route groups")
    line = routes[0].find(f"{SVG_NS}polyline")
    _require(line is not None, "route group has no polyline")
    points = line.get("points", "").split()
    _require(len(points) == n_points, f"polyline has {len(points)} points, route {n_points}")
