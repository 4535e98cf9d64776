"""SemanticMap bundle: persistence and SVG rendering.

On disk a map is a directory:

    costmap.pgm    8-bit P5; pixel value == cell cost (lossless)
    costmap.meta   resolution / origin key: value lines
    rooms.pgm      16-bit P5 of room labels (0 = non-room)
    graph.json     rooms, objects, weighted edges (full float precision)
    meta.json      name, creation timestamp, format version, label -> room id

Each layer stays independently inspectable with stock tools; the JSON graph
diffs cleanly. load(save(m)) reproduces m exactly, including edge weights
and raster bytes.

A map is read one way for every command. A malformed file, or a room or
object id listed twice in graph.json, raises MapFormatError (CLI exit 2).
A well-formed map that breaks an invariant of validate_semantic_map raises
MapConsistencyError carrying every violation (CLI exit 3).

Reading, judging and rendering a map need numpy only: room boxes and room
component counts come from RoomLabelRaster's row runs, not scipy.ndimage.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .errors import (
    ConfigError,
    ConflictError,
    GridBoundsError,
    MapConsistencyError,
    MapFormatError,
    ValidationError,
)
from .graph import ObjectNode, RoomEdge, RoomNode, SemanticGraph, Violation
from .metric import (
    COST_INSCRIBED, CostmapGrid, GridIndex, MetricPoint, read_key_value_file, read_pgm, write_pgm
)
from .segmentation import RoomLabelRaster

FORMAT_VERSION = 1

_REQUIRED_FILES = ("costmap.pgm", "costmap.meta", "rooms.pgm", "graph.json", "meta.json")


@dataclass(frozen=True)
class MapMeta:
    name: str
    created: str
    version: int = FORMAT_VERSION


@dataclass(frozen=True)
class SemanticMap:
    """The full three-layer bundle: costmap + room raster + semantic graph.

    room_labels maps raster label ints to graph room ids; it is the glue the
    cross-layer invariants are checked through.
    """

    costmap: CostmapGrid
    raster: RoomLabelRaster
    graph: SemanticGraph
    room_labels: dict[int, str] = field(default_factory=dict)
    meta: MapMeta = field(default_factory=lambda: MapMeta("map", ""))

    def room_id_at(self, index: GridIndex) -> str | None:
        label = self.raster.label_at(index)
        return self.room_labels.get(label) if label else None


def assemble_map(
    costmap: CostmapGrid,
    raster: RoomLabelRaster,
    graph: SemanticGraph,
    room_labels: dict[int, str],
    name: str = "map",
) -> SemanticMap:
    """Bundle layers with a fresh creation timestamp."""
    created = datetime.now(timezone.utc).isoformat(timespec="seconds")
    return SemanticMap(
        costmap=costmap,
        raster=raster,
        graph=graph,
        room_labels=dict(room_labels),
        meta=MapMeta(name=name, created=created),
    )


def validate_semantic_map(m: SemanticMap) -> list[Violation]:
    """Graph invariants plus every cross-layer consistency rule."""
    out = list(m.graph.validate())

    if (m.raster.width, m.raster.height) != (m.costmap.width, m.costmap.height):
        out.append(
            Violation(
                "raster",
                "layer-dims",
                f"raster {m.raster.width}x{m.raster.height} != costmap "
                f"{m.costmap.width}x{m.costmap.height}",
            )
        )
        return out  # positional checks below assume matching dims

    labels = m.raster.labels
    present = set(m.raster.room_labels())
    mapped = set(m.room_labels)
    for label in sorted(present - mapped):
        out.append(Violation(f"label {label}", "label-map", "raster label has no room id"))
    for label in sorted(mapped - present):
        out.append(
            Violation(f"label {label}", "label-map", "mapped label missing from raster")
        )
    ids_mapped = sorted(m.room_labels.values())
    ids_graph = sorted(m.graph.rooms)
    if ids_mapped != ids_graph:
        out.append(
            Violation(
                "label-map",
                "label-map",
                f"mapped room ids {ids_mapped} != graph room ids {ids_graph}",
            )
        )

    n = np.count_nonzero(labels[m.costmap.cells >= COST_INSCRIBED])
    if n:
        out.append(Violation("raster", "labeled-free", f"{n} labeled cell(s) not free"))

    for label in sorted(present & mapped):
        n_comp = m.raster.components[label]
        if n_comp != 1:
            out.append(
                Violation(
                    f"label {label}",
                    "room-connected",
                    f"room region splits into {n_comp} 4-connected components",
                )
            )

    id_to_label = {rid: label for label, rid in m.room_labels.items()}
    rooms, objects = m.graph.rooms.values(), m.graph.objects.values()
    placed = [(r.id, "centroid", r.centroid, r.id, "centroid-in-room") for r in rooms]
    placed += [(o.id, "position", o.position, o.room_id, "object-in-room") for o in objects]
    for subject, what, point, room_id, rule in placed:
        label = id_to_label.get(room_id)
        if label is None:
            continue  # already reported via label-map
        try:
            cell = m.costmap.world_to_grid(MetricPoint(*point))
        except GridBoundsError:
            out.append(Violation(subject, rule, f"{what} outside grid"))
            continue
        found = int(labels[cell.row, cell.col])
        if found != label:
            out.append(Violation(subject, rule, f"{what} cell labeled {found}, expected {label}"))
    for e in m.graph.room_edges:
        col, row = e.portal
        if not (0 <= col < m.costmap.width and 0 <= row < m.costmap.height):
            out.append(Violation(f"edge {e.room_a}-{e.room_b}", "portal", "portal outside grid"))
        elif m.costmap.cells[row, col] >= COST_INSCRIBED:
            out.append(
                Violation(f"edge {e.room_a}-{e.room_b}", "portal", "portal cell untraversable")
            )
    return out


# ---------------------------------------------------------------------------
# Save / load


def _refuse_violations(m: SemanticMap, context: str) -> None:
    """MapConsistencyError carrying every violation, if the map has any."""
    violations = validate_semantic_map(m)
    if violations:
        shown = "; ".join(str(v) for v in violations[:5])
        raise MapConsistencyError(f"{context}: {shown}", violations)


def save_map(m: SemanticMap, path) -> None:
    """Write the map directory; refuses inconsistent maps."""
    _refuse_violations(m, "map failed validation")
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    write_pgm(root / "costmap.pgm", m.costmap.cells)
    (root / "costmap.meta").write_text(
        f"resolution: {m.costmap.resolution!r}\n"
        f"origin_x: {m.costmap.origin_x!r}\n"
        f"origin_y: {m.costmap.origin_y!r}\n",
        encoding="utf-8",
    )
    write_pgm(root / "rooms.pgm", m.raster.labels)
    (root / "graph.json").write_text(graph_to_json(m.graph), encoding="utf-8")
    meta = {
        "version": m.meta.version,
        "name": m.meta.name,
        "created": m.meta.created,
        "labels": {str(k): v for k, v in sorted(m.room_labels.items())},
    }
    (root / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True), encoding="utf-8")


def load_map(path) -> SemanticMap:
    """Read a map directory; rejects unknown versions and inconsistent layers.

    A malformed file raises MapFormatError. A well-formed map that breaks an
    invariant raises MapConsistencyError, whose violations list every
    finding of validate_semantic_map.
    """
    root = Path(path)
    for name in _REQUIRED_FILES:
        if not (root / name).exists():
            raise MapFormatError(f"{root}: missing {name}")
    try:
        meta_doc = json.loads((root / "meta.json").read_text(encoding="utf-8"))
    except (RecursionError, ValueError) as exc:  # deep nesting; bad JSON, UTF-8 or long int
        raise MapFormatError(f"{root}/meta.json: corrupt: {exc}") from exc
    if not isinstance(meta_doc, dict) or not isinstance(meta_doc.get("labels", {}), dict):
        raise MapFormatError(f"{root}/meta.json: expected an object with a \"labels\" object")
    version = meta_doc.get("version")
    if version != FORMAT_VERSION:
        raise MapFormatError(f"{root}: unsupported map version {version!r}")

    costs, maxval = read_pgm(root / "costmap.pgm")
    if maxval != 255:
        raise MapFormatError(f"{root}/costmap.pgm: expected 8-bit PGM, maxval {maxval}")
    try:
        geometry = read_key_value_file(
            root / "costmap.meta",
            required={"resolution", "origin_x", "origin_y"},
            allowed={"resolution", "origin_x", "origin_y"},
        )
        costmap = CostmapGrid(
            width=costs.shape[1],
            height=costs.shape[0],
            resolution=float(geometry["resolution"]),
            origin_x=float(geometry["origin_x"]),
            origin_y=float(geometry["origin_y"]),
            cells=costs,
        )
    except (ConfigError, ValueError, ValidationError) as exc:
        raise MapFormatError(f"{root}/costmap.meta: bad geometry: {exc}") from exc

    labels, _ = read_pgm(root / "rooms.pgm")
    raster = RoomLabelRaster(width=labels.shape[1], height=labels.shape[0], labels=labels)

    try:
        graph = graph_from_json((root / "graph.json").read_text(encoding="utf-8"))
    except (MapFormatError, UnicodeDecodeError) as exc:
        raise MapFormatError(f"{root}/graph.json: {exc}") from exc

    try:
        room_labels = {int(k): str(v) for k, v in meta_doc.get("labels", {}).items()}
        meta = MapMeta(
            name=str(meta_doc["name"]), created=str(meta_doc["created"]), version=version
        )
    except (KeyError, ValueError) as exc:
        raise MapFormatError(f"{root}/meta.json: corrupt: {exc}") from exc

    m = SemanticMap(
        costmap=costmap, raster=raster, graph=graph, room_labels=room_labels, meta=meta
    )
    _refuse_violations(m, f"{root}: inconsistent layers")
    return m


def graph_to_json(graph: SemanticGraph) -> str:
    doc = {
        "version": FORMAT_VERSION,
        "rooms": [
            {
                "id": r.id,
                "category": r.category,
                "centroid": [r.centroid[0], r.centroid[1]],
                "cell_count": r.cell_count,
                "attributes": list(r.attributes),
            }
            for r in sorted(graph.rooms.values(), key=lambda r: r.id)
        ],
        "objects": [
            {
                "id": o.id,
                "class": o.class_label,
                "position": [o.position[0], o.position[1]],
                "room": o.room_id,
            }
            for o in sorted(graph.objects.values(), key=lambda o: o.id)
        ],
        "edges": [
            {
                "a": e.room_a,
                "b": e.room_b,
                "weight": e.weight,
                "portal": [e.portal.col, e.portal.row],
            }
            for e in sorted(graph.room_edges, key=lambda e: (e.room_a, e.room_b))
        ],
    }
    return json.dumps(doc, indent=2)


def graph_from_json(text: str) -> SemanticGraph:
    """Rebuild a graph from its JSON form, taking every node and edge as stored.

    Malformed JSON, a missing, mistyped or too-short field, or a room or
    object id listed twice raises MapFormatError. Invariants are not judged
    here: SemanticGraph.validate() reports what is broken.
    """
    try:
        return _graph_from_doc(json.loads(text))
    except ConflictError as exc:
        raise MapFormatError(str(exc)) from exc
    except (
        AttributeError, IndexError, KeyError, OverflowError, RecursionError, TypeError, ValueError
    ) as exc:
        raise MapFormatError(f"corrupt: {exc!r}") from exc


def _graph_from_doc(doc: dict) -> SemanticGraph:
    if doc.get("version") != FORMAT_VERSION:
        raise MapFormatError(f"unsupported graph version {doc.get('version')!r}")
    return SemanticGraph(
        rooms=(
            RoomNode(
                id=str(r["id"]),
                category=str(r["category"]),
                centroid=MetricPoint(float(r["centroid"][0]), float(r["centroid"][1])),
                cell_count=int(r["cell_count"]),
                attributes=[str(a) for a in r["attributes"]],
            )
            for r in doc["rooms"]
        ),
        objects=(
            ObjectNode(
                id=str(o["id"]),
                class_label=str(o["class"]),
                position=MetricPoint(float(o["position"][0]), float(o["position"][1])),
                room_id=str(o["room"]),
            )
            for o in doc["objects"]
        ),
        edges=(
            RoomEdge(
                room_a=str(e["a"]),
                room_b=str(e["b"]),
                weight=float(e["weight"]),
                portal=GridIndex(int(e["portal"][0]), int(e["portal"][1])),
            )
            for e in doc["edges"]
        ),
    )


# ---------------------------------------------------------------------------
# SVG rendering

# cell cost -> class: free 0 (not drawn), graded 1, inscribed 2, lethal 3, unknown 4
_COST_CLASS = np.array([0] + [1] * 252 + [2, 3, 4], dtype=np.uint8)
_COST_COLORS = (None, "#b5b5b5", "#6e6e6e", "#1a1a1a", "#d9d9d9")  # by class

_ROOM_PALETTE = (
    "#4e79a7",
    "#f28e2b",
    "#59a14f",
    "#e15759",
    "#76b7b2",
    "#edc948",
    "#b07aa1",
    "#ff9da7",
    "#9c755f",
    "#bab0ac",
)


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _rect_runs(values: np.ndarray):
    """Greedy rectangle decomposition of the nonzero cells of an int array.

    Yields (value, col, row, width, height) in full-grid coordinates, in the
    order of a row-major scan: at each unvisited nonzero cell the rectangle
    takes the longest run of equal unvisited cells to its right, then extends
    down while every cell below that run is equal and unvisited.
    Reading a row's runs all at once is exact: a rectangle started in a row
    marks only columns that row's scan has passed, so the runs are those of
    the row with its visited cells zeroed.
    """
    nz_rows = np.flatnonzero(values.any(axis=1))
    if nz_rows.size == 0:
        return
    nz_cols = np.flatnonzero(values.any(axis=0))
    r0, c0 = int(nz_rows[0]), int(nz_cols[0])
    vals = values[r0 : nz_rows[-1] + 1, c0 : nz_cols[-1] + 1]
    visited = np.zeros(vals.shape, dtype=bool)
    todo = np.count_nonzero(vals, axis=1)  # unvisited nonzero cells per row
    for r in np.flatnonzero(todo).tolist():
        if not todo[r]:
            continue
        row = np.where(visited[r], 0, vals[r])
        cuts = [0, *(np.flatnonzero(np.diff(row)) + 1).tolist(), row.size]
        for c, c1 in zip(cuts[:-1], cuts[1:]):
            v = row[c]
            if v == 0:
                continue
            block = vals[r + 1 :, c:c1]
            stop = ((block != v) | visited[r + 1 :, c:c1]).any(axis=1)
            r1 = r + 1 + (int(stop.argmax()) if stop.any() else stop.size)
            visited[r:r1, c:c1] = True
            todo[r:r1] -= c1 - c
            yield int(v), c0 + c, r0 + r, c1 - c, r1 - r


def render_svg(m: SemanticMap, path=None, *, scale: float = 20.0) -> str:
    """Render the map (and optionally a planned path) as an SVG 1.1 document.

    Pure function of its inputs: identical map and path yield byte-identical
    output. Layer order: costmap, room fills + category labels, objects,
    route polyline with start/goal markers. scale is pixels per metre.
    """
    g = m.costmap
    width_px = g.width * g.resolution * scale
    height_px = g.height * g.resolution * scale
    if not (scale > 0 and math.isfinite(width_px) and math.isfinite(height_px)):
        raise ValidationError(f"scale must be > 0 and give a finite canvas, got {scale!r}")

    def cell_rect(col, row, w, h):
        x = col * g.resolution * scale
        y = (g.height - row - h) * g.resolution * scale
        return x, y, w * g.resolution * scale, h * g.resolution * scale

    def world_xy(p) -> tuple[float, float]:
        return (
            (p[0] - g.origin_x) * scale,
            (g.height * g.resolution - (p[1] - g.origin_y)) * scale,
        )

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width_px:.2f}" height="{height_px:.2f}" '
        f'viewBox="0 0 {width_px:.2f} {height_px:.2f}">\n',
        f'<rect class="background" x="0" y="0" width="{width_px:.2f}" '
        f'height="{height_px:.2f}" fill="#ffffff"/>\n',
    ]

    parts.append('<g class="costmap">\n')
    for v, col, row, w, h in _rect_runs(_COST_CLASS[g.cells]):
        x, y, rw, rh = cell_rect(col, row, w, h)
        color = _COST_COLORS[v]
        parts.append(
            f'<rect x="{x:.2f}" y="{y:.2f}" width="{rw:.2f}" height="{rh:.2f}" '
            f'fill="{color}"/>\n'
        )
    parts.append("</g>\n")

    rooms_sorted = sorted(m.graph.rooms.values(), key=lambda r: r.id)
    colors = {r.id: _ROOM_PALETTE[i % len(_ROOM_PALETTE)] for i, r in enumerate(rooms_sorted)}
    id_to_label = {rid: label for label, rid in m.room_labels.items()}
    # one label's greedy rectangles depend only on its own cells
    fills: dict[int, list] = {}
    for label, *rect in _rect_runs(m.raster.labels):
        fills.setdefault(label, []).append(rect)
    for room in rooms_sorted:
        label = id_to_label.get(room.id)
        if label is None:
            continue
        parts.append(f'<g class="room"><title>{_esc(room.id)}</title>\n')
        for col, row, w, h in fills.get(label, ()):
            x, y, rw, rh = cell_rect(col, row, w, h)
            parts.append(
                f'<rect x="{x:.2f}" y="{y:.2f}" width="{rw:.2f}" height="{rh:.2f}" '
                f'fill="{colors[room.id]}" fill-opacity="0.35"/>\n'
            )
        cx, cy = world_xy(room.centroid)
        parts.append(
            f'<text x="{cx:.2f}" y="{cy:.2f}" font-size="11" text-anchor="middle" '
            f'font-family="sans-serif" fill="#222222">{_esc(room.category)}</text>\n'
        )
        parts.append("</g>\n")

    parts.append('<g class="objects">\n')
    for obj in sorted(m.graph.objects.values(), key=lambda o: o.id):
        ox, oy = world_xy(obj.position)
        parts.append(
            f'<circle class="object" cx="{ox:.2f}" cy="{oy:.2f}" r="3.00" '
            f'fill="#333333" stroke="#ffffff" stroke-width="0.8"/>\n'
            f'<text x="{ox:.2f}" y="{oy - 4.5:.2f}" font-size="8" text-anchor="middle" '
            f'font-family="sans-serif" fill="#333333">{_esc(obj.class_label)}</text>\n'
        )
    parts.append("</g>\n")

    if path is not None:
        if path.waypoints:
            points = [world_xy(p) for p in path.waypoints]
        else:
            points = []
            for node in path.nodes:
                if node in m.graph.rooms:
                    points.append(world_xy(m.graph.rooms[node].centroid))
                elif node in m.graph.objects:
                    points.append(world_xy(m.graph.objects[node].position))
        if points:
            pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in points)
            sx, sy = points[0]
            gx, gy = points[-1]
            parts.append(
                f'<g class="route">\n'
                f'<polyline points="{pts}" fill="none" stroke="#cc0000" '
                f'stroke-width="2.5" stroke-linejoin="round"/>\n'
                f'<circle class="start" cx="{sx:.2f}" cy="{sy:.2f}" r="4.00" '
                f'fill="#1b9e3c" stroke="#ffffff" stroke-width="1"/>\n'
                f'<rect class="goal" x="{gx - 4:.2f}" y="{gy - 4:.2f}" width="8.00" '
                f'height="8.00" fill="#cc0000" stroke="#ffffff" stroke-width="1"/>\n'
                f"</g>\n"
            )

    parts.append("</svg>\n")
    return "".join(parts)
