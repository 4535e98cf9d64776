"""SemanticMap bundle: persistence and SVG rendering.

On disk a map is a directory:

    costmap.pgm    8-bit P5; pixel value == cell cost (lossless)
    costmap.meta   resolution / origin key: value lines
    rooms.pgm      16-bit P5 of room labels (0 = non-room)
    graph.json     rooms, objects, weighted edges (full float precision)
    meta.json      name, creation timestamp, format version, label -> room id
    legs.bin       optional: the leg table, refined legs' paths (see below)

Each layer stays independently inspectable with stock tools; the JSON graph
diffs cleanly. load(save(m)) reproduces m exactly, including edge weights
and raster bytes.

A map is read one way for every command. A malformed file, or a room or
object id listed twice in graph.json, raises MapFormatError (CLI exit 2).
A well-formed map that breaks an invariant of validate_semantic_map raises
MapConsistencyError carrying every violation (CLI exit 3).

legs.bin holds a metric.LegTable, little-endian: a 32-byte header (magic
b"SNAVLEGS", version 1, grid width and height, pair count n as uint32s,
move count m as a uint64), then n uint64 keys, n + 1 uint32 offsets and m
move bytes. Load checks the header only: magic and version, the grid size
against costmap.pgm, the counts against the file size, strictly increasing
keys whose cells lie on the grid, offsets rising from 0 to m, and move
codes below 8; a failed check is a MapFormatError. Each stored path is
checked when planner.refine_to_metric serves it, and every one by
leg_violations (semnav validate). A map saved without a table deletes a
legs.bin left in its directory, as it would be stale.

Reading, judging and rendering a map need numpy only: room boxes and room
component counts come from RoomLabelRaster's row runs, not scipy.ndimage.
On generated maps most rows repeat the row above (on an imported scan few
do), so the room raster caches its metric.kept_rows and the row-run table and
the SVG rectangles read those rows only, each standing for the equal rows
below it.
"""

from __future__ import annotations

import json
import math
import struct
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
    COST_INSCRIBED, CostmapGrid, GridIndex, LegTable, MetricPoint, kept_rows,
    read_key_value_file, read_pgm, write_pgm,
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
    legs: LegTable | None = None  # the leg table of costmap, if indexed

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
    if m.legs is None:
        (root / LEGS_FILE).unlink(missing_ok=True)
    else:
        write_legs(root, m.legs)


LEGS_FILE = "legs.bin"
_LEGS_MAGIC = b"SNAVLEGS"
_LEGS_VERSION = 1
_LEGS_HEADER = struct.Struct("<8sIIIIQ")  # magic, version, width, height, pairs, moves


def write_legs(path, table: LegTable) -> None:
    """Write table as the map directory's legs.bin (layout in the module docstring)."""
    header = _LEGS_HEADER.pack(
        _LEGS_MAGIC, _LEGS_VERSION, table.width, table.height, len(table.keys), len(table.moves)
    )
    payload = (
        np.asarray(table.keys, dtype="<u8").tobytes()
        + np.asarray(table.offsets, dtype="<u4").tobytes()
        + np.asarray(table.moves, dtype=np.uint8).tobytes()
    )
    (Path(path) / LEGS_FILE).write_bytes(header + payload)


def read_legs(root, costmap: CostmapGrid) -> LegTable:
    """Read the map directory's legs.bin, built for costmap's grid, checking
    its header (module docstring); MapFormatError if it fails a check."""
    path = Path(root) / LEGS_FILE
    data = path.read_bytes()
    if len(data) < _LEGS_HEADER.size:
        raise MapFormatError(f"{path}: truncated header ({len(data)} bytes)")
    magic, version, width, height, n, m = _LEGS_HEADER.unpack_from(data)
    if magic != _LEGS_MAGIC:
        raise MapFormatError(f"{path}: not a leg table (magic {magic!r})")
    if version != _LEGS_VERSION:
        raise MapFormatError(f"{path}: unsupported leg table version {version}")
    if (width, height) != (costmap.width, costmap.height):
        raise MapFormatError(
            f"{path}: built for a {width}x{height} grid, the costmap is "
            f"{costmap.width}x{costmap.height}"
        )
    size = _LEGS_HEADER.size + 8 * n + 4 * (n + 1) + m
    if len(data) != size:
        raise MapFormatError(f"{path}: {len(data)} bytes, {n} pairs and {m} moves need {size}")
    keys = np.frombuffer(data, "<u8", n, _LEGS_HEADER.size)
    offsets = np.frombuffer(data, "<u4", n + 1, _LEGS_HEADER.size + 8 * n)
    moves = np.frombuffer(data, np.uint8, m, size - m)
    if n and not (np.all(keys[1:] > keys[:-1]) and int(keys[-1]) < (width * height) ** 2):
        raise MapFormatError(f"{path}: keys not strictly increasing, or a cell off the grid")
    if offsets[0] != 0 or offsets[-1] != m or np.any(offsets[1:] < offsets[:-1]):
        raise MapFormatError(f"{path}: offsets do not rise from 0 to {m}")
    if m and moves.max() >= 8:
        raise MapFormatError(f"{path}: a move code is not below 8")
    return LegTable(width, height, keys, offsets, moves)


def leg_violations(m: SemanticMap) -> list[Violation]:
    """One violation per stored path of m's leg table that refine_to_metric
    would refuse on m's costmap (LegTable.faults)."""
    if m.legs is None:
        return []
    return [
        Violation(LEGS_FILE, "leg-path", f"stored path {tuple(a)} -> {tuple(b)} {fault}")
        for a, b, fault in m.legs.faults(m.costmap)
    ]


def load_map(path, *, legs: bool = True) -> SemanticMap:
    """Read a map directory; rejects unknown versions and inconsistent layers.

    A malformed file raises MapFormatError. A well-formed map that breaks an
    invariant raises MapConsistencyError, whose violations list every
    finding of validate_semantic_map. legs=False skips legs.bin, for
    rebuilding a table that is stale or corrupt.
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
    if type(version) is not int or version != FORMAT_VERSION:  # true and 1.0 equal 1
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
        room_labels = {_label_key(k): _text(v) for k, v in meta_doc.get("labels", {}).items()}
        meta = MapMeta(
            name=_text(meta_doc["name"]), created=_text(meta_doc["created"]), version=version
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise MapFormatError(f"{root}/meta.json: corrupt: {exc}") from exc

    table = None
    if legs and (root / LEGS_FILE).exists():
        table = read_legs(root, costmap)
    m = SemanticMap(
        costmap=costmap, raster=raster, graph=graph, room_labels=room_labels, meta=meta,
        legs=table,
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

    Malformed JSON, a missing field, a field not of its JSON type (a string,
    an integer, a number that is not a bool, or a pair of exactly two), or a
    room or object id listed twice raises MapFormatError. Invariants are not
    judged here: SemanticGraph.validate() reports what is broken.
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
    version = doc.get("version")
    if type(version) is not int or version != FORMAT_VERSION:  # true and 1.0 equal 1
        raise MapFormatError(f"unsupported graph version {version!r}")
    return SemanticGraph(
        rooms=(
            RoomNode(
                id=_text(r["id"]),
                category=_text(r["category"]),
                centroid=MetricPoint(*_pair(r["centroid"], _real)),
                cell_count=_count(r["cell_count"]),
                attributes=[_text(a) for a in _typed(r["attributes"], (list,), "a list")],
            )
            for r in doc["rooms"]
        ),
        objects=(
            ObjectNode(
                id=_text(o["id"]),
                class_label=_text(o["class"]),
                position=MetricPoint(*_pair(o["position"], _real)),
                room_id=_text(o["room"]),
            )
            for o in doc["objects"]
        ),
        edges=(
            RoomEdge(
                room_a=_text(e["a"]),
                room_b=_text(e["b"]),
                weight=_real(e["weight"]),
                portal=GridIndex(*_pair(e["portal"], _count)),
            )
            for e in doc["edges"]
        ),
    )


def _typed(value, types: tuple, what: str):
    # type(), not isinstance(): JSON true and false are bools, never numbers
    if type(value) not in types:
        raise TypeError(f"expected {what}, got {value!r}")
    return value


def _text(value) -> str:
    return _typed(value, (str,), "a string")


def _label_key(key: str) -> int:
    # int() also takes " 01", "+1" and "1_0", so two keys could name one label
    label = int(key)
    if str(label) != key:
        raise ValueError(f"label key {key!r} must be written {str(label)!r}")
    return label


def _count(value) -> int:
    return _typed(value, (int,), "an integer")


def _real(value) -> float:
    return float(_typed(value, (int, float), "a number"))


def _pair(value, item) -> tuple:
    if type(value) is not list or len(value) != 2:
        raise TypeError(f"expected a pair, got {value!r}")
    return item(value[0]), item(value[1])


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

    Yields (value, col, row, width, height) in the order of a row-major scan:
    at each unvisited nonzero cell the rectangle takes the longest run of
    equal unvisited cells to its right, then extends down while every cell
    below that run is equal.

    The numpy work is a fixed number of whole-array passes that build a run
    table: the runs of equal values in each row (every row start is a cut),
    each run's value, end[r, c] (the last row of the vertical run of equal
    values through cell (r, c), a reversed minimum.accumulate over rows) and
    each run's last row, the minimum of end over the run. The Python work is
    one step per run left to draw, in scan order. It keeps the column
    intervals that rectangles from the rows above cover in the current row,
    sorted once per row and walked with a pointer; each lies inside one run,
    as a rectangle's cells in a row all hold its value. A run no interval
    touches is one rectangle down to its last row; a run partly covered
    yields one rectangle per uncovered piece [p, q), down to min(end[r, p:q]).

    Taking each run or piece whole is exact: a rectangle started in a row
    marks only columns that row's scan has passed, so a row's runs are those
    of the row with its visited cells zeroed. The height need not ask whether
    a cell below is visited: none is yet, since an earlier rectangle covering
    one would also cover the run's own cell in that row. So a height depends
    on the values alone, which is why end can be computed up front.
    For the same reason a run with the span and value of a run in the row
    above is covered whole: the rectangles through that run lie inside its
    span, and each reaches the row below, whose cells there all equal its
    value. Such runs are dropped before the loop.
    It is also why a row equal to the row above starts and ends no
    rectangle, and a column equal to its left neighbour holds no rectangle
    edge, so _squeezed_rect_runs may drop such rows and columns first.
    """
    h, w = values.shape
    if not values.size:
        return
    flat = values.ravel()
    cut = np.empty(flat.size, dtype=bool)  # a run starts at this cell
    cut[0] = True
    np.not_equal(flat[1:], flat[:-1], out=cut[1:])
    cut[::w] = True
    starts = np.flatnonzero(cut)
    stops = np.append(starts[1:], flat.size)
    run_values = flat[starts]
    below = np.ones(values.shape, dtype=bool)  # the cell below differs or is off the grid
    np.not_equal(values[1:], values[:-1], out=below[:-1])
    end = np.where(below, np.arange(h, dtype=np.int32)[:, None], h)
    np.minimum.accumulate(end[::-1], axis=0, out=end[::-1])
    run_last = np.minimum.reduceat(end.ravel(), starts)
    j = np.searchsorted(starts, starts - w, "right") - 1  # the run holding the cell above
    repeat = (starts >= w) & (starts[j] == starts - w) & (stops[j] == stops - w)
    todo = (run_values != 0) & ~(repeat & (run_values[j] == run_values))
    rows, cols = np.divmod(starts[todo], w)
    stop_cols = cols + (stops - starts)[todo]
    table = zip(*(a.tolist() for a in (rows, cols, stop_cols, run_values[todo], run_last[todo])))
    covered: list[tuple[int, int, int]] = []  # (col, stop col, last row), sorted
    started: list[tuple[int, int, int]] = []  # rectangles started in the current row
    row = -1
    for r, c, c1, v, last in table:
        if r != row:
            row, k = r, 0
            covered = sorted(x for x in covered + started if x[2] >= r)
            started = []
        while k < len(covered) and covered[k][1] <= c:
            k += 1
        pieces, p = [], c
        while k < len(covered) and covered[k][0] < c1:  # an interval inside this run
            a, b, _ = covered[k]
            if p < a:
                pieces.append((p, a, int(end[r, p:a].min())))
            p, k = b, k + 1
        if p == c:
            pieces.append((c, c1, last))
        elif p < c1:
            pieces.append((p, c1, int(end[r, p:c1].min())))
        started += pieces
        for p, q, e in pieces:
            yield v, p, r, q - p, e - r + 1


def _squeezed_rect_runs(values: np.ndarray, rows: np.ndarray, classes: np.ndarray | None = None):
    """_rect_runs of classes[values] (of values if classes is None), squeezed.

    rows is metric.kept_rows(values); the room raster's are cached, so its
    rows are compared once per load, not again here. Each row equal to the
    row above and each column equal to the column to its left is dropped,
    the greedy runs on what is left, and each rectangle is mapped back
    through the kept rows' and columns' starts. Rows or columns equal in
    values are equal in classes, so the class table is applied to the
    squeezed array only. A band of zero rows or columns at the border
    squeezes to one, so the greedy needs no crop to the nonzero cells.
    The column squeeze removes no run, but it shrinks every whole-array pass
    of _rect_runs: on a 480k-cell generated map the rows alone squeeze the
    costmap to 19x1014 cells, the columns then to 19x50.
    """
    kept = values[rows]
    cols = np.flatnonzero(np.r_[True, (kept[:, 1:] != kept[:, :-1]).any(axis=0)])
    small = kept[:, cols]
    row_at = [*rows.tolist(), values.shape[0]]
    col_at = [*cols.tolist(), values.shape[1]]
    for v, c, r, w, h in _rect_runs(small if classes is None else classes[small]):
        yield v, col_at[c], row_at[r], col_at[c + w] - col_at[c], row_at[r + h] - row_at[r]


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
    for v, col, row, w, h in _squeezed_rect_runs(g.cells, kept_rows(g.cells), _COST_CLASS):
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
    for label, *rect in _squeezed_rect_runs(m.raster.labels, m.raster.kept_rows):
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
