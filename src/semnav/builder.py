"""Map-building pipeline: costmap + object poses -> SemanticMap.

Runs room segmentation, assigns objects to rooms through the label raster,
categorizes each room from its contents, extracts weighted adjacency, and
hands the layers to graph.assemble_graph, which numbers the ids.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, MapFormatError, ValidationError
from .graph import assemble_graph, normalize_label
from .mapio import SemanticMap, assemble_map
from .metric import CostmapGrid, GridBoundsError, MetricPoint
from .segmentation import (
    CategoryRule,
    DEFAULT_DOOR_WIDTH_MAX,
    categorize_room,
    extract_adjacency,
    segment_rooms,
)


@dataclass(frozen=True)
class ObjectPlacement:
    class_label: str
    position: MetricPoint
    id: str | None = None


def load_objects(path) -> list[ObjectPlacement]:
    """Read an objects JSON file: [{"class", "position": [x, y], "id"?}, ...]."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (RecursionError, ValueError) as exc:  # deep nesting; bad JSON, UTF-8 or long int
        raise MapFormatError(f"{path}: corrupt objects file: {exc}") from exc
    if not isinstance(doc, list):
        raise ConfigError(f"{path}: expected a JSON array of objects")
    out = []
    for i, entry in enumerate(doc):
        try:
            position, label, oid = entry["position"], entry["class"], entry.get("id", "")
            numbers = isinstance(position, list) and {type(v) for v in position} <= {int, float}
            if not (numbers and len(position) == 2):
                raise ValueError(f"position must be [x, y] numbers, got {position!r}")
            if not (isinstance(label, str) and isinstance(oid, str)):
                raise ValueError("class and id must be strings")
            if not normalize_label(label) or ("id" in entry and not normalize_label(oid)):
                raise ValueError("class and a supplied id must not be blank")
            x, y = float(position[0]), float(position[1])
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: bad object entry #{i}: {exc}") from exc
        out.append(ObjectPlacement(label, MetricPoint(x, y), entry.get("id")))
    return out


def build_semantic_map(
    costmap: CostmapGrid,
    objects: list[ObjectPlacement],
    rules: list[CategoryRule],
    *,
    door_width_max: float = DEFAULT_DOOR_WIDTH_MAX,
    min_room_cells: int | None = None,
    name: str = "map",
) -> SemanticMap:
    """Segment, categorize, and wire up the full three-layer map."""
    raster = segment_rooms(costmap, min_room_cells=min_room_cells, door_width_max=door_width_max)
    labels = raster.room_labels()
    index = {label: i for i, label in enumerate(labels)}

    placed = []  # (room index, class, position, id or None)
    for obj in objects:
        try:
            label = raster.label_at(costmap.world_to_grid(obj.position))
            where = "does not land in any room"
        except GridBoundsError:
            label, where = 0, "is outside the costmap"
        if label == 0:
            raise ValidationError(
                f"object {obj.id or obj.class_label!r} at {tuple(obj.position)} {where}"
            )
        placed.append((index[label], obj.class_label, obj.position, obj.id))

    classes: list[set[str]] = [set() for _ in labels]
    for i, cls, _, _ in placed:
        classes[i].add(normalize_label(cls))
    cell_counts = np.bincount(raster.labels.ravel())
    rooms = [
        (
            categorize_room(classes[i], rules),
            costmap.grid_to_world(raster.centroid_cells[label]),
            int(cell_counts[label]),
        )
        for i, label in enumerate(labels)
    ]
    edges = [
        (index[int(e.room_a)], index[int(e.room_b)], e.weight, e.portal)
        for e in extract_adjacency(raster, costmap)
    ]
    graph, room_ids = assemble_graph(rooms, placed, edges)
    return assemble_map(costmap, raster, graph, dict(zip(labels, room_ids)), name=name)
