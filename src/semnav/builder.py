"""Map-building pipeline: costmap + object poses -> SemanticMap.

Runs room segmentation, assigns objects to rooms through the label raster,
categorizes each room from its contents, extracts weighted adjacency, and
mints stable room ids (category_1, category_2, ... in label order).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, MapFormatError, ValidationError
from .graph import ObjectNode, RoomEdge, RoomNode, SemanticGraph, UNCATEGORIZED, normalize_label
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

    placements: dict[int, list[ObjectPlacement]] = {k: [] for k in labels}
    for obj in objects:
        try:
            cell = costmap.world_to_grid(obj.position)
        except GridBoundsError as exc:
            raise ValidationError(
                f"object {obj.id or obj.class_label!r} at {tuple(obj.position)} "
                f"is outside the costmap"
            ) from exc
        label = raster.label_at(cell)
        if label == 0:
            raise ValidationError(
                f"object {obj.id or obj.class_label!r} at {tuple(obj.position)} "
                f"does not land in any room"
            )
        placements[label].append(obj)

    categories = {}
    for label in labels:
        attrs = {normalize_label(o.class_label) for o in placements[label]}
        categories[label] = categorize_room(attrs, rules)

    room_ids: dict[int, str] = {}
    counters: dict[str, int] = {}
    for label in labels:
        base = "room" if categories[label] == UNCATEGORIZED else categories[label]
        counters[base] = counters.get(base, 0) + 1
        room_ids[label] = f"{base}_{counters[base]}"

    graph = SemanticGraph()
    cell_counts = np.bincount(raster.labels.ravel())
    for label in labels:
        graph.add_room(
            RoomNode(
                id=room_ids[label],
                category=categories[label],
                centroid=costmap.grid_to_world(raster.centroid_cells[label]),
                cell_count=int(cell_counts[label]),
            )
        )
    class_counters: dict[str, int] = {}
    for label in labels:
        for obj in placements[label]:
            cls = normalize_label(obj.class_label)
            if obj.id is not None:
                oid = obj.id
            else:
                class_counters[cls] = class_counters.get(cls, 0) + 1
                oid = f"{cls}_{class_counters[cls]}"
            graph.add_object(
                ObjectNode(id=oid, class_label=cls, position=obj.position, room_id=room_ids[label])
            )
    for edge in extract_adjacency(raster, costmap):
        graph.add_room_edge(
            RoomEdge(
                room_a=room_ids[int(edge.room_a)],
                room_b=room_ids[int(edge.room_b)],
                weight=edge.weight,
                portal=edge.portal,
            )
        )
    graph.freeze()
    return assemble_map(costmap, raster, graph, room_ids, name=name)
