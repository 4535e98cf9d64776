"""Synthetic office-environment generator with exact ground truth.

Produces a costmap, a ground-truth room raster/graph, and object placements
for two deterministic layouts:

  spine  rooms attached alternately above/below a central corridor, one
         doorway per room onto the corridor (star adjacency);
  chain  rooms in a row, one doorway in each shared wall (path adjacency).

Everything is a pure function of the spec (seeded RNG), so the same spec
yields byte-identical maps. Rooms are furnished from a vocabulary of
(object class -> room category) affinities; a room's ground-truth category
is the category it was furnished as, or "uncategorized" when it received no
objects (there is nothing on the map to recover the category from).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import GenerationError, ValidationError
from .graph import ObjectNode, SemanticGraph, UNCATEGORIZED, assemble_graph, normalize_label
from .metric import (
    COST_FREE,
    COST_LETHAL,
    COST_UNKNOWN,
    CostmapGrid,
    GridIndex,
    read_key_value_file,
)
from .segmentation import DEFAULT_DOOR_WIDTH_MAX, RoomLabelRaster

DEFAULT_VOCABULARY: tuple[tuple[str, str], ...] = (
    ("desk", "office"),
    ("chair", "office"),
    ("bookcase", "office"),
    ("monitor", "office"),
    ("whiteboard", "conference_room"),
    ("projector", "conference_room"),
    ("conference_table", "conference_room"),
    ("sink", "kitchen"),
    ("fridge", "kitchen"),
    ("sofa", "lounge"),
    ("coffee_table", "lounge"),
    ("plant", "lounge"),
    ("extinguisher", "corridor"),
    ("exit_sign", "corridor"),
)

CORRIDOR_CATEGORY = "corridor"

_MARGIN_CELLS = 2  # unknown ring outside the building

# Upper bounds on what a spec may ask for, far above any map in use (at most
# 64 rooms and under a million cells), so a bad spec is refused before it
# allocates memory.
MAX_ROOMS = 1024
MAX_GRID_CELLS = 16_000_000


@dataclass(frozen=True)
class EnvSpec:
    seed: int = 0
    n_rooms: int = 4
    room_size_range: tuple[float, float] = (3.0, 5.0)
    corridor_width: float = 2.0
    object_density: tuple[int, int] = (1, 3)
    vocabulary: tuple[tuple[str, str], ...] = DEFAULT_VOCABULARY
    resolution: float = 0.05
    layout: str = "spine"
    door_width: float = 0.8
    wall_thickness: float = 0.2

    def __post_init__(self):
        if not 1 <= self.n_rooms <= MAX_ROOMS:
            raise ValidationError(f"n_rooms must be in 1..{MAX_ROOMS}, got {self.n_rooms}")
        lo, hi = self.room_size_range
        if not (0 < lo <= hi < math.inf):
            raise ValidationError(f"bad room_size_range {self.room_size_range}")
        dlo, dhi = self.object_density
        if not (0 <= dlo <= dhi):
            raise ValidationError(f"bad object_density {self.object_density}")
        if self.layout not in ("spine", "chain"):
            raise ValidationError(f"layout must be 'spine' or 'chain', got {self.layout!r}")
        for name in ("resolution", "door_width", "corridor_width", "wall_thickness"):
            if not (0 < getattr(self, name) < math.inf):
                raise ValidationError(f"{name} must be positive and finite: {getattr(self, name)}")
        if self.layout == "spine" and self.n_rooms > 1:
            if self.corridor_width <= DEFAULT_DOOR_WIDTH_MAX:
                raise ValidationError(
                    f"corridor_width {self.corridor_width} must exceed the doorway "
                    f"threshold {DEFAULT_DOOR_WIDTH_MAX} or the corridor reads as a door"
                )


@dataclass(frozen=True)
class GroundTruthRoom:
    id: str
    category: str
    label: int
    col0: int
    row0: int
    width: int
    height: int


@dataclass(frozen=True)
class GroundTruthDoor:
    room_a: str
    room_b: str
    col0: int
    row0: int
    width: int
    height: int


@dataclass(frozen=True)
class GroundTruth:
    rooms: tuple[GroundTruthRoom, ...]
    doors: tuple[GroundTruthDoor, ...]
    objects: tuple[ObjectNode, ...]  # the graph's object nodes
    raster: RoomLabelRaster
    label_to_room: dict[int, str] = field(default_factory=dict)
    wall_cells: int = 0


def generate(spec: EnvSpec) -> tuple[CostmapGrid, GroundTruth, SemanticGraph]:
    """Generate (costmap, ground truth, ground-truth graph) from a spec."""
    rng = random.Random(spec.seed)
    res = spec.resolution

    def cells(meters: float) -> int:
        n = meters / res
        if n > MAX_GRID_CELLS:  # also catches an overflow to inf
            raise GenerationError(f"{meters} m spans more than {MAX_GRID_CELLS} cells")
        return max(1, round(n))

    wt = cells(spec.wall_thickness)
    door = cells(spec.door_width)
    m = _MARGIN_CELLS

    sizes = []
    lo, hi = spec.room_size_range
    for _ in range(spec.n_rooms):
        sizes.append((cells(rng.uniform(lo, hi)), cells(rng.uniform(lo, hi))))

    for w, _ in sizes:
        if w < door + 2:
            raise GenerationError(
                f"room width {w} cells cannot hold a {door}-cell door with margins"
            )

    if spec.layout == "spine" and spec.n_rooms > 1:
        layout = _layout_spine(sizes, cells(spec.corridor_width), wt, door, m, rng)
    else:
        layout = _layout_chain(sizes, wt, door, m, rng)

    grid_w, grid_h, room_rects, corridor_rect, door_rects = layout
    if grid_w * grid_h > MAX_GRID_CELLS:
        raise GenerationError(f"a {grid_w}x{grid_h} grid exceeds {MAX_GRID_CELLS} cells")

    costs = np.full((grid_h, grid_w), COST_UNKNOWN, dtype=np.uint8)
    costs[m : grid_h - m, m : grid_w - m] = COST_LETHAL
    interiors = list(room_rects)
    if corridor_rect is not None:
        interiors.append(corridor_rect)
    for c0, r0, w, h in interiors:
        costs[r0 : r0 + h, c0 : c0 + w] = COST_FREE
    for c0, r0, w, h in door_rects:
        costs[r0 : r0 + h, c0 : c0 + w] = COST_FREE

    bbox_area = (grid_w - 2 * m) * (grid_h - 2 * m)
    wall_cells = bbox_area - sum(w * h for _, _, w, h in interiors) - sum(
        w * h for _, _, w, h in door_rects
    )

    grid = CostmapGrid(
        width=grid_w,
        height=grid_h,
        resolution=res,
        origin_x=0.0,
        origin_y=0.0,
        cells=costs,
    )

    gt, graph = _furnish(spec, rng, grid, room_rects, corridor_rect, door_rects, wall_cells)
    return grid, gt, graph


def _layout_spine(sizes, ch, wt, door, m, rng):
    """Rooms alternately above/below a full-width corridor, doors onto it."""
    cursors = [0, 0]  # above, below
    placements = []  # (side, x0, w, d)
    for i, (w, d) in enumerate(sizes):
        side = i % 2
        x0 = cursors[side]
        placements.append((side, x0, w, d))
        cursors[side] += w + wt
    interior_w = max(c - wt for c in cursors if c > 0)
    da = max((d for side, _, _, d in placements if side == 0), default=0)
    db = max((d for side, _, _, d in placements if side == 1), default=0)

    col0 = m + wt
    below0 = m + wt
    corr0 = below0 + db + (wt if db else 0)
    above0 = corr0 + ch + wt
    grid_w = m + wt + interior_w + wt + m
    grid_h = above0 + da + wt + m

    room_rects = []
    door_rects = []
    for side, x0, w, d in placements:
        if side == 0:
            rect = (col0 + x0, above0, w, d)
            wall_row0 = corr0 + ch  # wall band between corridor and above room
        else:
            rect = (col0 + x0, below0 + (db - d), w, d)
            wall_row0 = below0 + db
        room_rects.append(rect)
        dx = rng.randint(x0 + 1, x0 + w - door - 1)
        door_rects.append((col0 + dx, wall_row0, door, wt))
    corridor_rect = (col0, corr0, interior_w, ch)
    return grid_w, grid_h, room_rects, corridor_rect, door_rects


def _layout_chain(sizes, wt, door, m, rng):
    """Rooms in a row; one door through each shared wall. One room is one
    walled room, with no door and no random draw, whatever the spec's layout."""
    dmax = max(d for _, d in sizes)
    col0 = m + wt
    row0 = m + wt
    cur = 0
    room_rects = []
    door_rects = []
    for i, (w, d) in enumerate(sizes):
        room_rects.append((col0 + cur, row0, w, d))
        if i + 1 < len(sizes):
            overlap = min(d, sizes[i + 1][1])
            if overlap < door + 2:
                raise GenerationError(
                    f"rooms {i} and {i + 1} are too shallow for a {door}-cell door"
                )
            dy = rng.randint(1, overlap - door - 1)
            door_rects.append((col0 + cur + w, row0 + dy, wt, door))
        cur += w + wt
    interior_w = cur - wt
    grid_w = m + wt + interior_w + wt + m
    grid_h = m + wt + dmax + wt + m
    return grid_w, grid_h, room_rects, None, door_rects


def _furnish(spec, rng, grid, room_rects, corridor_rect, door_rects, wall_cells):
    """Assign categories, place objects, and build raster + ground-truth graph."""
    vocab = [(normalize_label(c), normalize_label(cat)) for c, cat in spec.vocabulary]
    categories = []
    for _, cat in vocab:
        if cat != CORRIDOR_CATEGORY and cat not in categories:
            categories.append(cat)
    by_category: dict[str, list[str]] = {}
    for cls, cat in vocab:
        by_category.setdefault(cat, []).append(cls)

    rects = list(room_rects)
    assigned = [
        categories[i % len(categories)] if categories else UNCATEGORIZED
        for i in range(len(rects))
    ]
    if corridor_rect is not None:
        rects.append(corridor_rect)
        assigned.append(CORRIDOR_CATEGORY)

    # sample every room's object count before any placement
    dmin, dmax = spec.object_density
    planned: list[tuple[str, int]] = []  # (category, n objects)
    for cat in assigned:
        n_objects = rng.randint(dmin, dmax)
        if not by_category.get(cat):
            n_objects = 0
        planned.append((cat if n_objects else UNCATEGORIZED, n_objects))

    objects = []  # (room index, class, position, id)
    for i, (cat, n_objects) in enumerate(planned):
        if n_objects == 0:
            continue
        classes = by_category[cat]
        # first object is the category's signature class; extras sampled freely
        picks = [classes[0]] + [rng.choice(classes) for _ in range(n_objects - 1)]
        spots = _object_cells(rects[i], n_objects, rng)
        for cls, (col, row) in zip(picks, spots):
            objects.append((i, cls, grid.grid_to_world(GridIndex(col, row)), None))

    # a spine door joins room i to the corridor (the last rect); a chain door, rooms i and i + 1
    last = len(rects) - 1
    pairs = [(i, last if corridor_rect is not None else i + 1) for i in range(len(door_rects))]
    centroids = [grid.grid_to_world(_center(rect)) for rect in rects]
    edges = []
    for (a, b), rect in zip(pairs, door_rects):
        portal = _center(rect)
        pw = grid.grid_to_world(portal)
        edges.append((a, b, math.dist(centroids[a], pw) + math.dist(pw, centroids[b]), portal))
    rooms = [(cat, c, w * h) for (cat, _), c, (_, _, w, h) in zip(planned, centroids, rects)]
    graph, ids = assemble_graph(rooms, objects, edges)

    labels = np.zeros((grid.height, grid.width), dtype=np.uint16)
    for label, (c0, r0, w, h) in enumerate(rects, start=1):
        labels[r0 : r0 + h, c0 : c0 + w] = label
    gt = GroundTruth(
        rooms=tuple(
            GroundTruthRoom(rid, cat, i + 1, *rect)
            for i, (rid, (cat, _), rect) in enumerate(zip(ids, planned, rects))
        ),
        doors=tuple(
            GroundTruthDoor(ids[a], ids[b], *rect) for (a, b), rect in zip(pairs, door_rects)
        ),
        objects=tuple(graph.objects.values()),
        raster=RoomLabelRaster(width=grid.width, height=grid.height, labels=labels),
        label_to_room={i + 1: rid for i, rid in enumerate(ids)},
        wall_cells=wall_cells,
    )
    return gt, graph


def _center(rect) -> GridIndex:
    c0, r0, w, h = rect
    return GridIndex(c0 + w // 2, r0 + h // 2)


def _object_cells(rect, count, rng) -> list[tuple[int, int]]:
    c0, r0, w, h = rect
    margin = 1 if w > 2 and h > 2 else 0
    candidates = [
        (col, row)
        for row in range(r0 + margin, r0 + h - margin)
        for col in range(c0 + margin, c0 + w - margin)
    ]
    if count > len(candidates):
        raise GenerationError(f"room at {rect} too small for {count} objects")
    return rng.sample(candidates, count)


def _pair(cast):
    """Parser of "lo, hi" into (cast(lo), cast(hi))."""

    def parse(text):
        lo, hi = text.split(",")
        return cast(lo), cast(hi)

    return parse


def _vocabulary(text):
    pairs = (item.split(":") for item in text.split(",") if item.strip())
    return tuple((cls.strip(), cat.strip()) for cls, cat in pairs)


# spec file key -> parser of its value; a bad value raises ValueError or TypeError
_SPEC_PARSERS = {
    "seed": int,
    "n_rooms": int,
    "room_size_range": _pair(float),
    "corridor_width": float,
    "object_density": _pair(int),
    "vocabulary": _vocabulary,
    "resolution": float,
    "layout": str,
    "door_width": float,
    "wall_thickness": float,
}
_SPEC_KEYS = set(_SPEC_PARSERS)


def load_env_spec(path) -> EnvSpec:
    """Read an EnvSpec from a `key: value` file; every key is optional."""
    raw = read_key_value_file(path, required=set(), allowed=_SPEC_KEYS)
    try:
        kwargs = {key: parse(raw[key]) for key, parse in _SPEC_PARSERS.items() if key in raw}
    except (ValueError, TypeError) as exc:
        raise ValidationError(f"{path}: bad spec value: {exc}") from exc
    return EnvSpec(**kwargs)
