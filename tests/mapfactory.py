"""Helpers that construct small, fully consistent SemanticMaps for tests."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy import ndimage

from semnav.graph import ObjectNode, RoomEdge, RoomNode, SemanticGraph, normalize_label
from semnav.mapio import SemanticMap, assemble_map
from semnav.metric import COST_INSCRIBED, COST_LETHAL, CostmapGrid, GridIndex
from semnav.segmentation import RoomLabelRaster

BLOCK = 4  # cells per room block


def strip_map(
    rooms, objects=(), edges=(), name="strip", *, resolution=1.0, origin=(0.0, 0.0), costs=None
) -> SemanticMap:
    """A map whose rooms are consecutive free blocks on a one-row strip.

    rooms:   [(room_id, category), ...]
    objects: [(object_id, class_label, room_id), ...]
    edges:   [(room_a, room_b, weight), ...]  (graph-level; independent of
             block adjacency, which planning never consults)
    costs:   the strip's cell costs, (BLOCK, len(rooms) * BLOCK) values of at
             most 252 so every cell stays traversable; all free by default
    """
    n = len(rooms)
    width, height = n * BLOCK, BLOCK
    cells = np.zeros((height, width), dtype=np.uint8) if costs is None else costs
    grid = CostmapGrid(
        width=width,
        height=height,
        resolution=resolution,
        origin_x=origin[0],
        origin_y=origin[1],
        cells=cells,
    )
    labels = np.zeros((height, width), dtype=np.uint16)
    for i in range(n):
        labels[:, i * BLOCK : (i + 1) * BLOCK] = i + 1
    raster = RoomLabelRaster(width=width, height=height, labels=labels)

    index_of = {rid: i for i, (rid, _) in enumerate(rooms)}
    centers = {rid: GridIndex(i * BLOCK + BLOCK // 2, BLOCK // 2) for rid, i in index_of.items()}
    graph_rooms = [
        RoomNode(
            id=rid,
            category=category,
            centroid=grid.grid_to_world(centers[rid]),
            cell_count=BLOCK * BLOCK,
            attributes=sorted({normalize_label(cls) for _, cls, r in objects if r == rid}),
        )
        for rid, category in rooms
    ]
    room_labels = {i + 1: rid for rid, i in index_of.items()}
    per_room_count: dict[str, int] = {}
    graph_objects = []
    for oid, cls, rid in objects:
        k = per_room_count.get(rid, 0)
        per_room_count[rid] = k + 1
        col = index_of[rid] * BLOCK + (k % (BLOCK - 1))
        row = k // (BLOCK - 1)
        graph_objects.append(
            ObjectNode(
                id=oid,
                class_label=cls,
                position=grid.grid_to_world(GridIndex(col, row)),
                room_id=rid,
            )
        )
    graph = SemanticGraph(
        graph_rooms,
        graph_objects,
        [RoomEdge(room_a=a, room_b=b, weight=w, portal=centers[a]) for a, b, w in edges],
    )
    return assemble_map(grid, raster, graph, room_labels, name=name)


def fig_office_map() -> SemanticMap:
    """Three offices off a corridor; a bookcase in office_1, a desk in office_3."""
    return strip_map(
        rooms=[
            ("office_1", "office"),
            ("office_2", "office"),
            ("office_3", "office"),
            ("corridor_1", "corridor"),
        ],
        objects=[
            ("bookcase_1", "bookcase", "office_1"),
            ("chair_1", "chair", "office_2"),
            ("desk_1", "desk", "office_3"),
        ],
        edges=[
            ("office_1", "corridor_1", 3.0),
            ("office_2", "corridor_1", 2.0),
            ("office_3", "corridor_1", 4.0),
        ],
    )


def random_graph_edges(rng, n_nodes, extra_edges=None):
    """Connected undirected weighted graph: spanning tree + random extras."""
    ids = [f"r{i:02d}" for i in range(n_nodes)]
    edges = {}
    for i in range(1, n_nodes):
        j = rng.randrange(i)
        edges[(ids[j], ids[i])] = rng.uniform(0.5, 9.5)
    if extra_edges is None:
        extra_edges = rng.randint(0, n_nodes)
    tries = 0
    while extra_edges > 0 and tries < 50:
        tries += 1
        a, b = rng.sample(ids, 2)
        key = (min(a, b), max(a, b))
        if key in edges:
            continue
        edges[key] = rng.uniform(0.5, 9.5)
        extra_edges -= 1
    return ids, [(a, b, w) for (a, b), w in sorted(edges.items())]


def graph_from_edges(ids, edges) -> SemanticGraph:
    from semnav.metric import MetricPoint

    return SemanticGraph(
        [
            RoomNode(id=rid, category="uncategorized", centroid=MetricPoint(0.5, 0.5), cell_count=1)
            for rid in ids
        ],
        edges=[RoomEdge(room_a=a, room_b=b, weight=w, portal=GridIndex(0, 0)) for a, b, w in edges],
    )


def adjacency_dict(edges):
    adj = {}
    for a, b, w in edges:
        adj.setdefault(a, []).append((b, w))
        adj.setdefault(b, []).append((a, w))
    for k in adj:
        adj[k].sort()
    return adj


def paint_bands(m: SemanticMap, inscribed_reach=6.0, graded_reach=16.0) -> SemanticMap:
    """m with inflation bands painted around every lethal cell.

    Cells within inscribed_reach cells of a lethal cell become inscribed;
    those beyond it and within graded_reach get a graded cost falling from
    252 to 1 with distance. Cells already costlier keep their cost.
    """
    cells = m.costmap.cells.copy()
    reach = ndimage.distance_transform_edt(cells != COST_LETHAL)
    painted = cells < COST_INSCRIBED
    ramp = np.rint(252.0 * (graded_reach - reach) / (graded_reach - inscribed_reach))
    graded = painted & (reach > inscribed_reach) & (reach <= graded_reach)
    cells[graded] = np.maximum(cells[graded], np.clip(ramp[graded], 1, 252).astype(np.uint8))
    cells[painted & (reach <= inscribed_reach)] = COST_INSCRIBED
    return replace(m, costmap=CostmapGrid(**{**vars(m.costmap), "cells": cells}))


def speckle_rows(m: SemanticMap, per_row=2, seed=0) -> SemanticMap:
    """m with per_row free cells of every row made lethal, as in a noisy scan.

    Few rows then repeat the row above, so a row squeeze keeps nearly all.
    """
    rng = np.random.default_rng(seed)
    cells = m.costmap.cells.copy()
    for row in cells:
        free = np.flatnonzero(row == 0)
        row[rng.choice(free, size=min(per_row, free.size), replace=False)] = COST_LETHAL
    return replace(m, costmap=CostmapGrid(**{**vars(m.costmap), "cells": cells}))
