"""Helpers that construct small, fully consistent SemanticMaps for tests."""

from __future__ import annotations

import numpy as np

from semnav.graph import ObjectNode, RoomEdge, RoomNode, SemanticGraph, normalize_label
from semnav.mapio import SemanticMap, assemble_map
from semnav.metric import CostmapGrid, GridIndex
from semnav.segmentation import RoomLabelRaster

BLOCK = 4  # cells per room block


def strip_map(rooms, objects=(), edges=(), name="strip") -> SemanticMap:
    """A map whose rooms are consecutive free blocks on a one-row strip.

    rooms:   [(room_id, category), ...]
    objects: [(object_id, class_label, room_id), ...]
    edges:   [(room_a, room_b, weight), ...]  (graph-level; independent of
             block adjacency, which planning never consults)
    """
    n = len(rooms)
    width, height = n * BLOCK, BLOCK
    cells = np.zeros((height, width), dtype=np.uint8)
    grid = CostmapGrid(
        width=width, height=height, resolution=1.0, origin_x=0.0, origin_y=0.0, cells=cells
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
