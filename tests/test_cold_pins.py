"""Pinned grid-search outputs on the 12-room, 0.025 m, seed-7 map (the map the
cli-cold benchmark renders on). Its fine cells make many refine legs run
diagonally across rooms, so these pins hold the searches of diagonal legs:
a change to how a leg's window is laid out must leave every path cell, every
cost bit and every refined waypoint as they were."""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

from semnav import envgen, mapio, planner
from semnav.errors import UnreachableError
from semnav.graph import GoalQuery
from semnav.metric import GridIndex, grid_shortest_path


@pytest.fixture(scope="module")
def cold():
    grid, gt, graph = envgen.generate(envgen.EnvSpec(seed=7, n_rooms=12, resolution=0.025))
    return mapio.assemble_map(grid, gt.raster, graph, gt.label_to_room, name="cold")


def _diagonal_pairs(grid, n, seed):
    """n pairs of open cells whose rows and columns both differ, by 4 to 80
    cells each, in all four diagonal directions: legs steep, flat and near 45
    degrees, across walls and doors."""
    rng = np.random.default_rng(seed)
    open_rows, open_cols = np.nonzero(grid.cells <= 252)
    pairs = []
    while len(pairs) < n:
        i = int(rng.integers(open_rows.size))
        r, c = int(open_rows[i]), int(open_cols[i])
        drow, dcol = (int(rng.integers(4, 81)) * int(rng.choice([-1, 1])) for _ in range(2))
        r2, c2 = r + drow, c + dcol
        if 0 <= r2 < grid.height and 0 <= c2 < grid.width and grid.cells[r2, c2] <= 252:
            pairs.append((GridIndex(c, r), GridIndex(c2, r2)))
    return pairs


def test_diagonal_grid_searches_are_pinned(cold):
    grid = cold.costmap
    digest = hashlib.sha256()
    for start, goal in _diagonal_pairs(grid, 200, seed=7):
        for allow_inscribed in (False, True):
            try:
                path, cost = grid_shortest_path(grid, start, goal, allow_inscribed=allow_inscribed)
            except UnreachableError:
                digest.update(b"unreachable;")
                continue
            cols, rows = path
            digest.update(repr(list(zip(cols.tolist(), rows.tolist()))).encode())
            digest.update(cost.hex().encode() + b";")
    assert digest.hexdigest() == "d3f336ac0770314853dc901943f54d498cfb531c0917712ffc85988c98a79665"


def test_refined_waypoints_are_pinned(cold):
    graph = cold.graph
    rng = random.Random(7)
    rooms, objects = sorted(graph.rooms), sorted(graph.objects)
    classes = sorted({o.class_label for o in graph.objects.values()})
    digest = hashlib.sha256()
    for i in range(18):
        goal = rng.choice(objects) if i % 2 else rng.choice(classes)
        request = planner.PlanRequest(
            start=rng.choice(rooms), goal=GoalQuery(goal), refine_metric=True
        )
        outcome = planner.plan(cold, request)
        assert outcome.ok, outcome.failure_reason
        digest.update(repr(outcome.result.nodes).encode())
        for x, y in outcome.result.waypoints:
            digest.update(f"{x.hex()},{y.hex()};".encode())
    assert digest.hexdigest() == "e688a4df6669785c7eb0003fb3c3ae3eccaafbef8393b967caf0f809c247c7d1"
