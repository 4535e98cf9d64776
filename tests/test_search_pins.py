"""Pinned grid-search outputs on the 24-room, 0.05 m, seed-7 map (the map the
plan-warm benchmark plans on), and wall routes on it and on the 12-room,
0.025 m one: a change to the search's set-up or to when it accepts a window's
path must leave every path cell, every cost bit and every refined waypoint as
they were."""

from __future__ import annotations

import hashlib
import random

import numpy as np
import pytest

from semnav import envgen, mapio, metric, planner
from semnav.errors import UnreachableError
from semnav.graph import GoalQuery
from semnav.metric import GridIndex

from oracles import one_leg


def _office(n_rooms, resolution):
    grid, gt, graph = envgen.generate(
        envgen.EnvSpec(seed=7, n_rooms=n_rooms, resolution=resolution)
    )
    return mapio.assemble_map(grid, gt.raster, graph, gt.label_to_room, name="pins")


@pytest.fixture(scope="module")
def office():
    return _office(24, 0.05)


@pytest.fixture(scope="module")
def fine():
    return _office(12, 0.025)


def _cell_pairs(grid, allow_inscribed, n, seed):
    """n pairs of traversable cells, each pair within a 60-cell square, so
    the searches stay short but cross walls and doors."""
    rng = np.random.default_rng(seed)
    open_rows, open_cols = np.nonzero(grid.cells <= (253 if allow_inscribed else 252))
    pairs = []
    while len(pairs) < n:
        i = int(rng.integers(open_rows.size))
        r, c = int(open_rows[i]), int(open_cols[i])
        r2, c2 = r + int(rng.integers(-30, 31)), c + int(rng.integers(-30, 31))
        if 0 <= r2 < grid.height and 0 <= c2 < grid.width:
            if grid.cells[r2, c2] <= (253 if allow_inscribed else 252):
                pairs.append((GridIndex(c, r), GridIndex(c2, r2)))
    return pairs


def test_grid_search_outputs_are_pinned(office):
    grid = office.costmap
    digest = hashlib.sha256()
    for allow_inscribed in (False, True):
        for start, goal in _cell_pairs(grid, allow_inscribed, 100, seed=7):
            try:
                path, cost = one_leg(grid, start, goal, allow_inscribed=allow_inscribed)
            except UnreachableError:
                digest.update(b"unreachable;")
                continue
            cols, rows = path
            digest.update(repr(list(zip(cols.tolist(), rows.tolist()))).encode())
            digest.update(cost.hex().encode() + b";")
    assert digest.hexdigest() == "acb09394fa8d50e34d7df6bbfc815b3995fbe30e665aa0f6585c016fc0e0b7b3"


def test_refined_waypoints_are_pinned(office):
    graph = office.graph
    rng = random.Random(7)
    rooms, objects = sorted(graph.rooms), sorted(graph.objects)
    classes = sorted({o.class_label for o in graph.objects.values()})
    digest = hashlib.sha256()
    for i in range(18):
        goal = rng.choice(objects) if i % 2 else rng.choice(classes)
        request = planner.PlanRequest(
            start=rng.choice(rooms), goal=GoalQuery(goal), refine_metric=True
        )
        outcome = planner.plan(office, request)
        assert outcome.ok, outcome.failure_reason
        digest.update(repr(outcome.result.nodes).encode())
        for x, y in outcome.result.waypoints:
            digest.update(f"{x.hex()},{y.hex()};".encode())
    assert digest.hexdigest() == "49cf7caac97f7bb4d2d3458d15bda6315e4fda4d6336990f1f5fe64226964303"


def _route_digest(m, routes):
    """sha256 over each refined route's rooms, graph_cost bits and waypoint bits."""
    digest = hashlib.sha256()
    for start, goal in routes:
        request = planner.PlanRequest(start=start, goal=GoalQuery(goal), refine_metric=True)
        outcome = planner.plan(m, request)
        assert outcome.ok, outcome.failure_reason
        digest.update(repr(outcome.result.nodes).encode())
        digest.update(outcome.result.graph_cost.hex().encode() + b";")
        for x, y in outcome.result.waypoints:
            digest.update(f"{x.hex()},{y.hex()};".encode())
    return digest.hexdigest()


# Door-to-door legs along a corridor wall, whose cheapest path detours a
# cell or two past the straight octile distance: the legs a search accepts
# or regrows by a rounding allowance's margin.
def test_wall_routes_are_pinned(office):
    routes = [
        ("conference_room_4", "conference_room_1"),
        ("lounge_3", "whiteboard_2"),
        ("conference_room_1", "sofa"),
    ]
    assert _route_digest(office, routes) == (
        "4e00996542d2fb70c25ee9aff50b42d45bb2782eb8af3315d2510a28b9ba65e2"
    )


def test_fine_wall_route_is_pinned(fine):
    assert _route_digest(fine, [("lounge_1", "whiteboard_1")]) == (
        "45a20563c1d4cfefe2684d80a95d907e51457ccb3876646a052de6dc53bc7b15"
    )


def test_wall_route_searches_once(office, monkeypatch):
    # each leg's first window holds its path with room to spare for float
    # rounding, so no leg is searched again
    calls = []
    search = metric.window_search

    def spy(rings, resolution, sources, shears):
        calls.append(len(rings))
        return search(rings, resolution, sources, shears)

    monkeypatch.setattr(metric, "window_search", spy)
    request = planner.PlanRequest(
        start="conference_room_4", goal=GoalQuery("conference_room_1"), refine_metric=True
    )
    assert planner.plan(office, request).ok
    assert calls == [3]
