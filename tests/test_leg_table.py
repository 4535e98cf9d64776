"""The leg table (legs.bin): every stored path is the search's own, it round-trips,
and a plan it serves is the plan a search makes, however often the loaded map
has served it before."""

from __future__ import annotations

import hashlib
import random
import shutil
from dataclasses import replace

import numpy as np
import pytest

from semnav import envgen, mapio, planner
from semnav.errors import SemnavError
from semnav.graph import GoalQuery
from semnav.metric import COST_LETHAL, CostmapGrid, LegTable, grid_shortest_path

from mapfactory import paint_bands


def generated(n_rooms, resolution=0.05, seed=7):
    grid, gt, graph = envgen.generate(
        envgen.EnvSpec(seed=seed, n_rooms=n_rooms, resolution=resolution)
    )
    return mapio.assemble_map(grid, gt.raster, graph, gt.label_to_room, name=f"{n_rooms} rooms")


def legs_sha256(directory) -> str:
    return hashlib.sha256((directory / mapio.LEGS_FILE).read_bytes()).hexdigest()


# sha256 of legs.bin as semnav gen or index writes it for these maps (seed 7);
# a change to every stored path and to the search alike shows here
LEGS_SHA256 = {
    "4 rooms 0.1 m": "64a7b45104c3b91a99d16e41f191f49106668ea71c19a1c900f19a9e1e7d8e07",
    "12 rooms": "a4a08725709ed73c004c14ab3eeeeb978654b3911c874e500719909695e99716",
    "12 rooms painted": "b2b74799ce617ccc6616188b8eab95104f97b491e361d3dd715149f7110f0277",
}


@pytest.fixture(scope="module")
def painted():
    """A 12-room map with inflation bands, unindexed and indexed."""
    m = paint_bands(generated(12))
    return m, planner.index_legs(m)


@pytest.mark.parametrize("name", ["4 rooms", "12 rooms", "24 rooms", "12 rooms painted"])
def test_every_stored_leg_is_its_search_bit_for_bit(painted, name, tmp_path):
    if name.endswith("painted"):
        indexed = painted[1]
    else:
        indexed = planner.index_legs(generated(int(name.split()[0])))
    g, table = indexed.costmap, indexed.legs
    if name in LEGS_SHA256:
        mapio.write_legs(tmp_path, table)
        assert legs_sha256(tmp_path) == LEGS_SHA256[name]
    pairs = {(a, b) for anchors in planner.leg_anchors(indexed) for a in anchors for b in anchors}
    stored = table.walk(g, sorted(pairs))
    assert len(table.keys) == sum(got is not None for got in stored)
    for (a, b), got in zip(sorted(pairs), stored):
        try:
            (cols, rows), _ = grid_shortest_path(g, a, b)
        except SemnavError as exc:  # no route, or an end closed
            assert got is None, (a, b, exc)
            continue
        assert got is not None, (a, b)
        assert np.array_equal(got[0], cols) and np.array_equal(got[1], rows), (a, b)
    assert table.faults(g) == []


@pytest.mark.parametrize("allow_inscribed", [False, True])
def test_table_served_plans_equal_searched_plans(painted, allow_inscribed):
    searched, served = painted
    rng = random.Random(3)
    graph = searched.graph
    rooms, objects = sorted(graph.rooms), sorted(graph.objects)
    centroid, step = graph.rooms[rooms[0]].centroid, 1.5 * searched.costmap.resolution
    starts = rooms + objects + [(centroid.x + step, centroid.y - step)]  # in no anchor's cell
    for _ in range(60):
        request = planner.PlanRequest(
            start=rng.choice(starts),
            goal=GoalQuery(rng.choice(objects + rooms)),
            allow_inscribed=allow_inscribed,
            refine_metric=True,
        )
        a, b = planner.plan(searched, request), planner.plan(served, request)
        assert (a.result, a.failure_reason, a.detail) == (b.result, b.failure_reason, b.detail)


def test_maps_round_trip_with_and_without_a_table(tmp_path):
    m = generated(4, resolution=0.1)
    indexed = planner.index_legs(m)
    mapio.save_map(indexed, tmp_path / "m")
    assert legs_sha256(tmp_path / "m") == LEGS_SHA256["4 rooms 0.1 m"]
    loaded = mapio.load_map(tmp_path / "m")
    assert loaded == indexed and loaded.legs == indexed.legs
    assert isinstance(loaded.legs, LegTable) and len(loaded.legs.keys)
    # saving the map without its table deletes the stale legs.bin
    mapio.save_map(m, tmp_path / "m")
    assert not (tmp_path / "m" / mapio.LEGS_FILE).exists()
    assert mapio.load_map(tmp_path / "m") == m


def test_index_command_adds_the_table_gen_writes(tmp_path):
    from semnav import cli

    assert cli.main(["gen", "--seed", "7", "--out", str(tmp_path / "office")]) == 0
    shutil.copytree(tmp_path / "office", tmp_path / "bare")
    (tmp_path / "bare" / mapio.LEGS_FILE).unlink()
    assert cli.main(["index", "--map", str(tmp_path / "bare")]) == 0
    written = (tmp_path / "office" / mapio.LEGS_FILE).read_bytes()
    assert (tmp_path / "bare" / mapio.LEGS_FILE).read_bytes() == written
    # a corrupt table fails every other command, and index replaces it
    (tmp_path / "bare" / mapio.LEGS_FILE).write_bytes(written[:-1])
    assert cli.main(["validate", "--map", str(tmp_path / "bare")]) == 2
    assert cli.main(["index", "--map", str(tmp_path / "bare")]) == 0
    assert (tmp_path / "bare" / mapio.LEGS_FILE).read_bytes() == written


@pytest.fixture(scope="module")
def decks():
    """The benchmark deck maps (24 rooms at 0.05 m, 12 rooms at 0.025 m; seed 7),
    unindexed and indexed, each with 18 refined requests from rooms to
    objects, classes and rooms."""
    out = []
    for n_rooms, resolution in ((24, 0.05), (12, 0.025)):
        m = generated(n_rooms, resolution)
        graph, rng = m.graph, random.Random(1)
        rooms, objects = sorted(graph.rooms), sorted(graph.objects)
        classes = sorted({o.class_label for o in graph.objects.values()})
        goals = (objects, classes, rooms)
        requests = [
            planner.PlanRequest(
                start=rng.choice(rooms), goal=GoalQuery(rng.choice(goals[i % 3])), refine_metric=True
            )
            for i in range(18)
        ]
        out.append((m, planner.index_legs(m), requests))
    return out


def bits(outcome):
    """An outcome's route and failure, its waypoints as float.hex strings."""
    path = outcome.result
    if path is None:
        return outcome.failure_reason, outcome.detail
    return path.nodes, path.graph_cost.hex(), [(x.hex(), y.hex()) for x, y in path.waypoints]


def test_served_waypoints_are_the_same_bits_on_every_pass(decks):
    for searched, served, requests in decks:
        served = replace(served)  # an empty memo
        expected = [bits(planner.plan(searched, r)) for r in requests]
        for _ in range(3):
            assert [bits(planner.plan(served, r)) for r in requests] == expected
        assert served._leg_memo  # the later passes read the memo


def corrupt(table: LegTable, key: int) -> LegTable:
    """table with the first step of key's stored path turned around."""
    at = int(np.searchsorted(table.keys, key))
    moves = table.moves.copy()
    moves[table.offsets[at]] = 7 - moves[table.offsets[at]]
    return replace(table, moves=moves)


def test_a_replaced_table_or_costmap_starts_an_empty_memo(painted):
    fresh = painted[1]
    m = replace(fresh)
    request = planner.PlanRequest(start="office_1", goal=GoalQuery("desk"), refine_metric=True)
    warm = planner.plan(m, request)
    assert warm.ok and m._leg_memo
    # the memoised leg with the longest stored path, and its middle cell
    key = max((k for k in m._leg_memo if k >= 0), key=lambda k: len(m._leg_memo[k]))
    middle = m._leg_memo[key][len(m._leg_memo[key]) // 2]
    cell = m.costmap.world_to_grid(middle)
    cells = m.costmap.cells.copy()
    cells[cell.row, cell.col] = COST_LETHAL
    walled = CostmapGrid(**{**vars(m.costmap), "cells": cells})
    for change in ({"legs": corrupt(m.legs, key)}, {"costmap": walled}):
        changed, expected = replace(m, **change), planner.plan(replace(fresh, **change), request)
        assert changed._leg_memo == {}
        got = planner.plan(changed, request)
        assert (got.result, got.failure_reason, got.detail) == (
            expected.result, expected.failure_reason, expected.detail
        )
        assert got.failure_reason == planner.FAIL_NO_METRIC_ROUTE and mapio.LEGS_FILE in got.detail
    assert bits(planner.plan(m, request)) == bits(warm)


def test_a_stored_path_fault_is_reported_on_every_repeat(painted):
    m = replace(painted[1])
    request = planner.PlanRequest(start="office_1", goal=GoalQuery("desk"), refine_metric=True)
    assert planner.plan(m, request).ok
    key = next(k for k in m._leg_memo if k >= 0 and len(m._leg_memo[k]) > 1)
    m = replace(m, legs=corrupt(m.legs, key))
    outcomes = {(o.failure_reason, o.detail) for o in (planner.plan(m, request) for _ in range(3))}
    assert len(outcomes) == 1
    reason, detail = outcomes.pop()
    assert reason == planner.FAIL_NO_METRIC_ROUTE and mapio.LEGS_FILE in detail


def test_searched_legs_are_not_memoised(painted):
    m = replace(painted[1])
    graph, step = m.graph, 1.5 * m.costmap.resolution
    goal = GoalQuery("desk")
    assert planner.plan(m, planner.PlanRequest(start="office_1", goal=goal, refine_metric=True)).ok
    size = len(m._leg_memo)
    centroid = graph.rooms["office_1"].centroid
    point = (centroid.x + step, centroid.y - step)  # in no anchor's cell
    for request in (
        planner.PlanRequest(start=point, goal=goal, refine_metric=True),
        planner.PlanRequest(start="office_1", goal=goal, refine_metric=True, allow_inscribed=True),
        planner.PlanRequest(
            start=sorted(graph.rooms)[-1], goal=goal, refine_metric=True, allow_inscribed=True
        ),
    ):
        assert planner.plan(m, request).ok
        assert len(m._leg_memo) == size
