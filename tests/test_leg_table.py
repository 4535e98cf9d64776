"""The leg table (legs.bin): every stored path is the search's own, it round-trips,
and a plan it serves is the plan a search makes."""

from __future__ import annotations

import random
import shutil
from dataclasses import replace

import numpy as np
import pytest

from semnav import envgen, mapio, planner
from semnav.errors import SemnavError
from semnav.graph import GoalQuery
from semnav.metric import LegTable, grid_shortest_paths

from mapfactory import paint_bands


def generated(n_rooms, resolution=0.05, seed=7):
    grid, gt, graph = envgen.generate(
        envgen.EnvSpec(seed=seed, n_rooms=n_rooms, resolution=resolution)
    )
    return mapio.assemble_map(grid, gt.raster, graph, gt.label_to_room, name=f"{n_rooms} rooms")


@pytest.fixture(scope="module")
def painted():
    """A 12-room map with inflation bands, unindexed and indexed."""
    m = paint_bands(generated(12))
    return m, planner.index_legs(m)


@pytest.mark.parametrize("name", ["4 rooms", "12 rooms", "24 rooms", "12 rooms painted"])
def test_every_stored_leg_is_its_search_bit_for_bit(painted, name):
    if name.endswith("painted"):
        indexed = painted[1]
    else:
        indexed = planner.index_legs(generated(int(name.split()[0])))
    g, table = indexed.costmap, indexed.legs
    pairs = {(a, b) for anchors in planner.leg_anchors(indexed) for a in anchors for b in anchors}
    stored = table.walk(g, sorted(pairs))
    assert len(table.keys) == sum(got is not None for got in stored)
    for (a, b), got in zip(sorted(pairs), stored):
        try:
            (cols, rows), _ = next(grid_shortest_paths(g, [(a, b)]))
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
