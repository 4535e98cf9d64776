import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(*args, cwd=None):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "semnav", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": path},
        timeout=300,
    )


@pytest.fixture(scope="module")
def spec_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("spec") / "env.spec"
    path.write_text(
        "seed: 7\nn_rooms: 4\nresolution: 0.1\nobject_density: 1, 3\n",
        encoding="utf-8",
    )
    return path


@pytest.fixture(scope="module")
def map_dir(tmp_path_factory, spec_file):
    out = tmp_path_factory.mktemp("maps") / "m"
    result = run_cli("gen", "--spec", str(spec_file), "--out", str(out))
    assert result.returncode == 0, result.stderr
    return out


class TestGen:
    def test_gen_writes_all_artifacts(self, map_dir):
        for name in (
            "costmap.pgm",
            "costmap.meta",
            "rooms.pgm",
            "graph.json",
            "meta.json",
            "occupancy.pgm",
            "occupancy.meta",
            "objects.json",
            "groundtruth.json",
        ):
            assert (map_dir / name).exists(), name

    def test_gen_bad_spec_exits_2(self, tmp_path):
        bad = tmp_path / "bad.spec"
        bad.write_text("n_rooms: 0\n", encoding="utf-8")
        result = run_cli("gen", "--spec", str(bad), "--out", str(tmp_path / "m"))
        assert result.returncode == 2
        assert "invalid input" in result.stderr


    @pytest.mark.parametrize(
        "line", ["resolution: nan", "door_width: nan", "wall_thickness: inf",
                 "room_size_range: 3, inf"]
    )
    def test_gen_non_finite_spec_exits_2(self, tmp_path, line):
        bad = tmp_path / "bad.spec"
        bad.write_text(f"n_rooms: 2\n{line}\n", encoding="utf-8")
        result = run_cli("gen", "--spec", str(bad), "--out", str(tmp_path / "m"))
        assert result.returncode == 2, result.stderr
        assert "invalid input" in result.stderr


class TestValidate:
    def test_validate_clean_map_exits_0(self, map_dir):
        result = run_cli("validate", "--map", str(map_dir))
        assert result.returncode == 0
        assert "ok" in result.stdout

    def test_validate_missing_map_exits_2(self, tmp_path):
        result = run_cli("validate", "--map", str(tmp_path / "absent"))
        assert result.returncode == 2

    def test_validate_non_utf8_meta_exits_2(self, map_dir, tmp_path):
        broken = tmp_path / "broken"
        shutil.copytree(map_dir, broken)
        (broken / "costmap.meta").write_bytes(b"\xff\xfe")
        result = run_cli("validate", "--map", str(broken))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("shape", ["list", "labels-list"])
    def test_validate_wrong_shape_meta_exits_2(self, map_dir, tmp_path, shape):
        broken = tmp_path / "broken"
        shutil.copytree(map_dir, broken)
        doc = json.loads((broken / "meta.json").read_text())
        doc = [doc] if shape == "list" else {**doc, "labels": list(doc["labels"].items())}
        (broken / "meta.json").write_text(json.dumps(doc), encoding="utf-8")
        result = run_cli("validate", "--map", str(broken))
        assert result.returncode == 2
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("name", ["meta.json", "graph.json"])
    @pytest.mark.parametrize("text", ["[" * 100_000, "1" * 5_000], ids=["deep", "long-int"])
    def test_validate_unparsable_json_exits_2(self, map_dir, tmp_path, name, text):
        broken = tmp_path / "broken"
        shutil.copytree(map_dir, broken)
        (broken / name).write_text(text, encoding="utf-8")
        result = run_cli("validate", "--map", str(broken))
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr

    def test_validate_non_finite_origin_exits_2(self, map_dir, tmp_path):
        broken = tmp_path / "broken"
        shutil.copytree(map_dir, broken)
        meta = (broken / "costmap.meta").read_text()
        meta = "".join(
            "origin_x: inf\n" if line.startswith("origin_x:") else line
            for line in meta.splitlines(keepends=True)
        )
        (broken / "costmap.meta").write_text(meta, encoding="utf-8")
        result = run_cli("validate", "--map", str(broken))
        assert result.returncode == 2

    def test_validate_tampered_map_exits_3(self, map_dir, tmp_path):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(map_dir, broken)
        doc = json.loads((broken / "graph.json").read_text())
        doc["edges"][0]["weight"] = -4.0
        (broken / "graph.json").write_text(json.dumps(doc), encoding="utf-8")
        result = run_cli("validate", "--map", str(broken))
        assert result.returncode == 3

    def test_object_in_ghost_room_is_one_violation_per_fault(self, map_dir, tmp_path):
        broken = tmp_path / "broken"
        shutil.copytree(map_dir, broken)
        doc = json.loads((broken / "graph.json").read_text())
        # an object alone in its class in its room, so the room's attributes change
        obj = next(
            o
            for o in doc["objects"]
            if sum(p["room"] == o["room"] and p["class"] == o["class"] for p in doc["objects"])
            == 1
        )
        home, obj["room"] = obj["room"], "ghost_room"
        (broken / "graph.json").write_text(json.dumps(doc), encoding="utf-8")
        result = run_cli("validate", "--map", str(broken))
        assert result.returncode == 3, result.stderr
        lines = result.stdout.splitlines()
        assert len(lines) == 2, lines
        assert lines[0] == f"{obj['id']}: dangling-room-ref: room 'ghost_room' does not exist"
        assert lines[1].startswith(f"{home}: attributes-cache: ")
        assert result.stderr.strip() == "2 violation(s)"

    def test_unnormalized_object_id_exits_3(self, map_dir, tmp_path):
        # the planner normalizes every goal, so "My Desk" could never be named
        broken = tmp_path / "broken"
        shutil.copytree(map_dir, broken)
        doc = json.loads((broken / "graph.json").read_text())
        desk = next(o for o in doc["objects"] if o["class"] == "desk")
        desk["id"] = "My Desk"
        (broken / "graph.json").write_text(json.dumps(doc), encoding="utf-8")
        result = run_cli("validate", "--map", str(broken))
        assert result.returncode == 3, result.stderr
        assert result.stdout.startswith("My Desk: normalized-id: ")
        start = doc["rooms"][0]["id"]
        result = run_cli(
            "plan", "--map", str(broken), "--start", start, "--goal", "My Desk", "--oracle", "none"
        )
        assert result.returncode == 3, result.stderr
        assert "Traceback" not in result.stderr


def _cut_rooms_row(map_dir, broken):
    """Copy the map with the last row of rooms.pgm cut off."""
    from semnav.metric import read_pgm, write_pgm

    shutil.copytree(map_dir, broken)
    labels, _ = read_pgm(broken / "rooms.pgm")
    write_pgm(broken / "rooms.pgm", labels[:-1])


class TestLayerShapes:
    def test_validate_layer_shape_mismatch_exits_3(self, map_dir, tmp_path):
        _cut_rooms_row(map_dir, tmp_path / "broken")
        result = run_cli("validate", "--map", str(tmp_path / "broken"))
        assert result.returncode == 3, result.stderr
        assert result.stdout.startswith("raster: layer-dims: ")
        assert "Traceback" not in result.stderr

    def test_plan_layer_shape_mismatch_exits_3(self, map_dir, tmp_path):
        _cut_rooms_row(map_dir, tmp_path / "broken")
        result = run_cli(
            "plan", "--map", str(tmp_path / "broken"), "--start", "corridor_1", "--goal", "desk"
        )
        assert result.returncode == 3, result.stderr
        assert "raster: layer-dims: " in result.stderr
        assert "Traceback" not in result.stderr


class TestOverflowingGraphNumbers:
    def _tamper(self, map_dir, broken, section, key, literal):
        shutil.copytree(map_dir, broken)
        doc = json.loads((broken / "graph.json").read_text())
        doc[section][0][key] = "@@"
        text = json.dumps(doc).replace('"@@"', literal)
        (broken / "graph.json").write_text(text, encoding="utf-8")
        return doc

    def test_validate_infinite_portal_exits_2(self, map_dir, tmp_path):
        self._tamper(map_dir, tmp_path / "broken", "edges", "portal", "[Infinity, 0]")
        result = run_cli("validate", "--map", str(tmp_path / "broken"))
        assert result.returncode == 2, result.stderr
        assert "invalid input" in result.stderr
        assert "Traceback" not in result.stderr

    def test_plan_overflowing_cell_count_exits_2(self, map_dir, tmp_path):
        doc = self._tamper(map_dir, tmp_path / "broken", "rooms", "cell_count", "1e400")
        start = doc["rooms"][0]["id"]
        result = run_cli(
            "plan", "--map", str(tmp_path / "broken"), "--start", start, "--goal", "desk"
        )
        assert result.returncode == 2, result.stderr
        assert "invalid input" in result.stderr
        assert "Traceback" not in result.stderr


def _set(entry, key, value):
    entry[key] = value


# (tampering of graph.json, exit code from every command, rule validate names)
TAMPERINGS = {
    "duplicate-room": (lambda d: d["rooms"].append(d["rooms"][0]), 2, None),
    "duplicate-object": (lambda d: d["objects"].append(d["objects"][0]), 2, None),
    "self-loop": (lambda d: _set(d["edges"][0], "b", d["edges"][0]["a"]), 3, "no-self-loop"),
    "negative-weight": (lambda d: _set(d["edges"][0], "weight", -4.0), 3, "edge-weight"),
    "nan-weight": (lambda d: _set(d["edges"][0], "weight", float("nan")), 3, "edge-weight"),
    "duplicate-edge": (lambda d: d["edges"].append(d["edges"][0]), 3, "duplicate-edge"),
    "unknown-room": (lambda d: _set(d["objects"][0], "room", "nowhere"), 3, "dangling-room-ref"),
    "bad-attributes": (lambda d: _set(d["rooms"][0], "attributes", ["bogus"]), 3,
                       "attributes-cache"),
}


@pytest.mark.parametrize("case", sorted(TAMPERINGS))
def test_plan_and_validate_judge_a_tampered_map_alike(map_dir, tmp_path, case):
    tamper, code, rule = TAMPERINGS[case]
    broken = tmp_path / "broken"
    shutil.copytree(map_dir, broken)
    doc = json.loads((broken / "graph.json").read_text())
    start = doc["rooms"][0]["id"]
    tamper(doc)
    (broken / "graph.json").write_text(json.dumps(doc), encoding="utf-8")
    validate = run_cli("validate", "--map", str(broken))
    planned = run_cli("plan", "--map", str(broken), "--start", start, "--goal", "desk")
    assert (validate.returncode, planned.returncode) == (code, code), validate.stderr
    for result in (validate, planned):
        assert "Traceback" not in result.stderr
    if rule is None:
        assert "listed more than once" in validate.stderr
    else:
        lines = validate.stdout.splitlines()
        assert any(f": {rule}: " in line for line in lines)
        assert validate.stderr.strip() == f"{len(lines)} violation(s)"


class TestPlan:
    def test_plan_known_goal_exits_0(self, map_dir):
        graph = json.loads((map_dir / "graph.json").read_text())
        start = graph["rooms"][0]["id"]
        goal = graph["objects"][0]["id"]
        result = run_cli("plan", "--map", str(map_dir), "--start", start, "--goal", goal)
        assert result.returncode == 0, result.stderr
        assert "mode: targeted" in result.stdout
        assert "path: " in result.stdout and "cost: " in result.stdout

    @pytest.mark.parametrize("start", ["nan,1", "inf,1", "1e308,1"])
    def test_plan_non_finite_start_exits_2(self, map_dir, start):
        result = run_cli("plan", "--map", str(map_dir), f"--start={start}", "--goal", "desk")
        assert result.returncode == 2, result.stderr
        assert "invalid-start" in result.stderr
        assert "Traceback" not in result.stderr

    def test_plan_object_class_goal(self, map_dir):
        result = run_cli("plan", "--map", str(map_dir), "--start", "corridor_1",
                         "--goal", "desk")
        assert result.returncode == 0, result.stderr
        assert "desk" in result.stdout

    def test_plan_absent_goal_without_oracle_exits_1(self, map_dir):
        result = run_cli(
            "plan", "--map", str(map_dir), "--start", "corridor_1",
            "--goal", "unicorn", "--oracle", "none",
        )
        assert result.returncode == 1
        assert "discovery-failed" in result.stderr

    def test_plan_absent_goal_with_mock_oracle_exits_0(self, map_dir):
        result = run_cli(
            "plan", "--map", str(map_dir), "--start", "corridor_1",
            "--goal", "coffee_machine", "--oracle", "mock",
        )
        assert result.returncode == 0, result.stderr
        assert "mode: discovery" in result.stdout
        assert "kitchen_1" in result.stdout

    def test_plan_blank_goal_exits_2(self, map_dir):
        result = run_cli("plan", "--map", str(map_dir), "--start", "corridor_1",
                         "--goal", "   ")
        assert result.returncode == 2, result.stdout
        assert "invalid-goal" in result.stderr

    def test_plan_bad_start_exits_2(self, map_dir):
        result = run_cli("plan", "--map", str(map_dir), "--start", "mars", "--goal", "desk")
        assert result.returncode == 2

    def test_plan_short_portal_list_exits_2(self, map_dir, tmp_path):
        broken = tmp_path / "broken"
        shutil.copytree(map_dir, broken)
        doc = json.loads((broken / "graph.json").read_text())
        doc["edges"][0]["portal"] = [3]
        (broken / "graph.json").write_text(json.dumps(doc))
        result = run_cli("plan", "--map", str(broken), "--start", "mars", "--goal", "desk")
        assert result.returncode == 2
        assert "Traceback" not in result.stderr

    def test_plan_point_start_with_refine_writes_waypoints(self, map_dir, tmp_path):
        graph = json.loads((map_dir / "graph.json").read_text())
        room = graph["rooms"][0]
        x, y = room["centroid"]
        wp = tmp_path / "wp.json"
        result = run_cli(
            "plan", "--map", str(map_dir), "--start", f"{x},{y}",
            "--goal", graph["objects"][0]["id"], "--refine", "--waypoints-out", str(wp),
        )
        assert result.returncode == 0, result.stderr
        waypoints = json.loads(wp.read_text())
        assert len(waypoints) >= 1
        assert all(len(p) == 2 for p in waypoints)


def _portal_in_a_wall(map_dir, broken, rooms=None):
    """Copy the map, free one lethal cell enclosed by lethal cells and point
    the portal of the edge joining rooms (by default the first edge) at it:
    the map loads, but no cell-level route reaches that portal. Returns the
    edge's two room ids."""
    import numpy as np
    from scipy import ndimage

    from semnav.metric import read_pgm, write_pgm

    shutil.copytree(map_dir, broken)
    costs, _ = read_pgm(broken / "costmap.pgm")
    enclosed = ndimage.binary_erosion(costs == 254, structure=np.ones((3, 3)))
    row, col = (int(v) for v in np.argwhere(enclosed)[0])
    costs[row, col] = 0
    write_pgm(broken / "costmap.pgm", costs)
    doc = json.loads((broken / "graph.json").read_text())
    edge = next(e for e in doc["edges"] if rooms is None or {e["a"], e["b"]} == set(rooms))
    edge["portal"] = [col, row]
    (broken / "graph.json").write_text(json.dumps(doc), encoding="utf-8")
    return edge["a"], edge["b"]


class TestUnrealizableRoute:
    """A room route whose portal no cell-level route reaches is a planning
    failure of the map's consistency: plan() reports it, the CLI exits 3."""

    def test_plan_reports_no_metric_route(self, map_dir, tmp_path):
        from dataclasses import replace

        from semnav import mapio, planner
        from semnav.graph import GoalQuery

        start, goal = _portal_in_a_wall(map_dir, tmp_path / "broken")
        m = mapio.load_map(tmp_path / "broken")
        request = planner.PlanRequest(start=start, goal=GoalQuery(goal), refine_metric=True)
        outcome = planner.plan(m, request)
        assert outcome.result is None
        assert outcome.failure_reason == planner.FAIL_NO_METRIC_ROUTE
        assert "cannot realize graph path on the costmap" in outcome.detail
        # the room route alone is still found
        assert planner.plan(m, replace(request, refine_metric=False)).ok

    def test_first_failing_leg_is_reported_and_ends_the_search(
        self, map_dir, tmp_path, monkeypatch
    ):
        from semnav import mapio, metric, planner
        from semnav.errors import UnreachableError
        from semnav.graph import GoalQuery
        from oracles import one_leg

        m = mapio.load_map(map_dir)
        ids = sorted(m.graph.rooms)
        routes = (planner.dijkstra(m.graph, a, b) for a in ids for b in ids)
        rooms = next(p.nodes for p in routes if p is not None and len(p.nodes) == 3)
        # the second edge's portal is walled: legs 1 and 2 both end or start there
        _portal_in_a_wall(map_dir, tmp_path / "broken", rooms[1:])
        m = mapio.load_map(tmp_path / "broken")
        grid = m.costmap
        grid_sized = []
        search = metric.window_search

        def spy(rings, resolution, sources, shears):
            grid_sized.extend(ring.size == (grid.height + 2) * (grid.width + 2) for ring in rings)
            return search(rings, resolution, sources, shears)

        monkeypatch.setattr(metric, "window_search", spy)
        request = planner.PlanRequest(
            start=rooms[0], goal=GoalQuery(rooms[2]), refine_metric=True
        )
        outcome = planner.plan(m, request)
        assert outcome.failure_reason == planner.FAIL_NO_METRIC_ROUTE
        assert outcome.detail.startswith(f"room {rooms[1]!r}: ")
        assert "no traversable route" in outcome.detail
        together = sum(grid_sized)

        # the same legs one at a time, up to the first that fails
        grid_sized.clear()
        graph = m.graph
        anchors = [grid.world_to_grid(graph.rooms[rooms[0]].centroid)]
        anchors += [graph.get_edge(a, b).portal for a, b in zip(rooms, rooms[1:])]
        anchors.append(grid.world_to_grid(graph.rooms[rooms[2]].centroid))
        one_leg(grid, anchors[0], anchors[1])
        with pytest.raises(UnreachableError):
            one_leg(grid, anchors[1], anchors[2])
        # the failing leg grew to the whole grid; the leg after it did not
        assert 1 <= together <= sum(grid_sized)

    @pytest.mark.parametrize("command", ["plan", "render"])
    def test_cli_exits_3(self, map_dir, tmp_path, command):
        start, goal = _portal_in_a_wall(map_dir, tmp_path / "broken")
        args = ["--map", str(tmp_path / "broken"), "--start", start, "--goal", goal, "--refine"]
        if command == "render":
            args += ["--out", str(tmp_path / "out.svg")]
        result = run_cli(command, *args)
        assert result.returncode == 3, result.stderr
        assert "no-metric-route" in result.stderr
        # the failing leg's room and the search's cause are still reported
        assert "cannot realize graph path on the costmap" in result.stderr
        assert "no traversable route" in result.stderr
        assert any(f"room {room!r}" in result.stderr for room in (start, goal))
        assert "Traceback" not in result.stderr


class TestOfficeScenario:
    def test_plan_desk_from_office_routes_through_corridor(self, tmp_path):
        from semnav.mapio import save_map
        from mapfactory import fig_office_map

        map_dir = tmp_path / "offices"
        save_map(fig_office_map(), map_dir)
        result = run_cli("plan", "--map", str(map_dir), "--start", "office_1",
                         "--goal", "desk")
        assert result.returncode == 0, result.stderr
        assert "path: office_1 -> corridor_1 -> office_3 -> desk_1" in result.stdout


class TestBench:
    def test_bench_targeted_reports_success_rate_one(self, map_dir, tmp_path):
        out = tmp_path / "report.json"
        result = run_cli(
            "bench", "--map", str(map_dir), "--trials", "20", "--mode", "targeted",
            "--seed", "3", "--out", str(out),
        )
        assert result.returncode == 0, result.stderr
        doc = json.loads(out.read_text())
        assert doc["modes"]["targeted"]["success_rate"] == 1.0
        assert doc["wall_time_ms"]["max"] > 0
        assert "targeted" in result.stdout

    def test_bench_zero_trials(self, map_dir):
        result = run_cli("bench", "--map", str(map_dir), "--trials", "0")
        assert result.returncode == 0, result.stderr
        assert '"modes": {}' in result.stdout

    def test_bench_unknown_mode_exits_2(self, map_dir):
        result = run_cli("bench", "--map", str(map_dir), "--trials", "1", "--mode", "teleport")
        assert result.returncode == 2, result.stderr
        assert "invalid input" in result.stderr


class TestRender:
    def test_render_map_only(self, map_dir, tmp_path):
        out = tmp_path / "map.svg"
        result = run_cli("render", "--map", str(map_dir), "--out", str(out))
        assert result.returncode == 0, result.stderr
        svg = out.read_text()
        assert svg.count('<g class="room">') == 5
        assert "<polyline" not in svg

    def test_render_with_path(self, map_dir, tmp_path):
        out = tmp_path / "path.svg"
        graph = json.loads((map_dir / "graph.json").read_text())
        result = run_cli(
            "render", "--map", str(map_dir), "--out", str(out),
            "--start", graph["rooms"][0]["id"], "--goal", graph["objects"][0]["id"],
            "--refine",
        )
        assert result.returncode == 0, result.stderr
        assert out.read_text().count("<polyline") == 1

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("render", ["--start", "office_1"], "--start and --goal go together"),
            ("render", ["--goal", "desk"], "--start and --goal go together"),
            ("render", ["--refine"], "--refine needs --start and --goal"),
            ("plan", ["--start", "office_1", "--goal", "desk", "--waypoints-out", "wp.json"],
             "--waypoints-out needs --refine"),
        ],
    )
    def test_a_flag_that_would_be_ignored_exits_2(self, map_dir, tmp_path, command, flags, message):
        out = ["--out", str(tmp_path / "map.svg")] if command == "render" else []
        result = run_cli(command, "--map", str(map_dir), *out, *flags, cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert message in result.stderr
        assert not any(tmp_path.iterdir())  # nothing rendered or written

    @pytest.mark.parametrize("scale", ["0", "-5", "nan", "inf", "1e308"])
    def test_render_bad_scale_exits_2(self, map_dir, tmp_path, scale):
        out = tmp_path / "map.svg"
        result = run_cli("render", "--map", str(map_dir), "--out", str(out), f"--scale={scale}")
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        assert not out.exists()

    def test_render_deterministic_bytes(self, map_dir, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        for out in (a, b):
            result = run_cli("render", "--map", str(map_dir), "--out", str(out))
            assert result.returncode == 0
        assert a.read_bytes() == b.read_bytes()


class TestBuildFromOccupancy:
    def test_supplied_id_is_a_plannable_goal(self, map_dir, tmp_path):
        desk = next(
            o for o in json.loads((map_dir / "objects.json").read_text()) if o["class"] == "desk"
        )
        objfile = tmp_path / "objects.json"
        objfile.write_text(json.dumps([{**desk, "id": "My Desk"}]), encoding="utf-8")
        out = tmp_path / "m2"
        result = run_cli(
            "build",
            "--costmap", str(map_dir / "occupancy.pgm"),
            "--meta", str(map_dir / "occupancy.meta"),
            "--objects", str(objfile),
            "--out", str(out),
        )
        assert result.returncode == 0, result.stderr
        start = json.loads((out / "graph.json").read_text())["rooms"][0]["id"]
        result = run_cli(
            "plan", "--map", str(out), "--start", start, "--goal", "My Desk", "--oracle", "none"
        )
        assert result.returncode == 0, result.stderr
        assert "mode: targeted" in result.stdout

    def test_gen_then_build_pipeline(self, map_dir, tmp_path):
        out = tmp_path / "rebuilt"
        result = run_cli(
            "build",
            "--costmap", str(map_dir / "occupancy.pgm"),
            "--meta", str(map_dir / "occupancy.meta"),
            "--objects", str(map_dir / "objects.json"),
            "--out", str(out),
        )
        assert result.returncode == 0, result.stderr
        rebuilt = json.loads((out / "graph.json").read_text())
        original = json.loads((map_dir / "graph.json").read_text())
        assert len(rebuilt["rooms"]) == len(original["rooms"])
        assert len(rebuilt["edges"]) == len(original["edges"])
        assert {r["category"] for r in rebuilt["rooms"]} == {
            r["category"] for r in original["rooms"]
        }
        result = run_cli("validate", "--map", str(out))
        assert result.returncode == 0

    def test_build_rejects_object_outside_rooms(self, map_dir, tmp_path):
        objects = [{"class": "desk", "position": [0.01, 0.01]}]
        objfile = tmp_path / "objects.json"
        objfile.write_text(json.dumps(objects), encoding="utf-8")
        result = run_cli(
            "build",
            "--costmap", str(map_dir / "occupancy.pgm"),
            "--meta", str(map_dir / "occupancy.meta"),
            "--objects", str(objfile),
            "--out", str(tmp_path / "m2"),
        )
        assert result.returncode == 2

    @pytest.mark.parametrize(
        "entry", [{"class": "desk", "id": ""}, {"class": " "}], ids=["blank-id", "blank-class"]
    )
    def test_build_rejects_blank_object_label(self, map_dir, tmp_path, entry):
        desk = next(
            o for o in json.loads((map_dir / "objects.json").read_text()) if o["class"] == "desk"
        )
        objfile = tmp_path / "objects.json"
        objfile.write_text(json.dumps([{"position": desk["position"], **entry}]), encoding="utf-8")
        result = run_cli(
            "build",
            "--costmap", str(map_dir / "occupancy.pgm"),
            "--meta", str(map_dir / "occupancy.meta"),
            "--objects", str(objfile),
            "--out", str(tmp_path / "m2"),
        )
        assert result.returncode == 2, result.stderr
        assert "must not be blank" in result.stderr
        assert not (tmp_path / "m2").exists()

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_build_rejects_non_finite_object_position(self, map_dir, tmp_path, value):
        objfile = tmp_path / "objects.json"
        objfile.write_text(f'[{{"class": "desk", "position": [{value}, 1.0]}}]', encoding="utf-8")
        result = run_cli(
            "build",
            "--costmap", str(map_dir / "occupancy.pgm"),
            "--meta", str(map_dir / "occupancy.meta"),
            "--objects", str(objfile),
            "--out", str(tmp_path / "m2"),
        )
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--min-room-area", "nan"),
            ("--min-room-area", "inf"),
            ("--min-room-area", "-1"),
            ("--door-width-max", "0"),
            ("--door-width-max", "-1"),
            ("--door-width-max", "nan"),
            ("--door-width-max", "inf"),
        ],
    )
    def test_build_rejects_bad_parameter(self, map_dir, tmp_path, flag, value):
        result = run_cli(
            "build",
            "--costmap", str(map_dir / "occupancy.pgm"),
            "--meta", str(map_dir / "occupancy.meta"),
            "--out", str(tmp_path / "m2"),
            f"{flag}={value}",
        )
        assert result.returncode == 2, result.stderr
        assert "Traceback" not in result.stderr
        assert not (tmp_path / "m2").exists()

    @pytest.mark.parametrize(
        "key, value",
        [
            ("resolution", "0"),
            ("resolution", "-1"),
            ("resolution", "nan"),
            ("resolution", "inf"),
            ("origin_x", "inf"),
        ],
    )
    def test_build_names_meta_with_bad_geometry(self, map_dir, tmp_path, key, value):
        meta = tmp_path / "bad.meta"
        meta.write_text(
            "".join(
                f"{key}: {value}\n" if line.startswith(f"{key}:") else line
                for line in (map_dir / "occupancy.meta").read_text().splitlines(keepends=True)
            ),
            encoding="utf-8",
        )
        result = run_cli(
            "build",
            "--costmap", str(map_dir / "occupancy.pgm"),
            "--meta", str(meta),
            "--out", str(tmp_path / "m2"),
        )
        assert result.returncode == 2, result.stderr
        assert f"{meta}: " in result.stderr
        assert not (tmp_path / "m2").exists()

    def test_missing_required_flag_exits_2(self):
        result = run_cli("build", "--out", "/tmp/x")
        assert result.returncode == 2
