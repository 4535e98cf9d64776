import hashlib

import pytest

from semnav import envgen
from semnav.builder import ObjectPlacement, build_semantic_map, load_objects
from semnav.errors import ConfigError, ConflictError, ValidationError
from semnav.graph import GoalQuery
from semnav.mapio import save_map
from semnav.metric import MetricPoint


class TestBuildSemanticMap:
    def test_recovers_generator_rooms_and_categories(self, small_env, built_map):
        _, gt, _ = small_env
        assert len(built_map.graph.rooms) == len(gt.rooms)
        assert {r.category for r in built_map.graph.rooms.values()} == {
            r.category for r in gt.rooms
        }

    def test_objects_keep_supplied_ids(self, small_env, built_map):
        _, gt, _ = small_env
        assert set(built_map.graph.objects) == {o.id for o in gt.objects}

    def test_objects_assigned_to_enclosing_room(self, built_map):
        for obj in built_map.graph.objects.values():
            cell = built_map.costmap.world_to_grid(obj.position)
            assert built_map.room_id_at(cell) == obj.room_id

    def test_minted_ids_when_objects_anonymous(self, small_env, default_rules):
        grid, gt, _ = small_env
        objects = [
            ObjectPlacement(class_label=o.class_label, position=o.position) for o in gt.objects
        ]
        m = build_semantic_map(grid, objects, default_rules)
        classes = {o.class_label for o in gt.objects}
        for oid, obj in m.graph.objects.items():
            assert oid.rsplit("_", 1)[0] in classes

    @pytest.mark.parametrize(
        "seed, rooms_pgm, graph_json, n_rooms, resolution",
        [
            (
                3,
                "a43c65dd7449ebb446facc9d7db084e151010a94cdd316c3257693cd3110cf9b",
                "f2e6533ad26163133e1171ff6c95ba6ccd8701963e288cf1a8adf0950e8270d4",
                4,
                0.1,
            ),
            (
                5,
                "fe6b84266a8f8e70c3b006f18fa0b4193ab60fe039efb8db402c426d4a63f8ce",
                "5c223c2ae880716ed761d2b339eebd5b7078bc3645f723dc2efd2ef7c328fb3d",
                4,
                0.1,
            ),
            # graph.json from legs summed centroid -> portal; summing them
            # portal -> centroid, as before, moves 4 of its 12 edge weights
            (
                7,
                "8342ebbf41e680716003aeea505615757d47588217d3054881ae7642c0e92c9f",
                "4b8f2b41d79c5a12da6d88c725ff449eb9664f2178bb4d459e47c52681ea4918",
                12,
                0.05,
            ),
        ],
    )
    def test_saved_bytes_are_pinned(
        self, default_rules, tmp_path, seed, rooms_pgm, graph_json, n_rooms, resolution
    ):
        # digests recorded from the per-cell heap flood; meta.json carries a timestamp
        spec = envgen.EnvSpec(seed=seed, n_rooms=n_rooms, resolution=resolution)
        grid, gt, _ = envgen.generate(spec)
        objects = [ObjectPlacement(o.class_label, o.position, o.id) for o in gt.objects]
        save_map(build_semantic_map(grid, objects, default_rules), tmp_path)
        digest = {
            name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("rooms.pgm", "graph.json")
        }
        assert digest == {"rooms.pgm": rooms_pgm, "graph.json": graph_json}

    @staticmethod
    def _desk(gt):
        return next(o.position for o in gt.objects if o.class_label == "desk")

    def test_minted_id_skips_a_room_id(self, small_env, default_rules):
        # a class named like a room category would mint that room's id
        grid, gt, _ = small_env
        p = self._desk(gt)
        m = build_semantic_map(
            grid, [ObjectPlacement("desk", p), ObjectPlacement("office", p)], default_rules
        )
        office = m.graph.objects["desk_1"].room_id
        assert office == "office_1"
        assert m.graph.objects["office_2"].room_id == office
        assert not set(m.graph.objects) & set(m.graph.rooms)

    def test_minted_id_skips_a_supplied_id(self, small_env, default_rules):
        grid, gt, _ = small_env
        p = self._desk(gt)
        objects = [ObjectPlacement("desk", p), ObjectPlacement("desk", p, "desk_1")]
        m = build_semantic_map(grid, objects, default_rules)
        assert sorted(m.graph.objects) == ["desk_1", "desk_2"]

    def test_supplied_ids_are_normalized(self, small_env, default_rules):
        grid, gt, _ = small_env
        p = self._desk(gt)
        m = build_semantic_map(grid, [ObjectPlacement("desk", p, "My Desk")], default_rules)
        assert list(m.graph.objects) == ["my_desk"]
        for text in ("My Desk", "my_desk"):
            assert m.graph.find_goal_state(GoalQuery(text)).nodes == ("my_desk",)

    def test_supplied_ids_equal_after_normalizing_conflict(self, small_env, default_rules):
        grid, gt, _ = small_env
        p = self._desk(gt)
        objects = [ObjectPlacement("desk", p, "My Desk"), ObjectPlacement("desk", p, "my_desk")]
        with pytest.raises(ConflictError):
            build_semantic_map(grid, objects, default_rules)

    def test_object_in_wall_rejected(self, small_env, default_rules):
        grid, _, _ = small_env
        bad = [ObjectPlacement(class_label="desk", position=MetricPoint(0.01, 0.01))]
        with pytest.raises(ValidationError):
            build_semantic_map(grid, bad, default_rules)

    def test_object_outside_grid_rejected(self, small_env, default_rules):
        grid, _, _ = small_env
        bad = [ObjectPlacement(class_label="desk", position=MetricPoint(-5.0, -5.0))]
        with pytest.raises(ValidationError):
            build_semantic_map(grid, bad, default_rules)

    def test_uncategorized_rooms_get_room_prefix(self, default_rules):
        from semnav import envgen

        spec = envgen.EnvSpec(seed=3, n_rooms=2, object_density=(0, 0), resolution=0.1)
        grid, _, _ = envgen.generate(spec)
        m = build_semantic_map(grid, [], default_rules)
        assert all(rid.startswith("room_") for rid in m.graph.rooms)
        assert all(r.category == "uncategorized" for r in m.graph.rooms.values())


class TestObjectsFile:
    def test_load_objects(self, tmp_path):
        path = tmp_path / "objects.json"
        path.write_text(
            '[{"class": "desk", "position": [1.0, 2.0], "id": "desk_9"},'
            ' {"class": "mug", "position": [0.5, 0.5]}]',
            encoding="utf-8",
        )
        objs = load_objects(path)
        assert objs[0] == ObjectPlacement(class_label="desk", position=MetricPoint(1.0, 2.0),
                                          id="desk_9")
        assert objs[1].id is None

    def test_bad_entry_rejected(self, tmp_path):
        path = tmp_path / "objects.json"
        path.write_text('[{"class": "desk"}]', encoding="utf-8")
        with pytest.raises(ConfigError):
            load_objects(path)

    @pytest.mark.parametrize(
        "entry",
        [
            '{"class": "desk", "position": "12"}',
            '{"class": "desk", "position": [1.0]}',
            '{"class": "desk", "position": [1.0, 2.0, 3.0]}',
            '{"class": "desk", "position": [1.0, "2"]}',
            '{"class": "desk", "position": [true, 2.0]}',
            '{"class": "desk", "position": {"x": 1.0, "y": 2.0}}',
            '{"class": "desk", "position": [1' + "0" * 400 + ', 2.0]}',
            '{"class": ["a", "b"], "position": [1.0, 2.0]}',
            '{"class": 7, "position": [1.0, 2.0]}',
            '{"class": "desk", "position": [1.0, 2.0], "id": 3}',
            '{"class": "desk", "position": [1.0, 2.0], "id": null}',
            '{"class": "desk", "position": [1.0, 2.0], "id": " "}',
            '{"class": "", "position": [1.0, 2.0]}',
            '"desk"',
        ],
    )
    def test_malformed_entry_rejected(self, tmp_path, entry):
        path = tmp_path / "objects.json"
        path.write_text(f"[{entry}]", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_objects(path)

    def test_integer_position_accepted(self, tmp_path):
        path = tmp_path / "objects.json"
        path.write_text('[{"class": "desk", "position": [1, 2]}]', encoding="utf-8")
        assert load_objects(path)[0].position == MetricPoint(1.0, 2.0)

    def test_non_array_rejected(self, tmp_path):
        path = tmp_path / "objects.json"
        path.write_text('{"class": "desk"}', encoding="utf-8")
        with pytest.raises(ConfigError):
            load_objects(path)
