import hashlib
import math

import numpy as np
import pytest
from scipy import ndimage

from semnav import envgen, metric
from semnav.envgen import MAX_GRID_CELLS, MAX_ROOMS, EnvSpec, generate, load_env_spec
from semnav.errors import ConfigError, GenerationError, ValidationError
from semnav.mapio import graph_to_json
from semnav.metric import COST_FREE, COST_LETHAL, GridIndex
from semnav.segmentation import FOUR_CONNECTED


class TestBasicLayouts:
    def test_single_room_no_objects(self):
        spec = EnvSpec(seed=1, n_rooms=1, object_density=(0, 0), resolution=0.1)
        grid, gt, graph = generate(spec)
        assert len(gt.rooms) == 1
        assert gt.rooms[0].category == "uncategorized"
        assert len(graph.rooms) == 1
        assert graph.room_edges == []
        free = grid.cells == COST_FREE
        rows, cols = np.nonzero(free)
        r = gt.rooms[0]
        # free cells form exactly the room rectangle, ringed by walls
        assert rows.min() == r.row0 and rows.max() == r.row0 + r.height - 1
        assert cols.min() == r.col0 and cols.max() == r.col0 + r.width - 1
        assert free.sum() == r.width * r.height
        ring = grid.cells[r.row0 - 1, r.col0 - 1 : r.col0 + r.width + 1]
        assert (ring == COST_LETHAL).all()

    def test_spine_layout_is_star_on_corridor(self):
        spec = EnvSpec(seed=2, n_rooms=4, resolution=0.1)
        _, gt, graph = generate(spec)
        assert len(graph.rooms) == 5
        assert len(graph.room_edges) == 4
        corridor = [r for r in gt.rooms if r.category == "corridor"]
        assert len(corridor) == 1
        hub = corridor[0].id
        for e in graph.room_edges:
            assert hub in (e.room_a, e.room_b)
        degrees = {}
        for e in graph.room_edges:
            degrees[e.room_a] = degrees.get(e.room_a, 0) + 1
            degrees[e.room_b] = degrees.get(e.room_b, 0) + 1
        assert degrees[hub] == 4
        assert all(d == 1 for rid, d in degrees.items() if rid != hub)

    def test_chain_layout_is_path(self):
        spec = EnvSpec(seed=2, n_rooms=4, layout="chain", resolution=0.1)
        _, gt, graph = generate(spec)
        assert len(graph.rooms) == 4
        assert len(graph.room_edges) == 3
        degrees = {}
        for e in graph.room_edges:
            degrees[e.room_a] = degrees.get(e.room_a, 0) + 1
            degrees[e.room_b] = degrees.get(e.room_b, 0) + 1
        assert sorted(degrees.values()) == [1, 1, 2, 2]

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_one_room_spine_equals_one_room_chain(self, seed):
        spine = generate(EnvSpec(seed=seed, n_rooms=1, resolution=0.1, layout="spine"))
        chain = generate(EnvSpec(seed=seed, n_rooms=1, resolution=0.1, layout="chain"))
        assert spine[0] == chain[0]  # costmap
        assert spine[1].raster == chain[1].raster
        assert spine[1] == chain[1]
        assert spine[2] == chain[2]

    def test_same_seed_byte_identical(self):
        spec = EnvSpec(seed=42, n_rooms=3, resolution=0.1)
        g1, gt1, _ = generate(spec)
        g2, gt2, _ = generate(spec)
        assert g1.cells.tobytes() == g2.cells.tobytes()
        assert gt1.raster.labels.tobytes() == gt2.raster.labels.tobytes()
        assert gt1 == gt2

    def test_different_seeds_differ(self):
        a, _, _ = generate(EnvSpec(seed=1, n_rooms=3, resolution=0.1))
        b, _, _ = generate(EnvSpec(seed=2, n_rooms=3, resolution=0.1))
        assert a.cells.tobytes() != b.cells.tobytes()


class TestGroundTruthConsistency:
    def test_every_room_reachable_from_every_other(self, small_env):
        grid, gt, _ = small_env
        free = grid.cells < 253
        comp, _ = ndimage.label(free, structure=FOUR_CONNECTED)
        room_components = set()
        for room in gt.rooms:
            cell = GridIndex(room.col0 + room.width // 2, room.row0 + room.height // 2)
            room_components.add(int(comp[cell.row, cell.col]))
        assert len(room_components) == 1

    def test_graph_matches_ground_truth_invariants(self, small_env):
        _, gt, graph = small_env
        assert graph.validate() == []
        assert set(graph.rooms) == {r.id for r in gt.rooms}
        assert set(graph.objects) == {o.id for o in gt.objects}

    def test_objects_sit_on_their_rooms_cells(self, small_env):
        grid, gt, _ = small_env
        for o in gt.objects:
            cell = grid.world_to_grid(o.position)
            label = gt.raster.labels[cell.row, cell.col]
            assert gt.label_to_room[int(label)] == o.room_id

    def test_furnished_rooms_carry_signature_object(self, small_env):
        _, gt, graph = small_env
        by_room = {}
        for o in gt.objects:
            by_room.setdefault(o.room_id, set()).add(o.class_label)
        signature = {"office": "desk", "conference_room": "whiteboard", "kitchen": "sink",
                     "lounge": "sofa", "corridor": "extinguisher"}
        for room in gt.rooms:
            if room.category in signature:
                assert signature[room.category] in by_room[room.id]

    def test_wall_cell_count_matches_costmap(self, small_env):
        grid, gt, _ = small_env
        assert int((grid.cells == COST_LETHAL).sum()) == gt.wall_cells

    def test_category_query_matches_generated_room_count(self):
        from semnav.graph import GoalQuery

        vocab = (("desk", "office"), ("sink", "kitchen"), ("extinguisher", "corridor"))
        spec = EnvSpec(seed=6, n_rooms=5, resolution=0.1, vocabulary=vocab,
                       object_density=(1, 2))
        _, gt, graph = generate(spec)
        k_offices = sum(1 for r in gt.rooms if r.category == "office")
        state = graph.find_goal_state(GoalQuery("office"))
        assert len(state) == k_offices
        assert k_offices >= 2  # 5 rooms over 2 cycled categories

    def test_occupancy_export_reimports_with_exact_wall_count(self, small_env, tmp_path):
        grid, gt, _ = small_env
        pixels = metric.costs_to_pixels(grid.cells)
        metric.write_pgm(tmp_path / "occ.pgm", pixels)
        (tmp_path / "occ.meta").write_text(
            f"resolution: {grid.resolution!r}\n"
            f"origin_x: 0.0\norigin_y: 0.0\n"
            "free_thresh: 250\nlethal_thresh: 50\n",
            encoding="utf-8",
        )
        loaded = metric.load_costmap(tmp_path / "occ.pgm", tmp_path / "occ.meta")
        assert int((loaded.cells == COST_LETHAL).sum()) == gt.wall_cells
        # free interior survives the round trip exactly
        assert np.array_equal(loaded.cells == 0, grid.cells == 0)


class TestSpecValidation:
    def test_zero_rooms_rejected(self):
        with pytest.raises(ValidationError):
            EnvSpec(n_rooms=0)

    def test_too_many_rooms_rejected(self):
        EnvSpec(n_rooms=MAX_ROOMS)  # construction only: nothing is generated
        with pytest.raises(ValidationError, match="n_rooms"):
            EnvSpec(n_rooms=MAX_ROOMS + 1)

    @pytest.mark.parametrize(
        "spec",
        [
            EnvSpec(n_rooms=1, room_size_range=(1000.0, 1000.0)),  # one 20000x20000 room
            EnvSpec(n_rooms=2, room_size_range=(1e308, 1e308)),  # overflows to inf cells
            EnvSpec(n_rooms=64, room_size_range=(30.0, 30.0), layout="chain"),  # ~23M cells
        ],
        ids=["wide-room", "overflow", "long-chain"],
    )
    def test_oversized_grid_refused_before_allocation(self, spec, monkeypatch):
        monkeypatch.setattr(envgen, "np", None)  # any array allocation would fail differently
        with pytest.raises(GenerationError, match=str(MAX_GRID_CELLS)):
            generate(spec)

    def test_narrow_corridor_rejected(self):
        with pytest.raises(ValidationError):
            EnvSpec(corridor_width=1.0)

    @pytest.mark.parametrize(
        "field", ["resolution", "corridor_width", "door_width", "wall_thickness"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0])
    def test_non_finite_or_nonpositive_length_rejected(self, field, value):
        with pytest.raises(ValidationError):
            EnvSpec(**{field: value})

    @pytest.mark.parametrize(
        "sizes", [(math.nan, 5.0), (3.0, math.nan), (3.0, math.inf), (math.inf, math.inf)]
    )
    def test_non_finite_room_size_range_rejected(self, sizes):
        with pytest.raises(ValidationError):
            EnvSpec(room_size_range=sizes)

    def test_bad_layout_rejected(self):
        with pytest.raises(ValidationError):
            EnvSpec(layout="donut")

    def test_room_too_small_for_door(self):
        with pytest.raises(GenerationError):
            generate(EnvSpec(seed=1, n_rooms=2, room_size_range=(0.5, 0.5), resolution=0.1))

    def test_too_many_objects_for_room(self):
        with pytest.raises(GenerationError):
            generate(
                EnvSpec(seed=1, n_rooms=1, room_size_range=(1.5, 1.5),
                        object_density=(500, 500), resolution=0.5)
            )

    def test_density_zero_yields_uncategorized_rooms(self):
        _, gt, _ = generate(EnvSpec(seed=1, n_rooms=3, object_density=(0, 0), resolution=0.1))
        assert all(r.category == "uncategorized" for r in gt.rooms)
        assert gt.objects == ()


class TestSpecFile:
    def test_load_spec_file(self, tmp_path):
        path = tmp_path / "env.spec"
        path.write_text(
            "seed: 9\n"
            "n_rooms: 3\n"
            "room_size_range: 3.5, 4.5\n"
            "corridor_width: 2.5\n"
            "object_density: 1, 2\n"
            "vocabulary: desk:office, sink:kitchen\n"
            "resolution: 0.1\n"
            "layout: spine\n",
            encoding="utf-8",
        )
        spec = load_env_spec(path)
        assert spec.seed == 9
        assert spec.n_rooms == 3
        assert spec.room_size_range == (3.5, 4.5)
        assert spec.vocabulary == (("desk", "office"), ("sink", "kitchen"))

    def test_every_key_parsed(self, tmp_path):
        path = tmp_path / "env.spec"
        path.write_text(
            "seed: 4\nn_rooms: 2\nroom_size_range: 3, 4\ncorridor_width: 2.5\n"
            "object_density: 0, 2\nvocabulary: desk : office,, sofa:lounge ,\n"
            "resolution: 0.1\nlayout: chain\ndoor_width: 0.9\nwall_thickness: 0.3\n",
            encoding="utf-8",
        )
        assert load_env_spec(path) == EnvSpec(
            seed=4,
            n_rooms=2,
            room_size_range=(3.0, 4.0),
            corridor_width=2.5,
            object_density=(0, 2),
            vocabulary=(("desk", "office"), ("sofa", "lounge")),
            resolution=0.1,
            layout="chain",
            door_width=0.9,
            wall_thickness=0.3,
        )

    @pytest.mark.parametrize(
        "line",
        [
            "seed: 1.5",
            "n_rooms: three",
            "room_size_range: 3",
            "object_density: 1, 2, 3",
            "vocabulary: desk",
            "vocabulary: desk:office:kitchen",
            "resolution: fine",
            "layout: ring",
        ],
    )
    def test_bad_value_rejected(self, tmp_path, line):
        path = tmp_path / "env.spec"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            load_env_spec(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "env.spec"
        path.write_text("rooms: 3\n", encoding="utf-8")
        with pytest.raises(Exception):
            load_env_spec(path)

    def test_non_utf8_spec_rejected(self, tmp_path):
        path = tmp_path / "env.spec"
        path.write_bytes(b"seed: 9\n\xff\xfe\n")
        with pytest.raises(ConfigError):
            load_env_spec(path)

    def test_defaults_when_empty(self, tmp_path):
        path = tmp_path / "env.spec"
        path.write_text("", encoding="utf-8")
        spec = load_env_spec(path)
        assert spec == EnvSpec()


class TestPinnedOutput:
    @pytest.mark.parametrize(
        "spec, costmap, raster, graph",
        [
            (
                dict(n_rooms=24, resolution=0.05),
                "ec82e6ef4c34f7d0b3ed7dbc934ff0dbcc2aa65ae5039993761a832b685f1dd8",
                "7c3d742ce1bf9571b88015084bc7084b9b2472be9197315dd65ddec845cb46d2",
                "56e5fe0381fc168a38a084302e5e230b28ff9f1f29b25bd73c567ea8b677c67a",
            ),
            (
                dict(n_rooms=64, layout="chain", object_density=(2, 5)),
                "ce6376c138ecfdd045b67b0d4a5b8257dbab8dcaca7f2a667272294a9b13dd06",
                "1657bcd7a378896d36c8b8a58f97c3114702dd0046c4539518e76c8ce36708ed",
                "b6a85788cd9ef6468d81e3f61feadb47ceaea0f81ec47e02bd7ebd77a53d278a",
            ),
            (
                dict(n_rooms=12, resolution=0.025),
                "d9d8067017bb87e0a9db1c33a4d2db4799817e57542cdd876417987289465394",
                "99b7150b27677fecab5bec0c778acb360d93763d6c0ef559b0300159294a5e61",
                "ce6a7418e8a997a7364cafd9519a2b1bd9c392d9c2687f8db83a7b631ae45979",
            ),
            (
                dict(n_rooms=12, resolution=0.05),
                "e490448a06dde36e19940ad33e7d2dd7e69c75ba7deb8f01e309db18e00673f8",
                "5ca9ac72f399c49257d01ea46da2f61360a9ad15265238057cbad3998bec212d",
                "08460552b1c093be49dd5d384069c5d280d3aa2b0c8d903d3234199271cb57d5",
            ),
        ],
    )
    def test_benchmark_maps_are_pinned(self, spec, costmap, raster, graph):
        # the maps the benchmark workloads generate, all seed 7
        grid, gt, g = generate(EnvSpec(seed=7, **spec))
        digest = [
            hashlib.sha256(b).hexdigest()
            for b in (grid.cells.tobytes(), gt.raster.labels.tobytes(), graph_to_json(g).encode())
        ]
        assert digest == [costmap, raster, graph]


class TestObjectIds:
    def test_object_class_named_like_a_category(self):
        vocabulary = (("office", "office"), ("desk", "office"))
        _, gt, graph = generate(EnvSpec(seed=7, n_rooms=4, resolution=0.1, vocabulary=vocabulary))
        rooms = {r.id for r in gt.rooms}
        assert {"office_1", "office_4"} <= rooms
        assert "office_5" in graph.objects
        assert not rooms & set(graph.objects)
        assert graph.validate() == []
