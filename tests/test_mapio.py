import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semnav import envgen, mapio
from semnav.errors import MapConsistencyError, MapFormatError
from semnav.graph import GoalQuery, Violation
from semnav.mapio import (
    SemanticMap,
    assemble_map,
    graph_from_json,
    graph_to_json,
    load_map,
    render_svg,
    save_map,
    validate_semantic_map,
)
from semnav.metric import MetricPoint
from semnav.planner import PlanRequest, plan
from semnav.segmentation import RoomLabelRaster

from mapfactory import fig_office_map, strip_map
from oracles import brute_rect_runs


def gt_semantic_map(seed, n_rooms=3, resolution=0.1, **kw):
    spec = envgen.EnvSpec(seed=seed, n_rooms=n_rooms, resolution=resolution, **kw)
    grid, gt, graph = envgen.generate(spec)
    return assemble_map(grid, gt.raster, graph, gt.label_to_room, name=f"seed{seed}")


class TestRoundTrip:
    def test_empty_graph_map_round_trips(self, tmp_path):
        m = strip_map(rooms=[("solo", "office")])
        save_map(m, tmp_path / "m")
        loaded = load_map(tmp_path / "m")
        assert loaded == m

    def test_generator_maps_round_trip_bit_exact(self, tmp_path):
        for seed in range(5):
            m = gt_semantic_map(seed)
            save_map(m, tmp_path / f"m{seed}")
            loaded = load_map(tmp_path / f"m{seed}")
            assert loaded == m
            assert loaded.raster.labels.tobytes() == m.raster.labels.tobytes()
            assert loaded.costmap.cells.tobytes() == m.costmap.cells.tobytes()
            for a, b in zip(
                sorted(loaded.graph.room_edges, key=lambda e: (e.room_a, e.room_b)),
                sorted(m.graph.room_edges, key=lambda e: (e.room_a, e.room_b)),
            ):
                assert a.weight == b.weight  # full float precision

    def test_pipeline_map_round_trips(self, built_map, tmp_path):
        save_map(built_map, tmp_path / "m")
        assert load_map(tmp_path / "m") == built_map

    def test_truncated_costmap_rejected_without_partial_map(self, tmp_path):
        m = gt_semantic_map(1)
        save_map(m, tmp_path / "m")
        pgm = tmp_path / "m" / "costmap.pgm"
        pgm.write_bytes(pgm.read_bytes()[:-40])
        with pytest.raises(MapFormatError):
            load_map(tmp_path / "m")

    def test_corrupt_graph_json_rejected(self, tmp_path):
        m = gt_semantic_map(1)
        save_map(m, tmp_path / "m")
        (tmp_path / "m" / "graph.json").write_text("{not json", encoding="utf-8")
        with pytest.raises(MapFormatError):
            load_map(tmp_path / "m")

    def test_short_portal_list_rejected(self, tmp_path):
        m = gt_semantic_map(1)
        save_map(m, tmp_path / "m")
        path = tmp_path / "m" / "graph.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        doc["edges"][0]["portal"] = [3]
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(MapFormatError):
            graph_from_json(path.read_text(encoding="utf-8"))
        with pytest.raises(MapFormatError):
            load_map(tmp_path / "m")

    def test_missing_layer_rejected(self, tmp_path):
        m = gt_semantic_map(1)
        save_map(m, tmp_path / "m")
        (tmp_path / "m" / "rooms.pgm").unlink()
        with pytest.raises(MapFormatError):
            load_map(tmp_path / "m")

    @pytest.mark.parametrize(
        "meta",
        [
            "resolution: 0.1\norigin_x: 0.0\norigin_y: 0.0\nresolution: 0.1\n",
            "resolution: 0.1\norigin_x: 0.0\norigin_y: 0.0\nfree_thresh: 200\n",
            "origin_x: 0.0\norigin_y: 0.0\n",
            "resolution 0.1\norigin_x: 0.0\norigin_y: 0.0\n",
        ],
        ids=["repeated-key", "unknown-key", "missing-key", "no-colon"],
    )
    def test_bad_costmap_meta_is_format_error(self, tmp_path, meta):
        save_map(gt_semantic_map(1), tmp_path / "m")
        (tmp_path / "m" / "costmap.meta").write_text(meta, encoding="utf-8")
        with pytest.raises(MapFormatError, match="costmap.meta"):
            load_map(tmp_path / "m")

    def test_newer_version_rejected(self, tmp_path):
        m = gt_semantic_map(1)
        save_map(m, tmp_path / "m")
        meta = json.loads((tmp_path / "m" / "meta.json").read_text())
        meta["version"] = 99
        (tmp_path / "m" / "meta.json").write_text(json.dumps(meta), encoding="utf-8")
        with pytest.raises(MapFormatError):
            load_map(tmp_path / "m")

    def test_cross_layer_tampering_rejected_on_load(self, tmp_path):
        m = gt_semantic_map(1)
        save_map(m, tmp_path / "m")
        doc = json.loads((tmp_path / "m" / "graph.json").read_text())
        doc["objects"][0]["position"] = [0.01, 0.01]  # unknown margin cell
        (tmp_path / "m" / "graph.json").write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(MapConsistencyError):
            load_map(tmp_path / "m")

    def test_load_reports_every_violation(self, tmp_path):
        m = gt_semantic_map(1)
        save_map(m, tmp_path / "m")
        path = tmp_path / "m" / "graph.json"
        doc = json.loads(path.read_text(encoding="utf-8"))
        for edge in doc["edges"]:
            edge["weight"] = -1.0
        for room in doc["rooms"]:
            room["attributes"] = ["bogus"]
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(MapConsistencyError) as info:
            load_map(tmp_path / "m")
        rules = [v.rule for v in info.value.violations]
        assert rules == ["edge-weight"] * len(doc["edges"]) + ["attributes-cache"] * len(
            doc["rooms"]
        )
        assert len(rules) > 5  # the message shows five; the list holds them all

    @pytest.mark.parametrize("key", ["rooms", "objects"])
    def test_id_listed_twice_is_format_error(self, key):
        doc = json.loads(graph_to_json(gt_semantic_map(1).graph))
        doc[key].append(dict(doc[key][0]))
        with pytest.raises(MapFormatError, match="listed more than once"):
            graph_from_json(json.dumps(doc))

    def test_loaded_graph_indexes_its_edges(self, tmp_path):
        m = gt_semantic_map(1)
        save_map(m, tmp_path / "m")
        graph = load_map(tmp_path / "m").graph
        assert graph.room_edges
        for e in graph.room_edges:
            assert graph.get_edge(e.room_b, e.room_a) is e

    def test_graph_json_schema_shape(self):
        m = fig_office_map()
        doc = json.loads(graph_to_json(m.graph))
        assert set(doc) == {"version", "rooms", "objects", "edges"}
        room = doc["rooms"][0]
        assert set(room) == {"id", "category", "centroid", "cell_count", "attributes"}
        obj = doc["objects"][0]
        assert set(obj) == {"id", "class", "position", "room"}
        edge = doc["edges"][0]
        assert set(edge) == {"a", "b", "weight", "portal"}
        assert graph_from_json(graph_to_json(m.graph)) == m.graph


class TestValidation:
    def test_consistent_map_validates_clean(self, gt_map, built_map):
        assert validate_semantic_map(gt_map) == []
        assert validate_semantic_map(built_map) == []

    def test_dim_mismatch_detected(self, gt_map):
        other = strip_map(rooms=[("a", "x")])
        franken = SemanticMap(
            costmap=gt_map.costmap,
            raster=other.raster,
            graph=gt_map.graph,
            room_labels=gt_map.room_labels,
            meta=gt_map.meta,
        )
        assert any(v.rule == "layer-dims" for v in validate_semantic_map(franken))

    def test_save_refuses_inconsistent_map(self, gt_map, tmp_path):
        bad_graph = gt_map.graph.copy()
        victim = sorted(bad_graph.rooms)[0]
        del bad_graph.rooms[victim]
        franken = SemanticMap(
            costmap=gt_map.costmap,
            raster=gt_map.raster,
            graph=bad_graph,
            room_labels=gt_map.room_labels,
            meta=gt_map.meta,
        )
        with pytest.raises(MapConsistencyError):
            save_map(franken, tmp_path / "m")

    def test_label_map_mismatch_detected(self, gt_map):
        labels = dict(gt_map.room_labels)
        labels[max(labels) + 1] = "phantom_room"
        franken = SemanticMap(
            costmap=gt_map.costmap,
            raster=gt_map.raster,
            graph=gt_map.graph,
            room_labels=labels,
            meta=gt_map.meta,
        )
        rules = {v.rule for v in validate_semantic_map(franken)}
        assert "label-map" in rules

    @staticmethod
    def _relabel(m, cell, label):
        labels = m.raster.labels.copy()
        labels[cell] = label
        raster = RoomLabelRaster(width=m.raster.width, height=m.raster.height, labels=labels)
        return SemanticMap(
            costmap=m.costmap, raster=raster, graph=m.graph,
            room_labels=m.room_labels, meta=m.meta,
        )

    def test_far_split_room_reports_component_count(self, gt_map):
        rows, cols = np.nonzero(gt_map.raster.labels)
        first = (rows[0], cols[0])
        last = (rows[-1], cols[-1])
        label = int(gt_map.raster.labels[first])
        assert int(gt_map.raster.labels[last]) != label
        franken = self._relabel(gt_map, last, label)
        assert validate_semantic_map(franken) == [
            Violation(
                f"label {label}",
                "room-connected",
                "room region splits into 2 4-connected components",
            )
        ]

    def test_centroid_outside_grid_reported(self, gt_map):
        graph = gt_map.graph.copy()
        room = next(iter(graph.rooms.values()))
        room.centroid = MetricPoint(-5.0, -5.0)
        franken = dataclasses.replace(gt_map, graph=graph)
        assert validate_semantic_map(franken) == [
            Violation(room.id, "centroid-in-room", "centroid outside grid")
        ]

    def test_object_outside_grid_reported(self, gt_map):
        graph = gt_map.graph.copy()
        obj = next(iter(graph.objects.values()))
        obj.position = MetricPoint(1e6, 2.0)
        franken = dataclasses.replace(gt_map, graph=graph)
        assert validate_semantic_map(franken) == [
            Violation(obj.id, "object-in-room", "position outside grid")
        ]

    def test_unmapped_raster_label_reported(self, gt_map):
        rows, cols = np.nonzero(gt_map.raster.labels)
        label = max(gt_map.room_labels) + 3
        franken = self._relabel(gt_map, (rows[-1], cols[-1]), label)
        assert validate_semantic_map(franken) == [
            Violation(f"label {label}", "label-map", "raster label has no room id")
        ]


def _cells(data, n, n_values):
    return data.draw(st.lists(st.integers(0, n_values), min_size=n, max_size=n))


def _blocky(shape, n_values, data):
    """A random coarse array with each cell scaled up to a block, cropped to shape."""
    h, w = shape
    ch, cw = data.draw(st.integers(1, h)), data.draw(st.integers(1, w))
    coarse = np.array(_cells(data, ch * cw, n_values)).reshape(ch, cw)
    return np.kron(coarse, np.ones((-(-h // ch), -(-w // cw)), dtype=int))[:h, :w]


class TestRectRuns:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_cell_by_cell_oracle(self, data):
        shape = data.draw(
            st.one_of(
                st.tuples(st.integers(1, 12), st.integers(1, 12)),
                st.tuples(st.just(1), st.integers(1, 40)),
                st.tuples(st.integers(1, 40), st.just(1)),
            )
        )
        n_values = data.draw(st.integers(1, 4))
        layout = data.draw(st.sampled_from(["zero", "full", "noisy", "blocky"]))
        if layout == "zero":
            values = np.zeros(shape, dtype=np.int32)
        elif layout == "full":
            values = np.full(shape, n_values, dtype=np.int32)
        elif layout == "noisy":
            values = np.array(_cells(data, shape[0] * shape[1], n_values)).reshape(shape)
        else:
            values = _blocky(shape, n_values, data)
        assert list(mapio._rect_runs(values)) == list(brute_rect_runs(values))

    def test_svg_bytes_equal_oracle_render(self, gt_map, monkeypatch):
        rooms = sorted(gt_map.graph.rooms)
        out = plan(gt_map, PlanRequest(start=rooms[0], goal=GoalQuery(rooms[-1]),
                                       refine_metric=True))
        fast = render_svg(gt_map, out.result).encode()
        monkeypatch.setattr(mapio, "_rect_runs", brute_rect_runs)
        assert render_svg(gt_map, out.result).encode() == fast


class TestRenderSvg:
    def test_one_region_group_per_room(self, gt_map):
        svg = render_svg(gt_map)
        assert svg.count('<g class="room">') == len(gt_map.graph.rooms)
        assert svg.count("<polyline") == 0
        assert svg.startswith('<?xml version="1.0"')
        assert svg.rstrip().endswith("</svg>")

    def test_path_renders_exactly_one_polyline(self, gt_map):
        rooms = sorted(gt_map.graph.rooms)
        out = plan(gt_map, PlanRequest(start=rooms[0], goal=GoalQuery(rooms[-1]),
                                       refine_metric=True))
        svg = render_svg(gt_map, out.result)
        assert svg.count("<polyline") == 1
        assert 'class="start"' in svg and 'class="goal"' in svg

    def test_unrefined_path_uses_node_waypoints(self, gt_map):
        rooms = sorted(gt_map.graph.rooms)
        out = plan(gt_map, PlanRequest(start=rooms[0], goal=GoalQuery(rooms[-1])))
        svg = render_svg(gt_map, out.result)
        assert svg.count("<polyline") == 1

    def test_byte_identical_renders(self, gt_map):
        rooms = sorted(gt_map.graph.rooms)
        out = plan(gt_map, PlanRequest(start=rooms[0], goal=GoalQuery(rooms[-1])))
        a = render_svg(gt_map, out.result)
        b = render_svg(gt_map, out.result)
        assert a == b
        assert a.encode() == b.encode()

    def test_render_reflects_object_labels(self, gt_map):
        svg = render_svg(gt_map)
        for obj in gt_map.graph.objects.values():
            assert obj.class_label in svg

    def test_room_mapped_to_label_zero_draws_no_fill(self, gt_map):
        # load_map refuses such a map; render_svg draws the room's group
        # without fill rectangles, as label 0 marks no room's cells
        zero_id = gt_map.room_labels[1]
        labels = {k: v for k, v in gt_map.room_labels.items() if k != 1}
        svg = render_svg(dataclasses.replace(gt_map, room_labels={0: zero_id, **labels}))
        groups = {
            g.split("</title>")[0]: g.count("<rect")
            for g in svg.split('<g class="room"><title>')[1:]
        }
        assert groups[zero_id] == 0
        assert all(n > 0 for rid, n in groups.items() if rid != zero_id)

    def test_costmap_layer_draws_obstacles(self, gt_map):
        svg = render_svg(gt_map)
        assert '<g class="costmap">' in svg
        assert "#1a1a1a" in svg  # lethal walls present
        assert "#d9d9d9" in svg  # unknown margin present
