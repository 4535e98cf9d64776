import random

import pytest

from semnav.errors import ConflictError, ValidationError
from semnav.graph import (
    GoalQuery,
    GridIndex,
    ObjectNode,
    RoomEdge,
    RoomNode,
    SemanticGraph,
    assemble_graph,
    normalize_label,
)
from semnav.metric import MetricPoint


def room(rid, category="office"):
    return RoomNode(id=rid, category=category, centroid=MetricPoint(0.5, 0.5), cell_count=4)


def obj(oid, cls, rid):
    return ObjectNode(id=oid, class_label=cls, position=MetricPoint(0.5, 0.5), room_id=rid)


def edge(a, b, w=1.0):
    return RoomEdge(room_a=a, room_b=b, weight=w, portal=GridIndex(0, 0))


@pytest.fixture
def office_graph():
    g = SemanticGraph()
    g.add_room(room("office_1"))
    g.add_room(room("office_3"))
    g.add_room(room("corridor_1", "corridor"))
    g.add_object(obj("desk_1", "desk", "office_1"))
    g.add_object(obj("desk_2", "desk", "office_3"))
    g.add_object(obj("bookcase_1", "bookcase", "office_1"))
    g.add_room_edge(edge("office_1", "corridor_1"))
    g.add_room_edge(edge("office_3", "corridor_1"))
    return g


class TestMutation:
    def test_attributes_cache_tracks_objects(self, office_graph):
        assert office_graph.rooms["office_1"].attributes == ["bookcase", "desk"]
        assert office_graph.rooms["office_3"].attributes == ["desk"]

    def test_duplicate_node_id_conflicts(self, office_graph):
        with pytest.raises(ConflictError):
            office_graph.add_room(room("office_1"))
        with pytest.raises(ConflictError):
            office_graph.add_object(obj("desk_1", "desk", "office_1"))
        with pytest.raises(ConflictError):
            office_graph.add_room(room("desk_1"))  # ids are shared across node types

    def test_self_loop_rejected(self, office_graph):
        with pytest.raises(ValidationError):
            office_graph.add_room_edge(edge("office_1", "office_1"))

    def test_dangling_references_rejected(self, office_graph):
        with pytest.raises(ValidationError):
            office_graph.add_object(obj("chair_1", "chair", "office_9"))
        with pytest.raises(ValidationError):
            office_graph.add_room_edge(edge("office_1", "office_9"))

    def test_duplicate_edge_rejected_either_direction(self, office_graph):
        with pytest.raises(ConflictError):
            office_graph.add_room_edge(edge("corridor_1", "office_1"))

    def test_negative_weight_rejected(self, office_graph):
        office_graph.add_room(room("office_5"))
        with pytest.raises(ValidationError):
            office_graph.add_room_edge(edge("office_5", "corridor_1", -2.0))

    @pytest.mark.parametrize("weight", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_weight_rejected(self, office_graph, weight):
        office_graph.add_room(room("office_5"))
        with pytest.raises(ValidationError, match="finite"):
            office_graph.add_room_edge(edge("office_5", "corridor_1", weight))
        assert office_graph.get_edge("office_5", "corridor_1") is None

    def test_frozen_graph_rejects_mutation(self, office_graph):
        office_graph.freeze()
        with pytest.raises(ValidationError):
            office_graph.add_room(room("office_7"))

    def test_neighbors_sorted_and_symmetric(self, office_graph):
        office_graph.freeze()
        assert office_graph.neighbors("corridor_1") == [("office_1", 1.0), ("office_3", 1.0)]
        assert office_graph.neighbors("office_1") == [("corridor_1", 1.0)]

    def test_unfrozen_graph_refuses_neighbor_queries(self, office_graph):
        with pytest.raises(ValidationError):
            office_graph.neighbors("corridor_1")

    def test_random_insertion_sequences_stay_valid(self):
        rng = random.Random(2024)
        for trial in range(10):
            g = SemanticGraph()
            rooms, objects, edges = [], 0, set()
            for i in range(100):
                op = rng.random()
                if op < 0.3 or not rooms:
                    rid = f"room_{trial}_{len(rooms)}"
                    g.add_room(room(rid, rng.choice(["office", "kitchen", "corridor"])))
                    rooms.append(rid)
                elif op < 0.7:
                    objects += 1
                    g.add_object(
                        obj(f"obj_{trial}_{objects}", rng.choice(["desk", "chair", "mug"]),
                            rng.choice(rooms))
                    )
                elif len(rooms) >= 2:
                    a, b = rng.sample(rooms, 2)
                    key = (min(a, b), max(a, b))
                    if key not in edges:
                        edges.add(key)
                        g.add_room_edge(edge(a, b, rng.uniform(0.1, 5.0)))
            assert g.validate() == []


class TestGoalState:
    def test_object_class_query_finds_all_instances(self, office_graph):
        state = office_graph.find_goal_state(GoalQuery("desk"))
        assert state.nodes == ("desk_1", "desk_2")

    def test_absent_class_yields_empty_state(self, office_graph):
        state = office_graph.find_goal_state(GoalQuery("unicorn"))
        assert state.empty and len(state) == 0

    def test_room_category_query_finds_all_rooms(self, office_graph):
        state = office_graph.find_goal_state(GoalQuery("office"))
        assert state.nodes == ("office_1", "office_3")

    def test_node_id_query_is_singleton(self, office_graph):
        assert office_graph.find_goal_state(GoalQuery("office_3")).nodes == ("office_3",)
        assert office_graph.find_goal_state(GoalQuery("desk_2")).nodes == ("desk_2",)

    def test_node_id_outranks_class_and_category(self, office_graph):
        office_graph.add_room(room("desk", "storage"))
        assert office_graph.find_goal_state(GoalQuery("desk")).nodes == ("desk",)
        # category still outranks object class
        office_graph.add_object(obj("office_prop", "office", "office_1"))
        assert office_graph.find_goal_state(GoalQuery("office")).nodes == ("office_1", "office_3")

    def test_matching_normalizes_case_and_spaces(self, office_graph):
        assert office_graph.find_goal_state(GoalQuery("DESK")).nodes == ("desk_1", "desk_2")
        office_graph.add_room(room("conf_1", "conference_room"))
        assert office_graph.find_goal_state(GoalQuery("Conference Room")).nodes == ("conf_1",)
        assert normalize_label("Conference Room") == "conference_room"

    def test_insertion_is_monotone_for_unrelated_queries(self):
        rng = random.Random(7)
        g = SemanticGraph()
        g.add_room(room("office_1"))
        g.add_object(obj("desk_1", "desk", "office_1"))
        queries = [GoalQuery("desk"), GoalQuery("office"), GoalQuery("office_1")]
        before = {q.text: g.find_goal_state(q).nodes for q in queries}
        for i in range(30):
            if rng.random() < 0.5:
                g.add_room(room(f"extra_room_{i}", "lab"))
            else:
                g.add_object(obj(f"extra_obj_{i}", "widget", "office_1"))
        after = {q.text: g.find_goal_state(q).nodes for q in queries}
        for text, nodes in before.items():
            assert set(nodes) <= set(after[text])


class TestValidate:
    def test_empty_graph_has_no_violations(self):
        assert SemanticGraph().validate() == []

    def test_consistent_graph_has_no_violations(self, office_graph):
        assert office_graph.validate() == []

    def test_object_pointing_at_deleted_room(self, office_graph):
        g = office_graph.copy()
        del g.rooms["office_3"]
        violations = g.validate()
        assert violations
        assert any("office_3" in v.detail or "desk_2" in v.subject for v in violations)

    def test_stale_attribute_cache_detected(self, office_graph):
        g = office_graph.copy()
        g.rooms["office_1"].attributes.append("phantom")
        assert any(v.rule == "attributes-cache" for v in g.validate())

    def test_duplicate_containment_detected(self, office_graph):
        g = office_graph.copy()
        g.containment.append(g.containment[0])
        assert any(v.rule == "containment-function" for v in g.validate())

    @pytest.mark.parametrize("oid", ["", "My Desk", "Desk_1", " desk_1"])
    def test_unnormalized_id_detected(self, office_graph, oid):
        g = office_graph.copy()
        g.add_object(obj(oid, "desk", "office_3"))
        assert [v.rule for v in g.validate()] == ["normalized-id"]

    def test_fuzzed_corruptions_each_violate(self, office_graph):
        from mutations import corrupt_graph

        rng = random.Random(11)
        for _ in range(50):
            g = office_graph.copy()
            corrupt_graph(g, rng)
            assert g.validate(), "corruption escaped validation"


class TestEquality:
    def test_copy_equals_original(self, office_graph):
        assert office_graph.copy() == office_graph

    def test_weight_change_breaks_equality(self, office_graph):
        g = office_graph.copy()
        g.room_edges[0].weight += 1e-12
        assert g != office_graph


P = MetricPoint(0.5, 0.5)


def assemble(categories, objects, edges=()):
    return assemble_graph([(c, P, 4) for c in categories], objects, list(edges))


class TestAssembleGraph:
    def test_counters_run_per_prefix(self):
        g, ids = assemble(
            ["office", "kitchen", "office"],
            [(2, "desk", P, None), (0, "desk", P, None), (1, "sink", P, None)],
        )
        assert ids == ["office_1", "kitchen_1", "office_2"]
        # objects are numbered by room index, then input order
        assert list(g.objects) == ["desk_1", "sink_1", "desk_2"]
        assert g.objects["desk_1"].room_id == "office_1"
        assert g.objects["desk_2"].room_id == "office_2"

    def test_uncategorized_rooms_are_room_n(self):
        _, ids = assemble(["uncategorized", "office", "uncategorized"], [])
        assert ids == ["room_1", "office_1", "room_2"]

    def test_edges_join_rooms_by_index(self):
        g, ids = assemble(["office", "corridor"], [], [(0, 1, 2.5, GridIndex(3, 4))])
        assert g.room_edges == [RoomEdge("office_1", "corridor_1", 2.5, GridIndex(3, 4))]
        assert g.neighbors("corridor_1") == [("office_1", 2.5)]

    def test_minted_object_skips_room_ids(self):
        g, ids = assemble(["office"], [(0, "office", P, None), (0, "desk", P, None)])
        assert ids == ["office_1"]
        assert sorted(g.objects) == ["desk_1", "office_2"]

    def test_minted_ids_skip_supplied_ids(self):
        g, ids = assemble(
            ["office", "office"],
            [(0, "desk", P, None), (1, "desk", P, "desk_1"), (0, "desk", P, "office_2")],
        )
        assert ids == ["office_1", "office_3"]
        assert g.objects["desk_2"].room_id == "office_1"
        assert g.objects["desk_1"].room_id == "office_3"
        assert g.objects["office_2"].class_label == "desk"

    def test_supplied_ids_and_classes_are_normalized(self):
        g, _ = assemble(["office"], [(0, "Coffee Table", P, " My Desk ")])
        assert list(g.objects) == ["my_desk"]
        assert g.objects["my_desk"].class_label == "coffee_table"
        assert g.rooms["office_1"].attributes == ["coffee_table"]
        assert g.find_goal_state(GoalQuery("My Desk")).nodes == ("my_desk",)
