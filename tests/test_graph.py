import random

import pytest
from hypothesis import given, settings, strategies as st

from semnav import graph as graph_module
from semnav.errors import ConflictError
from semnav.graph import (
    GoalQuery,
    GridIndex,
    ObjectNode,
    RoomEdge,
    RoomNode,
    SemanticGraph,
    Violation,
    assemble_graph,
    normalize_label,
)
from semnav.metric import MetricPoint

from oracles import brute_goal_state


P = MetricPoint(0.5, 0.5)


def room(rid, category="office", attributes=()):
    return RoomNode(
        id=rid,
        category=category,
        centroid=P,
        cell_count=4,
        attributes=list(attributes),
    )


def obj(oid, cls, rid):
    return ObjectNode(id=oid, class_label=cls, position=P, room_id=rid)


def edge(a, b, w=1.0):
    return RoomEdge(room_a=a, room_b=b, weight=w, portal=GridIndex(0, 0))


def office(rooms=(), objects=(), edges=()):
    """Two offices off a corridor, desks in both, plus the given extra parts."""
    return SemanticGraph(
        [
            room("office_1", attributes=["bookcase", "desk"]),
            room("office_3", attributes=["desk"]),
            room("corridor_1", "corridor"),
            *rooms,
        ],
        [
            obj("desk_1", "desk", "office_1"),
            obj("desk_2", "desk", "office_3"),
            obj("bookcase_1", "bookcase", "office_1"),
            *objects,
        ],
        [edge("office_1", "corridor_1"), edge("office_3", "corridor_1"), *edges],
    )


@pytest.fixture
def office_graph():
    return office()


class TestConstructor:
    def test_duplicate_node_id_conflicts(self):
        with pytest.raises(ConflictError, match="'office_1' listed more than once"):
            office(rooms=[room("office_1")])
        with pytest.raises(ConflictError, match="'desk_1' listed more than once"):
            office(objects=[obj("desk_1", "desk", "office_1")])

    @pytest.mark.parametrize(
        "parts, rules",
        [
            ({"edges": [edge("office_1", "office_1")]}, ["no-self-loop"]),
            ({"edges": [edge("office_1", "office_9")]}, ["dangling-edge"]),
            ({"objects": [obj("chair_1", "chair", "office_9")]}, ["dangling-room-ref"]),
            ({"edges": [edge("office_1", "office_3", -2.0)]}, ["edge-weight"]),
            ({"edges": [edge("office_1", "office_3", float("nan"))]}, ["edge-weight"]),
            ({"edges": [edge("office_1", "office_3", float("inf"))]}, ["edge-weight"]),
            ({"edges": [edge("office_1", "corridor_1", 2.0)]}, ["duplicate-edge"]),
            ({"edges": [edge("corridor_1", "office_1")]}, ["duplicate-edge"]),
            ({"rooms": [room("desk_1")]}, ["unique-id"]),
        ],
        ids=[
            "self-loop",
            "edge-unknown-room",
            "object-unknown-room",
            "negative-weight",
            "nan-weight",
            "inf-weight",
            "duplicate-edge",
            "reversed-duplicate-edge",
            "room-id-is-object-id",
        ],
    )
    def test_each_broken_invariant_is_left_to_validate(self, parts, rules):
        assert [v.rule for v in office(**parts).validate()] == rules

    def test_neighbors_sorted_and_symmetric(self):
        g = SemanticGraph(
            [room("office_1"), room("office_3"), room("corridor_1", "corridor")],
            edges=[edge("office_3", "corridor_1", 0.5), edge("corridor_1", "office_1", 2.0)],
        )
        assert g.neighbors("corridor_1") == [("office_1", 2.0), ("office_3", 0.5)]
        assert g.neighbors("office_1") == [("corridor_1", 2.0)]
        assert g.neighbors("office_3") == [("corridor_1", 0.5)]

    def test_random_assembled_graphs_stay_valid(self):
        rng = random.Random(2024)
        for _ in range(10):
            n = rng.randint(1, 12)
            categories = [
                rng.choice(["office", "kitchen", "corridor", "uncategorized"]) for _ in range(n)
            ]
            # supplied ids, some equal to a minted id once normalized
            supplied = iter(rng.sample(["my_desk", "Office 2", "desk_1", "room_1"], 4))
            objects = [
                (
                    rng.randrange(n),
                    rng.choice(["desk", "Chair", "mug"]),
                    P,
                    next(supplied, None) if rng.random() < 0.2 else None,
                )
                for _ in range(rng.randint(0, 30))
            ]
            pairs = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(n)} if n > 1 else set()
            edges = [(a, b, rng.uniform(0.1, 5.0), GridIndex(0, 0)) for a, b in sorted(pairs)]
            g, _ = assemble_graph([(c, P, 4) for c in categories], objects, edges)
            assert g.validate() == []


class TestGoalLookup:
    def test_object_class_query_finds_all_instances(self, office_graph):
        assert office_graph.find_goal_state(GoalQuery("desk")) == ("desk_1", "desk_2")

    def test_absent_class_yields_no_nodes(self, office_graph):
        assert office_graph.find_goal_state(GoalQuery("unicorn")) == ()

    def test_room_category_query_finds_all_rooms(self, office_graph):
        assert office_graph.find_goal_state(GoalQuery("office")) == ("office_1", "office_3")

    def test_node_id_query_is_singleton(self, office_graph):
        assert office_graph.find_goal_state(GoalQuery("office_3")) == ("office_3",)
        assert office_graph.find_goal_state(GoalQuery("desk_2")) == ("desk_2",)

    def test_node_id_outranks_class_and_category(self):
        g = office(rooms=[room("desk", "storage")])
        assert g.find_goal_state(GoalQuery("desk")) == ("desk",)
        # category still outranks object class
        g = office(objects=[obj("office_prop", "office", "office_1")])
        assert g.find_goal_state(GoalQuery("office")) == ("office_1", "office_3")

    def test_matching_normalizes_case_and_spaces(self):
        g = office(rooms=[room("conf_1", "conference_room")])
        assert g.find_goal_state(GoalQuery("DESK")) == ("desk_1", "desk_2")
        assert g.find_goal_state(GoalQuery("Conference Room")) == ("conf_1",)
        assert normalize_label("Conference Room") == "conference_room"

    def test_added_nodes_keep_unrelated_matches(self):
        rng = random.Random(7)
        queries = [GoalQuery("desk"), GoalQuery("office"), GoalQuery("office_1")]
        base = SemanticGraph([room("office_1")], [obj("desk_1", "desk", "office_1")])
        before = {q.text: base.find_goal_state(q) for q in queries}
        extra_rooms, extra_objects = [], []
        for i in range(30):
            if rng.random() < 0.5:
                extra_rooms.append(room(f"extra_room_{i}", "lab"))
            else:
                extra_objects.append(obj(f"extra_obj_{i}", "widget", "office_1"))
        grown = SemanticGraph(
            [room("office_1"), *extra_rooms], [obj("desk_1", "desk", "office_1"), *extra_objects]
        )
        for q in queries:
            assert set(before[q.text]) <= set(grown.find_goal_state(q))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_lookup_equals_scan_over_nodes(self, data):
        g = data.draw(_goal_graphs())
        texts = data.draw(st.lists(_goal_texts, max_size=6))
        # every label and id the graph holds, as written and normalised
        for node in [*g.rooms.values(), *g.objects.values()]:
            label = node.category if isinstance(node, RoomNode) else node.class_label
            texts += [label, normalize_label(label), node.id]
        for text in texts:
            q = GoalQuery(text)
            assert g.find_goal_state(q) == brute_goal_state(g, q), text

    def test_lookup_normalizes_the_goal_once(self, office_graph, monkeypatch):
        calls = []
        real = graph_module.normalize_label
        monkeypatch.setattr(graph_module, "normalize_label", lambda t: calls.append(t) or real(t))
        for text in ["desk", " Office ", "office_3", "unicorn", ""]:
            calls.clear()
            office_graph.find_goal_state(GoalQuery(text))
            assert calls == [text]

    def test_copy_and_rebuild_answer_alike(self):
        g = office(rooms=[room("conf_1", "Conference Room"), room("desk", "storage")])
        rebuilt = SemanticGraph(g.rooms.values(), g.objects.values(), g.room_edges)
        for text in ["desk", "DESK", "office", "conference room", "bookcase_1", "unicorn", ""]:
            q = GoalQuery(text)
            assert g.copy().find_goal_state(q) == rebuilt.find_goal_state(q) == g.find_goal_state(q)


_WORDS = ["desk", "office", "conference room", "kitchen"]
_cased_words = st.sampled_from(_WORDS).flatmap(lambda w: st.sampled_from([w, w.upper(), w.title()]))
# mixed case, doubled inner spaces and surrounding whitespace around a few words
_labels = st.builds(
    lambda lead, words, sep, trail: lead + sep.join(words) + trail,
    st.sampled_from(["", " ", "\t"]),
    st.lists(_cased_words, min_size=1, max_size=2),
    st.sampled_from([" ", "  "]),
    st.sampled_from(["", "  ", "\n"]),
)
# ids: numbered, or equal to a normalised category or class
_ids = st.one_of(
    st.builds(lambda w, n: f"{normalize_label(w)}_{n}", st.sampled_from(_WORDS), st.integers(1, 3)),
    _labels.map(normalize_label),
)
_goal_texts = st.one_of(_labels, _ids, st.sampled_from(["", "   ", "unicorn", "Desk_1"]))


@st.composite
def _goal_graphs(draw):
    rooms = draw(st.lists(st.tuples(_ids, _labels), max_size=6, unique_by=lambda r: r[0]))
    objects = draw(st.lists(st.tuples(_ids, _labels), max_size=8, unique_by=lambda o: o[0]))
    room_ids = [rid for rid, _ in rooms] or ["office_1"]
    return SemanticGraph(
        [room(rid, category) for rid, category in rooms],
        [obj(oid, cls, draw(st.sampled_from(room_ids))) for oid, cls in objects],
    )


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

    def test_stale_attribute_caches_reported_in_room_order(self, office_graph):
        office_graph.rooms["corridor_1"].attributes = ["mug"]
        office_graph.rooms["office_1"].attributes = ["desk"]
        assert office_graph.validate() == [
            Violation(
                "office_1", "attributes-cache", "cached ['desk'] != derived ['bookcase', 'desk']"
            ),
            Violation("corridor_1", "attributes-cache", "cached ['mug'] != derived []"),
        ]

    @pytest.mark.parametrize("oid", ["", "My Desk", "Desk_1", " desk_1"])
    def test_unnormalized_id_detected(self, office_graph, oid):
        g = office(objects=[obj(oid, "desk", "office_3")])
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
        assert g.find_goal_state(GoalQuery("My Desk")) == ("my_desk",)
