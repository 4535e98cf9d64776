import math
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from semnav.discovery import CooccurrenceTable, DiscoveryResponse, HttpOracle, MockOracle
from semnav import planner
from semnav.errors import (
    MapConsistencyError,
    OracleParseError,
    UnrealizableRouteError,
    ValidationError,
)
from semnav.graph import GoalQuery, SemanticGraph
from semnav.mapio import assemble_map
from semnav.metric import GridIndex, MetricPoint, grid_shortest_path
from semnav.planner import (
    FAIL_DISCOVERY,
    FAIL_INVALID_GOAL,
    FAIL_INVALID_START,
    FAIL_NO_METRIC_ROUTE,
    FAIL_NO_ROUTE,
    MODE_DISCOVERY,
    MODE_MULTI_TARGET,
    MODE_TARGETED,
    PlanRequest,
    SemanticPath,
    dijkstra,
    plan,
    refine_to_metric,
)

from mapfactory import (
    BLOCK,
    adjacency_dict,
    fig_office_map,
    graph_from_edges,
    random_graph_edges,
    strip_map,
)
from oracles import enumerate_min_cost, per_cell_refine


@pytest.fixture
def fig_map():
    return fig_office_map()


class TestDijkstra:
    def test_same_room_goal_is_trivial(self, fig_map):
        path = dijkstra(fig_map.graph, "office_1", "office_1")
        assert path.nodes == ("office_1",)
        assert path.graph_cost == 0.0

    def test_object_goal_in_same_room_appends_leaf(self, fig_map):
        path = dijkstra(fig_map.graph, "office_1", "bookcase_1")
        assert path.nodes == ("office_1", "bookcase_1")
        assert path.graph_cost == 0.0

    def test_office_to_office_traverses_corridor(self, fig_map):
        path = dijkstra(fig_map.graph, "office_1", "desk_1")
        assert path.nodes == ("office_1", "corridor_1", "office_3", "desk_1")
        assert path.graph_cost == 7.0

    def test_unreachable_goal_returns_none(self):
        m = strip_map(
            rooms=[("a", "x"), ("b", "x"), ("c", "x")],
            edges=[("a", "b", 1.0)],
        )
        assert dijkstra(m.graph, "a", "c") is None

    def test_unknown_nodes_rejected(self, fig_map):
        with pytest.raises(ValidationError):
            dijkstra(fig_map.graph, "nowhere", "desk_1")
        with pytest.raises(ValidationError):
            dijkstra(fig_map.graph, "office_1", "nothing")

    def test_equal_cost_tie_breaks_lexicographically(self):
        m = strip_map(
            rooms=[("a", "x"), ("m", "x"), ("z", "x"), ("goal", "x")],
            edges=[
                ("a", "m", 1.0),
                ("a", "z", 1.0),
                ("m", "goal", 1.0),
                ("z", "goal", 1.0),
            ],
        )
        path = dijkstra(m.graph, "a", "goal")
        assert path.nodes == ("a", "m", "goal")

    def test_matches_exhaustive_enumeration_on_random_graphs(self):
        rng = random.Random(505)
        for _ in range(50):
            ids, edges = random_graph_edges(rng, rng.randint(2, 10))
            graph = graph_from_edges(ids, edges)
            adj = adjacency_dict(edges)
            start, goal = rng.sample(ids, 2)
            expected = enumerate_min_cost(adj, start, goal)
            got = dijkstra(graph, start, goal)
            assert (got.graph_cost if got else None) == expected


@st.composite
def goal_searches(draw):
    """A start room and goals on a small graph of zero and tied integer weights.

    Goals repeat and may include the start room; one room always holds two
    desks, and one or two rooms have no edges.
    """
    linked = [f"r{i}" for i in range(draw(st.integers(1, 6)))]
    pairs = [(a, b) for i, a in enumerate(linked) for b in linked[i + 1 :]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = [(a, b, float(draw(st.integers(0, 3)))) for a, b in chosen]
    rooms = linked + [f"z{i}" for i in range(draw(st.integers(1, 2)))]
    holders = draw(st.lists(st.sampled_from(rooms), min_size=1, max_size=4))
    objects = [(f"desk_{i}", "desk", rid) for i, rid in enumerate(holders[:1] + holders)]
    m = strip_map(rooms=[(rid, "x") for rid in rooms], objects=objects, edges=edges)
    nodes = rooms + [oid for oid, _, _ in objects]
    goals = draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=6))
    return m.graph, draw(st.sampled_from(linked)), goals


class TestEarlyStop:
    @settings(max_examples=300, deadline=None)
    @given(goal_searches())
    def test_many_goals_equal_the_argmin_of_single_goal_searches(self, case):
        graph, start, goals = case
        singles = [dijkstra(graph, start, goal) for goal in goals]
        expected = min(
            (p for p in singles if p is not None), key=lambda p: p.graph_cost, default=None
        )
        assert dijkstra(graph, start, *goals) == expected

    def test_no_room_costing_more_than_the_result_is_expanded(self):
        rng = random.Random(3034)
        for _ in range(100):
            ids, edges = random_graph_edges(rng, rng.randint(3, 10))
            edges = [(a, b, float(rng.randint(0, 3))) for a, b, _ in edges]
            graph = graph_from_edges(ids, edges)
            start = rng.choice(ids)
            cost_of = {rid: dijkstra(graph, start, rid).graph_cost for rid in ids}
            expanded = []

            def spy(room, neighbors=graph.neighbors):
                expanded.append(room)
                return neighbors(room)

            graph.neighbors = spy
            best = dijkstra(graph, start, *rng.sample(ids, rng.randint(2, len(ids))))
            assert max(cost_of[room] for room in expanded) <= best.graph_cost


class TestPlanDispatch:
    def test_empty_goal_state_uses_discovery_mode(self, fig_map):
        table = CooccurrenceTable(entries={("coffee_machine", "corridor"): 1.0})
        out = plan(
            fig_map,
            PlanRequest(start="office_1", goal=GoalQuery("coffee_machine")),
            MockOracle(table),
        )
        assert out.ok and out.result.mode == MODE_DISCOVERY
        assert out.result.nodes == ("office_1", "corridor_1")

    def test_singleton_goal_state_uses_targeted_mode(self, fig_map):
        out = plan(fig_map, PlanRequest(start="office_1", goal=GoalQuery("office_3")))
        assert out.ok and out.result.mode == MODE_TARGETED
        assert out.result.nodes == ("office_1", "corridor_1", "office_3")

    def test_multiple_goal_state_uses_multi_target_mode(self):
        m = strip_map(
            rooms=[("start", "x"), ("near", "x"), ("far", "x")],
            objects=[("desk_1", "desk", "near"), ("desk_2", "desk", "far")],
            edges=[("start", "near", 2.0), ("start", "far", 9.0)],
        )
        out = plan(m, PlanRequest(start="start", goal=GoalQuery("desk")))
        assert out.ok and out.result.mode == MODE_MULTI_TARGET
        assert out.result.nodes == ("start", "near", "desk_1")
        assert out.result.graph_cost == 2.0

    def test_multi_target_skips_unreachable_candidates(self):
        m = strip_map(
            rooms=[("start", "x"), ("near", "x"), ("island", "x")],
            objects=[("desk_1", "desk", "island"), ("desk_2", "desk", "near")],
            edges=[("start", "near", 5.0)],
        )
        out = plan(m, PlanRequest(start="start", goal=GoalQuery("desk")))
        assert out.ok
        assert out.result.nodes == ("start", "near", "desk_2")

    def test_all_candidates_unreachable_is_no_route(self):
        m = strip_map(
            rooms=[("start", "x"), ("island", "x")],
            objects=[("desk_1", "desk", "island"), ("desk_2", "desk", "island")],
            edges=[],
        )
        out = plan(m, PlanRequest(start="start", goal=GoalQuery("desk")))
        assert not out.ok and out.failure_reason == FAIL_NO_ROUTE

    def test_discovery_without_oracle_fails(self, fig_map):
        out = plan(fig_map, PlanRequest(start="office_1", goal=GoalQuery("unicorn")))
        assert not out.ok and out.failure_reason == FAIL_DISCOVERY

    def test_malformed_oracle_payload_is_discovery_failure(self, fig_map):
        class GarbledOracle:
            def rank(self, contexts, goal):
                raise OracleParseError("malformed oracle payload: missing 'ranked_rooms'")

        out = plan(
            fig_map, PlanRequest(start="office_1", goal=GoalQuery("unicorn")), GarbledOracle()
        )
        assert not out.ok and out.failure_reason == FAIL_DISCOVERY

    def test_oracle_breaking_the_response_contract_is_discovery_failure(self, fig_map):
        class RisingOracle:
            def rank(self, contexts, goal):
                rooms = [c.room_id for c in contexts]
                return DiscoveryResponse(ranked_rooms=((rooms[0], 0.1), (rooms[1], 0.9)))

        out = plan(
            fig_map, PlanRequest(start="office_1", goal=GoalQuery("unicorn")), RisingOracle()
        )
        assert not out.ok and out.failure_reason == FAIL_DISCOVERY

    def test_malformed_oracle_url_is_discovery_failure(self, fig_map):
        # the oracle rejects a URL with no scheme or host before it opens any connection
        oracle = HttpOracle(url="notaurl", retries=0)
        out = plan(fig_map, PlanRequest(start="office_1", goal=GoalQuery("unicorn")), oracle)
        assert not out.ok and out.failure_reason == FAIL_DISCOVERY

    def test_discovery_to_unreachable_room_is_no_route_without_retry(self):
        m = strip_map(
            rooms=[("start", "x"), ("island", "kitchen")],
            objects=[("sink_1", "sink", "island")],
            edges=[],
        )
        table = CooccurrenceTable(entries={("coffee_machine", "kitchen"): 1.0})
        out = plan(
            m, PlanRequest(start="start", goal=GoalQuery("coffee_machine")), MockOracle(table)
        )
        assert not out.ok and out.failure_reason == FAIL_NO_ROUTE

    def test_mode_dispatch_cardinalities(self):
        m = strip_map(
            rooms=[("start", "x"), ("r1", "x"), ("r2", "x"), ("r3", "x")],
            objects=[
                ("lamp_1", "lamp", "r1"),
                ("mug_1", "mug", "r1"),
                ("mug_2", "mug", "r2"),
                ("mug_3", "mug", "r3"),
            ],
            edges=[("r1", "start", 1.0), ("r2", "start", 2.0), ("r3", "start", 3.0)],
        )
        oracle = MockOracle(CooccurrenceTable())
        cases = {
            "ghost": MODE_DISCOVERY,  # |goal_state| = 0
            "lamp": MODE_TARGETED,  # |goal_state| = 1
            "mug": MODE_MULTI_TARGET,  # |goal_state| = 3
        }
        for goal, expected_mode in cases.items():
            out = plan(m, PlanRequest(start="start", goal=GoalQuery(goal)), oracle)
            assert out.ok and out.result.mode == expected_mode

    def test_nearest_of_two_desks_wins(self):
        m = strip_map(
            rooms=[("start", "x"), ("a", "x"), ("b", "x")],
            objects=[("desk_1", "desk", "a"), ("desk_2", "desk", "b")],
            edges=[("a", "start", 4.0), ("b", "start", 3.0)],
        )
        out = plan(m, PlanRequest(start="start", goal=GoalQuery("desk")))
        assert out.result.nodes[-1] == "desk_2"
        assert out.result.graph_cost == 3.0


class TestStartResolution:
    def test_start_as_object_id(self, fig_map):
        out = plan(fig_map, PlanRequest(start="bookcase_1", goal=GoalQuery("desk")))
        assert out.ok
        assert out.result.nodes == ("office_1", "corridor_1", "office_3", "desk_1")

    def test_start_as_metric_point(self, fig_map):
        # block 0 spans x in [0,4): office_1
        out = plan(fig_map, PlanRequest(start=MetricPoint(1.2, 1.2), goal=GoalQuery("desk")))
        assert out.ok and out.result.nodes[0] == "office_1"

    def test_unknown_start_id_invalid(self, fig_map):
        out = plan(fig_map, PlanRequest(start="elsewhere", goal=GoalQuery("desk")))
        assert not out.ok and out.failure_reason == FAIL_INVALID_START

    def test_out_of_bounds_point_invalid(self, fig_map):
        out = plan(fig_map, PlanRequest(start=MetricPoint(-3.0, 0.5), goal=GoalQuery("desk")))
        assert not out.ok and out.failure_reason == FAIL_INVALID_START

    @pytest.mark.parametrize("x", [float("nan"), float("inf"), 1e308])
    def test_non_finite_point_invalid(self, fig_map, x):
        out = plan(fig_map, PlanRequest(start=MetricPoint(x, 1.0), goal=GoalQuery("desk")))
        assert not out.ok and out.failure_reason == FAIL_INVALID_START

    def test_unlabeled_cell_invalid_not_snapped(self, gt_map):
        # cell (0,0) is the unknown margin of generated maps
        out = plan(gt_map, PlanRequest(start=MetricPoint(0.01, 0.01), goal=GoalQuery("desk")))
        assert not out.ok and out.failure_reason == FAIL_INVALID_START


class TestGoalResolution:
    @pytest.mark.parametrize("goal", ["", "   ", GoalQuery(""), GoalQuery(" \t ")])
    @pytest.mark.parametrize("with_oracle", [False, True])
    def test_blank_goal_invalid(self, fig_map, goal, with_oracle):
        # the mock oracle would score every room 0 and fall back to the first room
        oracle = MockOracle(CooccurrenceTable(entries={})) if with_oracle else None
        out = plan(fig_map, PlanRequest(start="office_1", goal=goal), oracle)
        assert not out.ok and out.failure_reason == FAIL_INVALID_GOAL

    @pytest.mark.parametrize(
        "field, value",
        [
            pytest.param(field, value, id=f"{field}={value!r}")
            for field, values in (
                ("start", (None, 7, ("a", "b"), (1, 2, 3), b"office_1")),
                ("goal", (7, None, GoalQuery(None), GoalQuery(7))),
            )
            for value in values
        ],
    )
    def test_unreadable_start_or_goal_refused_not_raised(self, gt_map, field, value):
        request = PlanRequest(start=sorted(gt_map.graph.rooms)[0], goal="desk")
        out = plan(gt_map, replace(request, **{field: value}))
        reason = FAIL_INVALID_START if field == "start" else FAIL_INVALID_GOAL
        assert not out.ok and out.failure_reason == reason


class TestPlanProperties:
    def test_multi_target_cost_is_min_over_candidates(self):
        rng = random.Random(808)
        for _ in range(30):
            ids, edges = random_graph_edges(rng, rng.randint(3, 8))
            rooms = [(rid, "x") for rid in ids]
            k = rng.randint(2, min(4, len(ids)))
            holders = rng.sample(ids, k)
            objects = [(f"desk_{i}", "desk", rid) for i, rid in enumerate(holders)]
            m = strip_map(rooms=rooms, objects=objects, edges=edges)
            start = rng.choice(ids)
            out = plan(m, PlanRequest(start=start, goal=GoalQuery("desk")))
            per_candidate = [
                dijkstra(m.graph, start, oid) for oid, _, _ in objects
            ]
            costs = [p.graph_cost for p in per_candidate if p is not None]
            assert out.result.graph_cost == min(costs)

    def test_plan_route_is_argmin_of_single_goal_searches(self):
        # integer weights force equal-cost ties; "z" rooms have no edges
        rng = random.Random(4711)
        for _ in range(200):
            ids, edges = random_graph_edges(rng, rng.randint(2, 9))
            edges = [(a, b, float(rng.randint(1, 3))) for a, b, _ in edges]
            rooms = ids + [f"z{i}" for i in range(rng.randint(0, 2))]
            holders = [rng.choice(rooms) for _ in range(rng.randint(1, 5))]
            objects = [(f"desk_{i}", "desk", rid) for i, rid in enumerate(holders)]
            m = strip_map(rooms=[(rid, "x") for rid in rooms], objects=objects, edges=edges)
            start = rng.choice(ids)
            singles = [dijkstra(m.graph, start, oid) for oid in sorted(o for o, _, _ in objects)]
            reached = [p for p in singles if p is not None]
            out = plan(m, PlanRequest(start=start, goal=GoalQuery("desk")))
            if not reached:
                assert out.failure_reason == FAIL_NO_ROUTE
                continue
            expected = min(reached, key=lambda p: p.graph_cost)
            assert (out.result.nodes, out.result.graph_cost) == (
                expected.nodes,
                expected.graph_cost,
            )

    def test_scaling_edge_weights_preserves_routes(self):
        rng = random.Random(909)
        ids, edges = random_graph_edges(rng, 8)
        m1 = strip_map(rooms=[(i, "x") for i in ids], edges=edges)
        m2 = strip_map(
            rooms=[(i, "x") for i in ids],
            edges=[(a, b, w * 37.5) for a, b, w in edges],
        )
        out1 = plan(m1, PlanRequest(start=ids[0], goal=GoalQuery(ids[-1])))
        out2 = plan(m2, PlanRequest(start=ids[0], goal=GoalQuery(ids[-1])))
        assert out1.result.nodes == out2.result.nodes

    def test_identical_requests_identical_outcomes(self, fig_map):
        table = CooccurrenceTable(entries={("mug", "office"): 1.0})
        req = PlanRequest(start="office_1", goal=GoalQuery("mug"))
        a = plan(fig_map, req, MockOracle(table))
        b = plan(fig_map, req, MockOracle(table))
        assert a.result == b.result

    def test_concurrent_plans_share_one_map(self, fig_map):
        req = PlanRequest(start="office_1", goal=GoalQuery("desk"))
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda _: plan(fig_map, req).result.nodes, range(24)))
        assert set(results) == {("office_1", "corridor_1", "office_3", "desk_1")}

    def test_oracle_equivalence_with_always_correct_oracle(self, fig_map):
        class PinOracle:
            def __init__(self, room):
                self.room = room

            def rank(self, contexts, goal):
                ranked = [(self.room, 1.0)]
                ranked += [(c.room_id, 0.0) for c in contexts if c.room_id != self.room]
                return DiscoveryResponse(ranked_rooms=tuple(ranked))

        targeted = plan(fig_map, PlanRequest(start="office_1", goal=GoalQuery("office_3")))
        discovered = plan(
            fig_map,
            PlanRequest(start="office_1", goal=GoalQuery("widget")),
            PinOracle("office_3"),
        )
        assert discovered.result.graph_cost == targeted.result.graph_cost
        assert discovered.result.nodes == targeted.result.nodes


class TestRefine:
    def test_single_room_single_segment(self, gt_map):
        graph = gt_map.graph
        some_object = sorted(graph.objects)[0]
        room = graph.objects[some_object].room_id
        out = plan(
            gt_map,
            PlanRequest(start=room, goal=GoalQuery(some_object), refine_metric=True),
        )
        assert out.ok and out.result.waypoints
        wp = out.result.waypoints
        start_cell = gt_map.costmap.world_to_grid(graph.rooms[room].centroid)
        end_cell = gt_map.costmap.world_to_grid(graph.objects[some_object].position)
        assert gt_map.costmap.world_to_grid(wp[0]) == start_cell
        assert gt_map.costmap.world_to_grid(wp[-1]) == end_cell

    def test_two_room_path_passes_stored_portal(self, gt_map):
        graph = gt_map.graph
        edge = graph.room_edges[0]
        out = plan(
            gt_map,
            PlanRequest(start=edge.room_a, goal=GoalQuery(edge.room_b), refine_metric=True),
        )
        assert out.ok
        cells = {gt_map.costmap.world_to_grid(p) for p in out.result.waypoints}
        assert edge.portal in cells

    def test_waypoints_traversable_and_contiguous(self, gt_map):
        graph = gt_map.graph
        rooms = sorted(graph.rooms)
        out = plan(
            gt_map, PlanRequest(start=rooms[0], goal=GoalQuery(rooms[-1]), refine_metric=True)
        )
        assert out.ok
        cells = [gt_map.costmap.world_to_grid(p) for p in out.result.waypoints]
        for c in cells:
            assert gt_map.costmap.cells[c.row, c.col] < 253
        for a, b in zip(cells, cells[1:]):
            assert max(abs(a.col - b.col), abs(a.row - b.row)) == 1

    def test_polyline_no_shorter_than_straight_line(self, gt_map):
        graph = gt_map.graph
        rooms = sorted(graph.rooms)
        out = plan(
            gt_map, PlanRequest(start=rooms[0], goal=GoalQuery(rooms[-1]), refine_metric=True)
        )
        wp = out.result.waypoints
        polyline = sum(math.dist(a, b) for a, b in zip(wp, wp[1:]))
        assert polyline >= math.dist(wp[0], wp[-1]) - 1e-9

    def test_start_point_feeds_first_segment(self, gt_map):
        graph = gt_map.graph
        oid = sorted(graph.objects)[0]
        obj = graph.objects[oid]
        others = [o for o in graph.objects.values() if o.room_id == obj.room_id and o.id != oid]
        target = others[0].id if others else obj.room_id
        out = plan(gt_map, PlanRequest(start=oid, goal=GoalQuery(target), refine_metric=True))
        assert out.ok
        first = gt_map.costmap.world_to_grid(out.result.waypoints[0])
        assert first == gt_map.costmap.world_to_grid(obj.position)

    def test_inconsistent_map_raises_consistency_error(self, fig_map):
        # fig_map's graph edges point at portals, but block boundaries are free,
        # so break the costmap instead: wall off office_3 entirely.
        import numpy as np
        from semnav.metric import CostmapGrid
        from semnav.mapio import SemanticMap

        cells = np.array(fig_map.costmap.cells)
        cells[:, 8] = 254  # wall across the strip between office_2 and office_3 blocks
        broken = SemanticMap(
            costmap=CostmapGrid(
                width=fig_map.costmap.width,
                height=fig_map.costmap.height,
                resolution=1.0,
                origin_x=0.0,
                origin_y=0.0,
                cells=cells,
            ),
            raster=fig_map.raster,
            graph=fig_map.graph,
            room_labels=fig_map.room_labels,
            meta=fig_map.meta,
        )
        path = dijkstra(broken.graph, "office_1", "desk_1")
        with pytest.raises(UnrealizableRouteError, match="room 'corridor_1'"):
            refine_to_metric(broken, path, broken.graph.rooms["office_1"].centroid)

    def test_room_path_off_the_graph_is_not_a_planning_outcome(self, fig_map, monkeypatch):
        # a room path over rooms no edge joins is a fault of the room search,
        # so plan() lets it raise instead of reporting "no-metric-route"
        bogus = SemanticPath(nodes=("office_1", "office_3", "desk_1"), graph_cost=7.0)
        monkeypatch.setattr(planner, "dijkstra", lambda *args: bogus)
        request = PlanRequest(start="office_1", goal=GoalQuery("desk_1"), refine_metric=True)
        with pytest.raises(MapConsistencyError, match="not connected by an edge") as info:
            plan(fig_map, request)
        assert not isinstance(info.value, UnrealizableRouteError)

    def test_wall_time_recorded(self, fig_map):
        out = plan(fig_map, PlanRequest(start="office_1", goal=GoalQuery("desk")))
        assert out.wall_time > 0.0

    def test_allow_inscribed_reaches_through_refinement(self, fig_map):
        import numpy as np
        from semnav.mapio import SemanticMap
        from semnav.metric import CostmapGrid

        cells = np.array(fig_map.costmap.cells)
        cells[:, 8] = 253  # near-lethal band between office_2 and office_3 blocks
        pinched = SemanticMap(
            costmap=CostmapGrid(
                width=fig_map.costmap.width,
                height=fig_map.costmap.height,
                resolution=1.0,
                origin_x=0.0,
                origin_y=0.0,
                cells=cells,
            ),
            raster=fig_map.raster,
            graph=fig_map.graph,
            room_labels=fig_map.room_labels,
            meta=fig_map.meta,
        )
        blocked = PlanRequest(start="office_1", goal=GoalQuery("desk_1"), refine_metric=True)
        assert plan(pinched, blocked).failure_reason == FAIL_NO_METRIC_ROUTE
        out = plan(pinched, replace(blocked, allow_inscribed=True))
        assert out.ok and out.result.waypoints
        cells = [pinched.costmap.world_to_grid(p) for p in out.result.waypoints]
        crossed = [c for c in cells if pinched.costmap.cells[c.row, c.col] == 253]
        assert crossed

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(1, 5),
        resolution=st.sampled_from([0.025, 0.05, 0.1, 1 / 3]),
        origin=st.tuples(*[st.sampled_from([-3.7, 12.35, 0.0, -1000 / 3])] * 2),
        data=st.data(),
    )
    def test_waypoints_equal_per_cell_oracle(self, n, resolution, origin, data):
        rooms = [(f"room_{i}", "office") for i in range(n)]
        objects = [(f"desk_{i}", "desk", f"room_{i}") for i in range(n)]
        edges = [(f"room_{i}", f"room_{i + 1}", 1.0) for i in range(n - 1)]
        costs = data.draw(arrays(np.uint8, (BLOCK, n * BLOCK), elements=st.integers(0, 252)))
        m = strip_map(rooms, objects, edges, resolution=resolution, origin=origin, costs=costs)
        start = data.draw(st.integers(0, n - 1))
        goal = data.draw(st.sampled_from([*m.graph.rooms, *m.graph.objects]))
        path = dijkstra(m.graph, f"room_{start}", goal)
        cell = GridIndex(*(data.draw(st.integers(0, BLOCK - 1)) for _ in "cr"))
        start_point = m.costmap.grid_to_world(cell._replace(col=cell.col + start * BLOCK))

        got = refine_to_metric(m, path, start_point)
        assert all(type(p) is MetricPoint and type(p.x) is type(p.y) is float for p in got)
        want = per_cell_refine(m, path, start_point)
        assert [(p.x.hex(), p.y.hex()) for p in got] == [(p.x.hex(), p.y.hex()) for p in want]

        ends = [GridIndex(*(data.draw(st.integers(0, k - 1)) for k in (n * BLOCK, BLOCK)))]
        ends.append(GridIndex(*(data.draw(st.integers(0, k - 1)) for k in (n * BLOCK, BLOCK))))
        (cols, rows), _ = grid_shortest_path(m.costmap, *ends)
        assert cols.dtype.kind == rows.dtype.kind == "i" and cols.shape == rows.shape
        assert (cols[0], rows[0]) == ends[0] and (cols[-1], rows[-1]) == ends[1]


def assembled_with(env, objects=None, edges=None):
    """The env's map, assembled unvalidated as README's library example does,
    with object fields and edge portals replaced and its graph built anew."""
    grid, truth, graph = env
    rebuilt = SemanticGraph(
        list(graph.rooms.values()),
        [replace(o, **(objects or {}).get(o.id, {})) for o in graph.objects.values()],
        [replace(e, portal=(edges or {}).get((e.room_a, e.room_b), e.portal))
         for e in graph.room_edges],
    )
    return assemble_map(grid, truth.raster, rebuilt, truth.label_to_room)


class TestAssembledMapFaults:
    """plan() reports a map's off-grid anchors and dangling rooms, and does not raise.

    office_1 -> sink_1 runs office_1, corridor_1, kitchen_1: portal 1 joins
    office_1 and corridor_1, portal 2 kitchen_1 and corridor_1.
    """

    OFF = MetricPoint(-50.0, -50.0)

    def refined(self, m, start, goal):
        return plan(m, PlanRequest(start=start, goal=GoalQuery(goal), refine_metric=True))

    def test_goal_object_off_the_grid_names_the_last_room(self, small_env):
        m = assembled_with(small_env, objects={"sink_1": {"position": self.OFF}})
        out = self.refined(m, "office_1", "sink_1")
        assert out.failure_reason == FAIL_NO_METRIC_ROUTE
        assert out.detail.startswith("room 'kitchen_1': ") and "outside grid bounds" in out.detail

    def test_start_object_off_the_grid_names_the_first_room(self, small_env):
        m = assembled_with(small_env, objects={"desk_1": {"position": self.OFF}})
        out = self.refined(m, "desk_1", "sink_1")
        assert out.failure_reason == FAIL_NO_METRIC_ROUTE
        assert out.detail.startswith("room 'office_1': ") and "outside grid bounds" in out.detail

    @pytest.mark.parametrize(
        "edge, room",
        [(("office_1", "corridor_1"), "office_1"), (("kitchen_1", "corridor_1"), "corridor_1")],
    )
    def test_portal_off_the_grid_names_its_first_leg(self, small_env, edge, room):
        m = assembled_with(small_env, edges={edge: GridIndex(-5, -5)})
        out = self.refined(m, "office_1", "sink_1")
        assert out.failure_reason == FAIL_NO_METRIC_ROUTE
        assert out.detail.startswith(f"room {room!r}: ") and "outside" in out.detail

    def test_off_grid_portal_is_not_served_as_the_cell_its_flat_index_names(self, small_env):
        grid, _, graph = small_env
        centroid = grid.world_to_grid(graph.rooms["corridor_1"].centroid)
        # one row up and one grid width right: row * width + col is the centroid cell's
        portal = GridIndex(centroid.col + grid.width, centroid.row - 1)
        m = assembled_with(small_env, edges={("office_1", "corridor_1"): portal})
        for m in (m, planner.index_legs(m)):
            out = self.refined(m, "corridor_1", "desk_1")
            assert out.failure_reason == FAIL_NO_METRIC_ROUTE
            assert out.detail.startswith("room 'corridor_1': ") and "outside" in out.detail

    def test_first_off_grid_leg_wins_over_the_goal(self, small_env):
        m = assembled_with(
            small_env,
            objects={"sink_1": {"position": self.OFF}},
            edges={("kitchen_1", "corridor_1"): GridIndex(-5, -5)},
        )
        out = self.refined(m, "office_1", "sink_1")
        assert out.failure_reason == FAIL_NO_METRIC_ROUTE
        assert out.detail.startswith("room 'corridor_1': ")

    @pytest.mark.parametrize("refine", [False, True])
    def test_start_object_in_no_room_is_an_invalid_start(self, small_env, refine):
        m = assembled_with(small_env, objects={"desk_1": {"room_id": "nowhere_1"}})
        request = PlanRequest(start="desk_1", goal=GoalQuery("sink_1"), refine_metric=refine)
        assert plan(m, request).failure_reason == FAIL_INVALID_START

    def test_start_point_labelled_with_no_room_is_an_invalid_start(self, small_env):
        grid, truth, graph = small_env
        labels = {k: "nowhere_1" if v == "office_1" else v for k, v in truth.label_to_room.items()}
        m = assemble_map(grid, truth.raster, graph, labels)
        start = graph.rooms["office_1"].centroid
        assert plan(m, PlanRequest(start=start, goal=GoalQuery("sink_1"))).failure_reason == (
            FAIL_INVALID_START
        )
