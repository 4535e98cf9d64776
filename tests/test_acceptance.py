"""End-to-end acceptance suite: one test per release criterion.

Each test records a PASS/FAIL line (printed after the pytest summary) and
asserts, so the exit status reflects the criteria.
"""

import json
import random
import time

from semnav import envgen, mapio
from semnav.bench import AdversarialOracle, TruthOracle, run_bench
from semnav.builder import ObjectPlacement, build_semantic_map
from semnav.discovery import MockOracle, load_cooccurrence_table
from semnav.errors import UnreachableError
from semnav.graph import GoalQuery
from semnav.metric import GridIndex, grid_shortest_path
from semnav.planner import (
    MODE_DISCOVERY,
    MODE_MULTI_TARGET,
    MODE_TARGETED,
    PlanRequest,
    dijkstra,
    plan,
)

from mapfactory import adjacency_dict, graph_from_edges, random_graph_edges, strip_map
from mutations import corrupt_graph
from oracles import brute_grid_dijkstra, enumerate_min_cost
from test_metric import random_costmap


def test_criterion_1_graph_search_matches_enumeration(record_criterion):
    rng = random.Random(160493)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(500):
        ids, edges = random_graph_edges(rng, rng.randint(2, 10))
        graph = graph_from_edges(ids, edges)
        adj = adjacency_dict(edges)
        start, goal = rng.sample(ids, 2)
        expected = enumerate_min_cost(adj, start, goal)
        got = dijkstra(graph, start, goal)
        assert (got.graph_cost if got else None) == expected
        checked += 1
    elapsed = time.perf_counter() - t0
    record_criterion(
        1,
        "graph search equals exhaustive path enumeration on 500 random graphs",
        checked == 500 and elapsed < 30.0,
        f"{checked} graphs, {elapsed:.1f}s",
    )


def test_criterion_2_grid_search_matches_brute_force(record_criterion):
    rng = random.Random(271828)
    t0 = time.perf_counter()
    agreements = 0
    for _ in range(100):
        grid = random_costmap(rng, width=20, height=20, resolution=0.5)
        expected = brute_grid_dijkstra(grid, (0, 0), (19, 19))
        try:
            _, cost = grid_shortest_path(grid, GridIndex(0, 0), GridIndex(19, 19))
        except UnreachableError:
            cost = None
        assert cost == expected
        agreements += 1
    elapsed = time.perf_counter() - t0
    record_criterion(
        2,
        "grid search equals independent brute-force search on 100 random 20x20 costmaps",
        agreements == 100 and elapsed < 30.0,
        f"{agreements} grids, {elapsed:.1f}s",
    )


def test_criterion_3_mode_dispatch_exactness(record_criterion):
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
    oracle = MockOracle(load_cooccurrence_table_default())
    cases = [
        ("ghost_object", 0, MODE_DISCOVERY),
        ("lamp", 1, MODE_TARGETED),
        ("mug", 3, MODE_MULTI_TARGET),
    ]
    hits = 0
    for goal, cardinality, expected_mode in cases:
        assert len(m.graph.find_goal_state(GoalQuery(goal))) == cardinality
        out = plan(m, PlanRequest(start="start", goal=GoalQuery(goal)), oracle)
        assert out.ok and out.result.mode == expected_mode
        hits += 1
    record_criterion(
        3,
        "goal-state cardinality 0/1/3 dispatches discovery/targeted/multi-target",
        hits == 3,
        "3/3 cases",
    )


def load_cooccurrence_table_default():
    from semnav.cli import _default_table_path

    return load_cooccurrence_table(_default_table_path())


def test_criterion_4_multi_target_minimality(record_criterion):
    rng = random.Random(8128)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(200):
        n = rng.randint(3, 9)
        ids, edges = random_graph_edges(rng, n)
        k = rng.randint(2, min(5, n))
        holders = rng.sample(ids, k)
        objects = [(f"mug_{i}", "mug", rid) for i, rid in enumerate(holders)]
        m = strip_map(rooms=[(rid, "x") for rid in ids], objects=objects, edges=edges)
        start = rng.choice(ids)
        out = plan(m, PlanRequest(start=start, goal=GoalQuery("mug")))
        per_candidate = [dijkstra(m.graph, start, oid) for oid, _, _ in objects]
        best = min(p.graph_cost for p in per_candidate if p is not None)
        assert out.ok and out.result.graph_cost == best
        checked += 1
    elapsed = time.perf_counter() - t0
    record_criterion(
        4,
        "multi-target cost equals the minimum over per-candidate searches (200 maps)",
        checked == 200,
        f"{checked} maps, 2-5 candidates each, {elapsed:.1f}s",
    )


def test_criterion_5_plan_wall_time_at_desk_scale(record_criterion, big_gt_map):
    assert len(big_gt_map.graph.rooms) >= 10
    assert len(big_gt_map.graph.objects) >= 50
    report = run_bench(big_gt_map, trials=50, mode="targeted", seed=5)
    mean, peak = report.wall_mean, report.wall_max
    # reported reference: mean <= 7 ms, max <= 10 ms; 2x is the regression bar
    record_criterion(
        5,
        "targeted plan wall-time on a 12-room/50+-object map stays within 2x of "
        "7 ms mean / 10 ms max",
        mean <= 14.0 and peak <= 20.0,
        f"mean {mean:.3f} ms (ref 7), max {peak:.3f} ms (ref 10), 50 trials",
    )


def test_criterion_6_known_target_success_rate(record_criterion, big_gt_map):
    report = run_bench(big_gt_map, trials=50, mode="targeted", seed=6)
    stats = report.modes["targeted"]
    # 0.99 is the reference floor; clean generated maps must reach 1.0
    record_criterion(
        6,
        "targeted-mode bench success rate is 1.0 on generated maps",
        stats.success_rate == 1.0 and stats.success_rate > 0.99,
        f"{stats.successes}/{stats.trials}",
    )


def test_criterion_7_discovery_oracle_bounds(record_criterion, big_gt_map):
    targeted = run_bench(big_gt_map, trials=40, mode="targeted", seed=7)
    truthful = run_bench(
        big_gt_map, trials=40, mode="discovery", seed=7, oracle=TruthOracle(big_gt_map)
    )
    adversarial = run_bench(
        big_gt_map, trials=40, mode="discovery", seed=7, oracle=AdversarialOracle(big_gt_map)
    )
    t = targeted.modes["targeted"]
    d = truthful.modes["discovery"]
    a = adversarial.modes["discovery"]
    ok = (
        d.success_rate == t.success_rate
        and a.successes == 0
        and a.paths_generated == a.trials
    )
    record_criterion(
        7,
        "discovery success equals targeted with a truthful oracle; adversarial "
        "oracle yields 0 arrivals but full path generation",
        ok,
        f"truthful {d.success_rate:.2f} vs targeted {t.success_rate:.2f}; "
        f"adversarial {a.successes}/{a.trials} arrivals, {a.paths_generated} paths",
    )


def _reconstruction_matches(grid, gt, built) -> tuple[bool, str]:
    gt_labels = gt.raster.labels
    built_labels = built.raster.labels
    if len(built.graph.rooms) != len(gt.rooms):
        return False, f"room count {len(built.graph.rooms)} != {len(gt.rooms)}"
    mapping = {}
    for room in gt.rooms:
        region = gt_labels == room.label
        best, best_inter = None, 0
        for k in built.room_labels:
            inter = int((region & (built_labels == k)).sum())
            if inter > best_inter:
                best, best_inter = k, inter
        if best is None:
            return False, f"{room.id} unmatched"
        union = int((region | (built_labels == best)).sum())
        if best_inter / union < 0.8:
            return False, f"{room.id} IoU {best_inter / union:.2f}"
        mapping[room.id] = built.room_labels[best]
    if len(set(mapping.values())) != len(mapping):
        return False, "two rooms mapped to one segment"
    for room in gt.rooms:
        built_room = built.graph.rooms[mapping[room.id]]
        if built_room.category != room.category:
            return False, f"{room.id} category {built_room.category} != {room.category}"
    gt_edges = {frozenset((mapping[d.room_a], mapping[d.room_b])) for d in gt.doors}
    built_edges = {frozenset((e.room_a, e.room_b)) for e in built.graph.room_edges}
    if gt_edges != built_edges:
        return False, f"adjacency differs: {gt_edges ^ built_edges}"
    return True, ""


def test_criterion_8_pipeline_reconstruction(record_criterion, default_rules):
    rng = random.Random(95)
    t0 = time.perf_counter()
    successes = 0
    failures = []
    for seed in range(100):
        spec = envgen.EnvSpec(
            seed=seed,
            n_rooms=rng.randint(3, 6),
            layout="spine" if seed % 4 else "chain",
            resolution=0.1,
            object_density=(1, 3),
        )
        grid, gt, _ = envgen.generate(spec)
        objects = [
            ObjectPlacement(class_label=o.class_label, position=o.position, id=o.id)
            for o in gt.objects
        ]
        built = build_semantic_map(grid, objects, default_rules)
        ok, why = _reconstruction_matches(grid, gt, built)
        if ok:
            successes += 1
        else:
            failures.append(f"seed {seed}: {why}")
    elapsed = time.perf_counter() - t0
    for line in failures:
        print("reconstruction failure:", line)
    record_criterion(
        8,
        "segmentation+adjacency+categorization reconstructs ground truth on >= 95/100 seeds",
        successes >= 95,
        f"{successes}/100 seeds, IoU >= 0.8, {elapsed:.1f}s",
    )


def test_criterion_9_serialization_round_trip(record_criterion, tmp_path):
    rng = random.Random(909)
    t0 = time.perf_counter()
    exact = 0
    for seed in range(100):
        spec = envgen.EnvSpec(
            seed=seed,
            n_rooms=rng.randint(2, 4),
            layout="chain" if seed % 3 == 0 else "spine",
            resolution=0.15,
            object_density=(0, 2),
        )
        grid, gt, graph = envgen.generate(spec)
        m = mapio.assemble_map(grid, gt.raster, graph, gt.label_to_room, name=f"rt{seed}")
        mapio.save_map(m, tmp_path / f"m{seed}")
        loaded = mapio.load_map(tmp_path / f"m{seed}")
        assert loaded == m
        assert loaded.raster.labels.tobytes() == m.raster.labels.tobytes()
        assert loaded.costmap.cells.tobytes() == m.costmap.cells.tobytes()
        for a, b in zip(
            sorted(loaded.graph.room_edges, key=lambda e: (e.room_a, e.room_b)),
            sorted(m.graph.room_edges, key=lambda e: (e.room_a, e.room_b)),
        ):
            assert a.weight == b.weight
        exact += 1
    elapsed = time.perf_counter() - t0
    record_criterion(
        9,
        "save/load round-trips 100 generated maps bit-exactly",
        exact == 100,
        f"{exact}/100 maps, {elapsed:.1f}s",
    )


def test_criterion_10_determinism_suite(record_criterion):
    oracle_table = load_cooccurrence_table_default()

    def one_pass():
        spec = envgen.EnvSpec(seed=303, n_rooms=5, resolution=0.1)
        grid, gt, graph = envgen.generate(spec)
        m = mapio.assemble_map(grid, gt.raster, graph, gt.label_to_room, name="det")
        oracle = MockOracle(oracle_table)
        rooms = sorted(m.graph.rooms)
        plans = []
        for goal in ("desk", "office", "coffee_machine", sorted(m.graph.objects)[0]):
            out = plan(m, PlanRequest(start=rooms[0], goal=GoalQuery(goal)), oracle)
            plans.append(out.result.nodes if out.ok else out.failure_reason)
        svg = mapio.render_svg(m, plan(
            m, PlanRequest(start=rooms[0], goal=GoalQuery(rooms[-1]), refine_metric=True)
        ).result)
        report = run_bench(m, trials=20, mode="mixed", seed=10, oracle=TruthOracle(m))
        doc = report.to_dict()
        doc.pop("wall_time_ms", None)
        doc.pop("hardware", None)
        return plans, svg.encode(), json.dumps(doc, sort_keys=True)

    first, second = one_pass(), one_pass()
    ok = first[0] == second[0] and first[1] == second[1] and first[2] == second[2]
    record_criterion(
        10,
        "fixed seed + mock oracle give identical plans, SVG bytes, and bench report",
        ok,
        f"{len(first[0])} plans, {len(first[1])} SVG bytes",
    )


def test_criterion_11_invariant_fuzzing(record_criterion, gt_map, built_map):
    clean_violations = len(gt_map.graph.validate()) + len(built_map.graph.validate())
    clean_violations += len(mapio.validate_semantic_map(gt_map))
    clean_violations += len(mapio.validate_semantic_map(built_map))

    rng = random.Random(1000003)
    caught = 0
    t0 = time.perf_counter()
    for i in range(1000):
        base = gt_map.graph if i % 2 else built_map.graph
        mutant = base.copy()
        corrupt_graph(mutant, rng)
        if mutant.validate():
            caught += 1
    elapsed = time.perf_counter() - t0
    record_criterion(
        11,
        "1000 random graph corruptions each raise a violation; clean maps raise none",
        caught == 1000 and clean_violations == 0,
        f"{caught}/1000 caught, {clean_violations} false positives, {elapsed:.1f}s",
    )
