"""The four workloads: inputs made from seeds, set-up, one op, its check.

Every workload is a closed loop with one client. Its inputs form a fixed
deck made from the generator seeds (map seed, query-set seed); the run's
--seed only sets the order in which each pass serves the deck. Op cost
varies up to 7x between queries on one map, so a run of 15-40 ops drawn
fresh per seed gives medians that differ by about 15% between seeds; a
fixed deck served in whole passes makes every run time the same multiset.

semnav is reached only through its public modules, and always through the
module attribute (`planner.plan`, `mapio.load_map`) so the traced run can
wrap the same names.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from pathlib import Path

import semnav
from semnav import builder, cli, discovery, envgen, mapio, metric, planner, segmentation
from semnav.graph import GoalQuery

from checks import (
    CheckFailed,
    RoomDistances,
    cell_of,
    check_map_dir,
    check_reconstruction,
    check_room_route,
    check_svg,
    check_waypoints,
    room_of,
)

MODES = ("targeted", "multi-target", "discovery")
# A goal absent from the map forces discovery; the alias names the object
# whose room counts as arrival, as in semnav's own bench harness.
ALIAS_PREFIX = "lost_"
DATA = Path(semnav.__file__).parent / "data"
RULES_PATH = DATA / "default_rules.txt"
TABLE_PATH = DATA / "default_cooccurrence.txt"


@dataclass(frozen=True)
class Query:
    mode: str
    start: str  # room id
    goal: str  # goal text handed to the planner
    arrival: tuple[str, ...]  # reaching one of these counts toward goal_reach_rate
    goal_nodes: tuple[str, ...]  # a correct route ends at one of these


@dataclass(slots=True)
class OpInfo:
    """What the check learned about one op's output."""

    mode: str | None = None
    reached: bool | None = None
    candidates: int = 0
    route: tuple | None = None  # (nodes, graph_cost) of the returned path
    bytes_written: int | None = None
    svg_bytes: int | None = None


def gen_map(spec: dict, out: Path) -> None:
    """Write a map directory plus occupancy and object files with `semnav gen`."""
    out.mkdir(parents=True, exist_ok=True)
    spec_file = out.with_name(out.name + ".spec")
    lines = [
        f"{k}: {', '.join(map(str, v)) if isinstance(v, tuple) else v}\n" for k, v in spec.items()
    ]
    spec_file.write_text("".join(lines), encoding="utf-8")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["gen", "--spec", str(spec_file), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"semnav gen exited {code} for spec {spec}")
    if envgen.load_env_spec(spec_file) != envgen.EnvSpec(**spec):
        raise RuntimeError(f"spec file does not round-trip: {spec}")


def room_contexts(graph) -> list:
    return [
        discovery.RoomContext(room_id=r.id, category=r.category, attributes=tuple(r.attributes))
        for r in sorted(graph.rooms.values(), key=lambda r: r.id)
    ]


def sample_queries(graph, n: int, rng: random.Random, oracle) -> list[Query]:
    """n queries, modes cycling targeted / multi-target / discovery."""
    rooms = sorted(graph.rooms)
    objects = sorted(graph.objects)
    classes: dict[str, list[str]] = {}
    for oid in objects:
        classes.setdefault(graph.objects[oid].class_label, []).append(oid)
    multi = sorted(cls for cls, ids in classes.items() if len(ids) >= 2)
    contexts = room_contexts(graph)
    out = []
    for i in range(n):
        mode = MODES[i % len(MODES)]
        start = rng.choice(rooms)
        if mode == "targeted":
            goal = rng.choice(objects)
            out.append(Query(mode, start, goal, (goal,), (goal,)))
        elif mode == "multi-target":
            cls = rng.choice(multi)
            out.append(Query(mode, start, cls, tuple(classes[cls]), tuple(classes[cls])))
        else:
            oid = rng.choice(objects)
            alias = ALIAS_PREFIX + oid
            top = oracle.rank(contexts, GoalQuery(alias)).top_room
            out.append(Query(mode, start, alias, (graph.objects[oid].room_id,), (top,)))
    return out


def mock_oracle():
    return discovery.MockOracle(discovery.load_cooccurrence_table(TABLE_PATH))


class Workload:
    """Base: prepare() makes the deck; subclasses define the op and its check."""

    def __init__(self, name: str, deck_size: int, spec: dict):
        self.name = name
        self.deck_size = deck_size
        self.spec = spec
        self.deck: list = []

    def prepare(self, work: Path, map_seed: int, query_seed: int) -> None:
        raise NotImplementedError

    def setup(self):
        """State the ops share; timed together with one warm-up op."""
        return None

    def run_op(self, state, item):
        raise NotImplementedError

    def check(self, state, item, output) -> OpInfo:
        raise NotImplementedError


class PlanWorkload(Workload):
    """plan() over one map that stays loaded (plan-warm, plan-graph)."""

    def __init__(self, name, deck_size, spec, refine):
        super().__init__(name, deck_size, spec)
        self.refine = refine

    def prepare(self, work, map_seed, query_seed):
        self.map_dir = work / "map"
        gen_map({**self.spec, "seed": map_seed}, self.map_dir)
        _, _, graph = envgen.generate(envgen.EnvSpec(**self.spec, seed=map_seed))
        self.distances = RoomDistances(graph)
        self.deck = sample_queries(graph, self.deck_size, random.Random(query_seed), mock_oracle())

    def setup(self):
        return mapio.load_map(self.map_dir), mock_oracle()

    def run_op(self, state, item):
        m, oracle = state
        request = planner.PlanRequest(
            start=item.start, goal=GoalQuery(item.goal), refine_metric=self.refine
        )
        return planner.plan(m, request, oracle)

    def check(self, state, item, output):
        return check_plan(state[0], item, output, self.distances, self.refine)


def check_plan(m, q: Query, outcome, distances, refine: bool) -> OpInfo:
    if not outcome.ok:
        raise CheckFailed(f"plan failed: {outcome.failure_reason}")
    path = outcome.result
    if path.mode != q.mode:
        raise CheckFailed(f"mode {path.mode} != {q.mode}")
    graph = m.graph
    check_room_route(graph, path, q.start, q.goal_nodes, distances)
    if refine:
        last = path.nodes[-1]
        goal = graph.objects[last].position if last in graph.objects else graph.rooms[last].centroid
        check_waypoints(
            m.costmap,
            path.waypoints,
            cell_of(m.costmap, graph.rooms[q.start].centroid),
            cell_of(m.costmap, goal),
        )
    last = path.nodes[-1] if q.mode != "discovery" else room_of(graph, path.nodes[-1])
    return OpInfo(
        mode=q.mode,
        reached=last in q.arrival,
        candidates=len(q.goal_nodes) if q.mode == "multi-target" else 0,
        route=(tuple(path.nodes), path.graph_cost),
    )


class ColdWorkload(PlanWorkload):
    """One `semnav render --refine` in process: load, plan, render, write."""

    def __init__(self, name, deck_size, spec):
        super().__init__(name, deck_size, spec, refine=True)

    def prepare(self, work, map_seed, query_seed):
        super().prepare(work, map_seed, query_seed)
        self.svg_path = work / "route.svg"

    def setup(self):
        return mock_oracle()

    def run_op(self, oracle, item):
        m = mapio.load_map(self.map_dir)
        request = planner.PlanRequest(
            start=item.start, goal=GoalQuery(item.goal), refine_metric=True
        )
        outcome = planner.plan(m, request, oracle)
        if not outcome.ok:
            return m, outcome, None
        svg = mapio.render_svg(m, outcome.result)
        self.svg_path.write_text(svg, encoding="utf-8")
        return m, outcome, svg

    def check(self, oracle, item, output):
        m, outcome, svg = output
        info = check_plan(m, item, outcome, self.distances, refine=True)
        check_svg(svg, len(outcome.result.waypoints))
        info.svg_bytes = len(svg.encode("utf-8"))
        return info


class BuildWorkload(Workload):
    """One `semnav build` in process: load inputs, build, save."""

    def prepare(self, work, map_seed, query_seed):
        self.out_dir = work / "built"
        self.truth = {}
        for i in range(self.deck_size):
            seed = map_seed + i
            gen_map({**self.spec, "seed": seed}, work / f"input-{seed}")
            _, self.truth[seed], _ = envgen.generate(envgen.EnvSpec(**self.spec, seed=seed))
            self.deck.append((seed, work / f"input-{seed}"))

    def run_op(self, state, item):
        _, src = item
        grid = metric.load_costmap(src / "occupancy.pgm", src / "occupancy.meta")
        objects = builder.load_objects(src / "objects.json")
        rules = segmentation.parse_rules(RULES_PATH)
        m = builder.build_semantic_map(grid, objects, rules)
        mapio.save_map(m, self.out_dir)
        return m

    def check(self, state, item, output):
        check_reconstruction(self.truth[item[0]], output)
        return OpInfo(bytes_written=check_map_dir(self.out_dir))


def make(name: str, tiny: bool = False) -> Workload:
    """The named workload; tiny=True shrinks its maps for the self-test."""
    if name == "plan-warm":
        spec = {"n_rooms": 4 if tiny else 24, "resolution": 0.1 if tiny else 0.05}
        return PlanWorkload(name, 6 if tiny else 18, spec, refine=True)
    if name == "plan-graph":
        spec = {"n_rooms": 6 if tiny else 64, "layout": "chain", "object_density": (2, 5)}
        return PlanWorkload(name, 30 if tiny else 600, spec, refine=False)
    if name == "cli-cold":
        spec = {"n_rooms": 4 if tiny else 12, "resolution": 0.1 if tiny else 0.025}
        return ColdWorkload(name, 3 if tiny else 6, spec)
    if name == "build":
        spec = {"n_rooms": 4 if tiny else 12, "resolution": 0.1 if tiny else 0.05}
        return BuildWorkload(name, 2 if tiny else 6, spec)
    raise ValueError(f"unknown workload {name!r}")


