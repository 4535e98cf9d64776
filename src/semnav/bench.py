"""Benchmark harness: sampled plan trials with timing and success rates.

A trial samples a (start, goal) pair, runs the planner, and records whether
the returned path actually ends at the sampled target. Discovery trials
query an alias label that is absent from the graph (forcing Discovery Mode)
while remembering which room truly holds the sampled object; success means
arriving at that room. TruthOracle and AdversarialOracle resolve aliases
against the map for best-case / worst-case oracle behavior studies.

Only the plan() call is timed (monotonic clock); one warm-up trial runs
first and is excluded from the stats.
"""

from __future__ import annotations

import json
import platform
import random
import statistics
from dataclasses import dataclass, field

import numpy as np

from .discovery import DiscoveryResponse
from .errors import ValidationError
from .graph import GoalQuery
from .mapio import SemanticMap
from .planner import PlanRequest, plan

REPORT_VERSION = 1

MODE_CHOICES = ("targeted", "multi-target", "discovery", "mixed")

ALIAS_PREFIX = "lost_"


@dataclass(frozen=True)
class ModeStats:
    trials: int
    successes: int
    paths_generated: int

    @property
    def success_rate(self) -> float | None:
        return self.successes / self.trials if self.trials else None


@dataclass(frozen=True)
class BenchReport:
    n_trials: int
    seed: int
    modes: dict[str, ModeStats]
    wall_times_ms: tuple[float, ...] = field(default_factory=tuple, repr=False)
    hardware: str = ""

    @property
    def wall_mean(self) -> float | None:
        return statistics.fmean(self.wall_times_ms) if self.wall_times_ms else None

    @property
    def wall_p50(self) -> float | None:
        return statistics.median(self.wall_times_ms) if self.wall_times_ms else None

    @property
    def wall_max(self) -> float | None:
        return max(self.wall_times_ms) if self.wall_times_ms else None

    def to_dict(self) -> dict:
        doc = {
            "version": REPORT_VERSION,
            "n_trials": self.n_trials,
            "seed": self.seed,
            "hardware": self.hardware,
            "modes": {},
        }
        for mode, stats in sorted(self.modes.items()):
            entry = {
                "trials": stats.trials,
                "successes": stats.successes,
                "paths_generated": stats.paths_generated,
            }
            if stats.trials:
                entry["success_rate"] = stats.success_rate
            doc["modes"][mode] = entry
        if self.wall_times_ms:
            doc["wall_time_ms"] = {
                "mean": self.wall_mean,
                "p50": self.wall_p50,
                "max": self.wall_max,
            }
        return doc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def table(self) -> str:
        lines = [
            f"{'mode':<14}{'trials':>8}{'success':>9}{'paths':>7}{'rate':>8}",
        ]
        for mode, stats in sorted(self.modes.items()):
            rate = f"{stats.success_rate:.3f}" if stats.trials else "-"
            lines.append(
                f"{mode:<14}{stats.trials:>8}{stats.successes:>9}"
                f"{stats.paths_generated:>7}{rate:>8}"
            )
        if self.wall_times_ms:
            lines.append(
                f"wall time ms: mean {self.wall_mean:.3f}  p50 {self.wall_p50:.3f}"
                f"  max {self.wall_max:.3f}"
            )
        return "\n".join(lines)


class TruthOracle:
    """Always names the room that actually holds the aliased object."""

    def __init__(self, m: SemanticMap):
        self.map = m

    def rank(self, contexts, goal: GoalQuery) -> DiscoveryResponse:
        true_room = _alias_room(self.map, goal.text)
        ranked = [(true_room, 1.0)]
        ranked += [(c.room_id, 0.0) for c in contexts if c.room_id != true_room]
        return DiscoveryResponse(ranked_rooms=tuple(ranked), rationale="truth oracle")


class AdversarialOracle:
    """Always names some room other than the true one (needs >= 2 rooms)."""

    def __init__(self, m: SemanticMap):
        self.map = m

    def rank(self, contexts, goal: GoalQuery) -> DiscoveryResponse:
        true_room = _alias_room(self.map, goal.text)
        wrong = [c.room_id for c in contexts if c.room_id != true_room]
        if not wrong:
            raise ValidationError("adversarial oracle needs at least two rooms")
        ranked = [(wrong[0], 1.0)] + [(rid, 0.0) for rid in wrong[1:]]
        return DiscoveryResponse(ranked_rooms=tuple(ranked), rationale="adversarial oracle")


def _alias_room(m: SemanticMap, alias: str) -> str:
    if not alias.startswith(ALIAS_PREFIX):
        raise ValidationError(f"not an alias goal: {alias!r}")
    object_id = alias[len(ALIAS_PREFIX) :]
    obj = m.graph.objects.get(object_id)
    if obj is None:
        raise ValidationError(f"alias {alias!r} names unknown object {object_id!r}")
    return obj.room_id


@dataclass(frozen=True)
class _Trial:
    mode: str
    start: str
    goal: str
    # what counts as arrival: exact node ids (targeted/multi) or a room id
    target_nodes: tuple[str, ...]


def sample_trials(m: SemanticMap, n: int, mode: str, rng: random.Random) -> list[_Trial]:
    """Deterministically sample n trials (plus callers add their own warm-up)."""
    rooms = sorted(m.graph.rooms)
    objects = sorted(m.graph.objects)
    if not rooms:
        raise ValidationError("map has no rooms to sample from")

    classes: dict[str, list[str]] = {}
    for oid in objects:
        classes.setdefault(m.graph.objects[oid].class_label, []).append(oid)
    multi_classes = sorted(cls for cls, ids in classes.items() if len(ids) >= 2)

    trials = []
    for i in range(n):
        if mode == "mixed":
            cycle = ["targeted", "discovery"] + (["multi-target"] if multi_classes else [])
            trial_mode = cycle[i % len(cycle)]
        else:
            trial_mode = mode
        start = rng.choice(rooms)
        if trial_mode == "targeted":
            goal = rng.choice(objects) if objects else rng.choice(rooms)
            trials.append(_Trial(trial_mode, start, goal, (goal,)))
        elif trial_mode == "multi-target":
            if not multi_classes:
                raise ValidationError("map has no object class with multiple instances")
            cls = rng.choice(multi_classes)
            trials.append(_Trial(trial_mode, start, cls, tuple(classes[cls])))
        elif trial_mode == "discovery":
            if not objects:
                raise ValidationError("discovery trials need at least one object")
            oid = rng.choice(objects)
            alias = ALIAS_PREFIX + oid
            room = m.graph.objects[oid].room_id
            trials.append(_Trial(trial_mode, start, alias, (room,)))
        else:
            raise ValidationError(f"unknown bench mode {trial_mode!r}")
    return trials


def _succeeded(m: SemanticMap, trial: _Trial, result) -> bool:
    if result is None:
        return False
    last = result.nodes[-1]
    if trial.mode == "discovery":
        last_room = next(n for n in reversed(result.nodes) if n in m.graph.rooms)
        return last_room in trial.target_nodes
    return last in trial.target_nodes


def run_bench(
    m: SemanticMap,
    trials: int,
    mode: str = "targeted",
    seed: int = 0,
    oracle=None,
) -> BenchReport:
    """Run sampled plan trials over a map and aggregate a report."""
    if mode not in MODE_CHOICES:
        raise ValidationError(f"mode must be one of {MODE_CHOICES}, got {mode!r}")
    if trials < 0:
        raise ValidationError("trials must be >= 0")
    rng = random.Random(seed)
    sampled = sample_trials(m, trials + 1 if trials else 0, mode, rng)

    per_mode: dict[str, dict[str, int]] = {}
    walls: list[float] = []
    for i, trial in enumerate(sampled):
        outcome = plan(m, PlanRequest(start=trial.start, goal=GoalQuery(trial.goal)), oracle)
        if i == 0:
            continue  # warm-up
        stats = per_mode.setdefault(
            trial.mode, {"trials": 0, "successes": 0, "paths_generated": 0}
        )
        stats["trials"] += 1
        if outcome.ok:
            stats["paths_generated"] += 1
        if _succeeded(m, trial, outcome.result):
            stats["successes"] += 1
        walls.append(outcome.wall_time)

    modes = {
        name: ModeStats(
            trials=v["trials"], successes=v["successes"], paths_generated=v["paths_generated"]
        )
        for name, v in per_mode.items()
    }
    import scipy  # for its version only, so importing the CLI loads no scipy

    hardware = f"{platform.platform()} / {platform.processor() or 'unknown cpu'} / python " \
               f"{platform.python_version()} / numpy {np.__version__} / scipy {scipy.__version__}"
    return BenchReport(
        n_trials=trials,
        seed=seed,
        modes=modes,
        wall_times_ms=tuple(walls),
        hardware=hardware,
    )
