import json
import random

import numpy as np
import pytest
import scipy

from semnav.bench import (
    AdversarialOracle,
    ModeStats,
    TruthOracle,
    run_bench,
    sample_trials,
)
from semnav.errors import ValidationError

from mapfactory import fig_office_map, strip_map


@pytest.fixture
def multi_map():
    return strip_map(
        rooms=[("a", "x"), ("b", "x"), ("c", "x"), ("d", "x")],
        objects=[
            ("desk_1", "desk", "a"),
            ("desk_2", "desk", "c"),
            ("mug_1", "mug", "b"),
            ("mug_2", "mug", "d"),
            ("lamp_1", "lamp", "b"),
        ],
        edges=[("a", "b", 1.0), ("b", "c", 1.0), ("c", "d", 1.0)],
    )


class TestReportShape:
    def test_zero_trials_empty_report(self, multi_map):
        report = run_bench(multi_map, trials=0, mode="targeted", seed=3)
        assert report.n_trials == 0
        assert report.modes == {}
        doc = report.to_dict()
        assert doc["modes"] == {}
        assert "wall_time_ms" not in doc
        assert doc["version"] == 1

    def test_targeted_all_goals_present_success_one(self, multi_map):
        report = run_bench(multi_map, trials=50, mode="targeted", seed=5)
        stats = report.modes["targeted"]
        assert stats.trials == 50
        assert stats.success_rate == 1.0
        assert stats.paths_generated == 50
        assert report.wall_max is not None and report.wall_max > 0

    def test_multi_target_mode_samples_multi_instance_classes(self, multi_map):
        report = run_bench(multi_map, trials=20, mode="multi-target", seed=5)
        assert report.modes["multi-target"].success_rate == 1.0

    def test_multi_target_unavailable_raises(self):
        solo = strip_map(
            rooms=[("a", "x")],
            objects=[("desk_1", "desk", "a")],
        )
        with pytest.raises(ValidationError):
            run_bench(solo, trials=5, mode="multi-target", seed=1)

    def test_unknown_mode_rejected(self, multi_map):
        with pytest.raises(ValidationError):
            run_bench(multi_map, trials=5, mode="teleport", seed=1)

    def test_table_and_json_render(self, multi_map):
        report = run_bench(multi_map, trials=10, mode="mixed", seed=5,
                           oracle=TruthOracle(multi_map))
        text = report.table()
        assert "targeted" in text and "rate" in text
        doc = json.loads(report.to_json())
        assert doc["n_trials"] == 10
        assert doc["hardware"]
        assert f"numpy {np.__version__}" in doc["hardware"]
        assert f"scipy {scipy.__version__}" in doc["hardware"]
        assert doc["wall_time_ms"]["max"] >= doc["wall_time_ms"]["p50"]

    def test_report_reproducible_modulo_wall_time(self, multi_map):
        a = run_bench(multi_map, trials=25, mode="mixed", seed=9, oracle=TruthOracle(multi_map))
        b = run_bench(multi_map, trials=25, mode="mixed", seed=9, oracle=TruthOracle(multi_map))
        da, db = a.to_dict(), b.to_dict()
        da.pop("wall_time_ms"), db.pop("wall_time_ms")
        da.pop("hardware"), db.pop("hardware")
        assert da == db


class TestDiscoveryTrials:
    def test_truth_oracle_matches_targeted_success(self, multi_map):
        # identical (start, goal-object) pairs: discovery with a truthful
        # oracle must succeed exactly as often as targeted navigation
        targeted = run_bench(multi_map, trials=40, mode="targeted", seed=77)
        discovery = run_bench(
            multi_map, trials=40, mode="discovery", seed=77, oracle=TruthOracle(multi_map)
        )
        assert (
            discovery.modes["discovery"].success_rate
            == targeted.modes["targeted"].success_rate
            == 1.0
        )

    def test_adversarial_oracle_never_arrives_but_still_plans(self, multi_map):
        report = run_bench(
            multi_map, trials=40, mode="discovery", seed=77, oracle=AdversarialOracle(multi_map)
        )
        stats = report.modes["discovery"]
        assert stats.successes == 0
        assert stats.paths_generated == stats.trials == 40

    def test_sampled_alias_goals_absent_from_graph(self, multi_map):
        rng = random.Random(4)
        for trial in sample_trials(multi_map, 30, "discovery", rng):
            assert trial.goal not in multi_map.graph.rooms
            assert trial.goal not in multi_map.graph.objects
            state = multi_map.graph.find_goal_state
            from semnav.graph import GoalQuery

            assert state(GoalQuery(trial.goal)) == ()

    def test_discovery_without_oracle_generates_no_paths(self, multi_map):
        report = run_bench(multi_map, trials=10, mode="discovery", seed=3, oracle=None)
        stats = report.modes["discovery"]
        assert stats.paths_generated == 0 and stats.successes == 0

    def test_truth_oracle_on_unreachable_room_still_counts_failure(self):
        m = strip_map(
            rooms=[("a", "x"), ("island", "x")],
            objects=[("desk_1", "desk", "island"), ("mug_1", "mug", "a")],
            edges=[],
        )
        report = run_bench(m, trials=20, mode="discovery", seed=8, oracle=TruthOracle(m))
        stats = report.modes["discovery"]
        assert stats.trials == 20
        assert stats.successes < stats.trials  # island goals cannot be reached


class TestFigMapBench:
    def test_wall_time_stats_are_consistent(self):
        m = fig_office_map()
        report = run_bench(m, trials=30, mode="targeted", seed=1)
        assert len(report.wall_times_ms) == 30
        assert report.wall_max >= report.wall_p50 >= 0
        assert report.wall_mean == pytest.approx(
            sum(report.wall_times_ms) / len(report.wall_times_ms)
        )

    def test_mode_stats_success_rate_none_for_empty(self):
        stats = ModeStats(trials=0, successes=0, paths_generated=0)
        assert stats.success_rate is None
