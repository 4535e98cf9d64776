"""Pinned refined plans on an inflated copy of the search pins' map: a band of
inscribed cells 0.3 m wide along every wall, and a graded band beyond it.
The pins in test_search_pins plan on free cells only, so these cover the
graded factors and allow_inscribed through planner.refine_to_metric. Without
inscribed cells, two of the plans fail, as their goal objects lie in the band."""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace

import numpy as np
import pytest
from scipy import ndimage

from semnav import envgen, mapio, planner
from semnav.graph import GoalQuery
from semnav.metric import COST_INSCRIBED, COST_LETHAL, CostmapGrid

# cells within this distance of a lethal cell are inscribed, within
# GRADED_REACH graded, both in cells
INSCRIBED_REACH = 6.0
GRADED_REACH = 16.0


@pytest.fixture(scope="module")
def inflated():
    grid, gt, graph = envgen.generate(envgen.EnvSpec(seed=7, n_rooms=24, resolution=0.05))
    office = mapio.assemble_map(grid, gt.raster, graph, gt.label_to_room, name="pins")
    cells = office.costmap.cells.copy()
    reach = ndimage.distance_transform_edt(cells != COST_LETHAL)
    painted = cells < COST_INSCRIBED
    ramp = np.rint(252.0 * (GRADED_REACH - reach) / (GRADED_REACH - INSCRIBED_REACH))
    graded = painted & (reach > INSCRIBED_REACH) & (reach <= GRADED_REACH)
    cells[graded] = np.maximum(cells[graded], np.clip(ramp[graded], 1, 252).astype(np.uint8))
    cells[painted & (reach <= INSCRIBED_REACH)] = COST_INSCRIBED
    return replace(office, costmap=CostmapGrid(**{**vars(office.costmap), "cells": cells}))


def _outcomes(m, allow_inscribed):
    graph = m.graph
    rng = random.Random(7)
    rooms, objects = sorted(graph.rooms), sorted(graph.objects)
    classes = sorted({o.class_label for o in graph.objects.values()})
    for i in range(18):
        goal = rng.choice(objects) if i % 2 else rng.choice(classes)
        request = planner.PlanRequest(
            start=rng.choice(rooms),
            goal=GoalQuery(goal),
            allow_inscribed=allow_inscribed,
            refine_metric=True,
        )
        yield planner.plan(m, request)


@pytest.mark.parametrize(
    "allow_inscribed, expected",
    [
        (False, "eaa5bbfb35df84c7180e3508b35e56a9284ec1f5c4498e8c0e527e5f3ba39a6c"),
        (True, "2758afe59c9865442e19a57cd5857d157144df178540a6e923ba873c53a77973"),
    ],
)
def test_refined_outcomes_on_inflated_map_are_pinned(inflated, allow_inscribed, expected):
    digest = hashlib.sha256()
    for outcome in _outcomes(inflated, allow_inscribed):
        if outcome.ok:
            digest.update(repr(outcome.result.nodes).encode())
            for x, y in outcome.result.waypoints:
                digest.update(f"{x.hex()},{y.hex()};".encode())
        else:
            digest.update(f"{outcome.failure_reason}: {outcome.detail};".encode())
    assert digest.hexdigest() == expected
