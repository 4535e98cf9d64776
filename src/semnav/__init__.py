"""semnav: three-layer semantic topometric maps and room-graph planning.

The map stacks a metric costmap, an object layer, and a room layer encoded
as a weighted graph; the planner dispatches between discovery, targeted,
and multi-target modes depending on how many nodes match the goal.

Import what you use from its module (`semnav.envgen`, `semnav.graph`,
`semnav.mapio`, `semnav.planner`, ...): the package root loads none of them.
"""

__version__ = "0.1.0"
