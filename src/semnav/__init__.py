"""semnav: three-layer semantic topometric maps and room-graph planning.

The map stacks a metric costmap, an object layer, and a room layer encoded
as a weighted graph; the planner dispatches between discovery, targeted,
and multi-target modes depending on how many nodes match the goal.
"""

from .bench import AdversarialOracle, BenchReport, TruthOracle, run_bench
from .builder import ObjectPlacement, build_semantic_map, load_objects
from .discovery import (
    CooccurrenceTable,
    DiscoveryResponse,
    HttpOracle,
    MockOracle,
    RoomContext,
    goal_llm_response,
    load_cooccurrence_table,
)
from .envgen import EnvSpec, GroundTruth, generate, load_env_spec
from .errors import (
    ConfigError,
    ConflictError,
    DiscoveryFailedError,
    GenerationError,
    GridBoundsError,
    MapConsistencyError,
    MapFormatError,
    OracleParseError,
    SemnavError,
    UnreachableError,
    ValidationError,
)
from .graph import (
    ContainmentEdge,
    GoalQuery,
    GoalState,
    ObjectNode,
    RoomEdge,
    RoomNode,
    SemanticGraph,
    Violation,
    normalize_label,
)
from .mapio import (
    MapMeta,
    SemanticMap,
    assemble_map,
    load_map,
    render_svg,
    save_map,
    validate_semantic_map,
)
from .metric import (
    CostmapGrid,
    GridIndex,
    MetricPoint,
    grid_shortest_path,
    load_costmap,
)
from .planner import (
    PlanOutcome,
    PlanRequest,
    SemanticPath,
    dijkstra,
    plan,
    refine_to_metric,
)
from .segmentation import (
    CategoryRule,
    RoomLabelRaster,
    categorize_room,
    extract_adjacency,
    parse_rules,
    segment_rooms,
)

__version__ = "0.1.0"
