"""Exception hierarchy shared across the package.

Raising vs returning: file/format/argument problems raise; planning failures
(no route, discovery failed, invalid start) are reported through PlanOutcome
so callers can dispatch on them without try/except.
"""


class SemnavError(Exception):
    """Base class for all package errors."""


class MapFormatError(SemnavError):
    """Malformed or truncated PGM/JSON payload, or unsupported map version."""


class ConfigError(SemnavError):
    """Bad metadata, rules, spec, or table file: missing/unknown/duplicate keys."""


class ValidationError(SemnavError):
    """An argument or structure violates a documented invariant."""


class ConflictError(ValidationError):
    """Two rooms, or two objects, share an id."""


class GridBoundsError(SemnavError):
    """A world point or grid index falls outside the grid."""


class UnreachableError(SemnavError):
    """No traversable route exists between two grid cells.

    Kept distinct from ValidationError: an unreachable goal is a fact about
    the costmap, not a caller bug. The planner's metric refinement reports it
    as an UnrealizableRouteError, since the room graph promised a route.
    """


class DiscoveryFailedError(SemnavError):
    """The goal-discovery oracle produced no usable ranking."""


class OracleParseError(SemnavError):
    """The oracle transport succeeded but the payload violates the schema."""


class GenerationError(SemnavError):
    """An environment spec cannot be realized (rooms do not fit, etc.)."""


class MapConsistencyError(SemnavError):
    """Cross-layer disagreement between costmap, room raster, and graph.

    violations holds every broken invariant when a map was judged as a whole.
    """

    def __init__(self, message: str, violations=()):
        super().__init__(message)
        self.violations = list(violations)


class UnrealizableRouteError(MapConsistencyError):
    """A room route has a leg that no cell-level route on the costmap realizes."""
