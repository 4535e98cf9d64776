"""Metric layer: costmap grid, PGM import/export, and grid-level shortest paths.

Cell cost convention (one byte per cell):

    0         fully free
    1..252    increasing traversal cost
    253       inscribed / near-lethal (traversable only when explicitly allowed)
    254       lethal obstacle
    255       unknown (always untraversable)

Traversal cost of a step between two traversable cells is

    step_length * 0.5 * (factor(a) + factor(b))

with factor(c) = 1 + c/128 for c <= 252 and factor(253) = 3.0 when inscribed
cells are allowed. Averaging the two endpoint factors keeps the rule symmetric
(cost(a->b) == cost(b->a)) and leaves free-space cost equal to geometric
length. step_length is resolution for the 4 straight moves and
resolution*sqrt(2) for the 4 diagonal moves.

grid_shortest_path finds a leg's minimum-cost path with
scipy.sparse.csgraph.dijkstra on a CSR graph built over an octile ellipse
with foci start and goal, grown until it holds every path no dearer than the
one found. A path of cost C is accepted once the ellipse's span, in cells,
is at least C / resolution * (1 + 2**-30): the relative allowance bounds the
float error of the path's sum and of the ellipse's own sums for paths up to
2**22 steps, so every path no dearer lies in the window and acceptance alone
gives the same cost as a whole-grid search (grid_shortest_path's docstring
has the bound). Each growth round searches the ellipse's bounding box, its
other cells closed, in one window_search call. That is the one csgraph
call site: segmentation.extract_adjacency's per-room searches go through it
too, bounded by the same ellipses with the room's centroid and a portal as
foci and a span read off a path known to be open, so they need no second
search. Nothing is cached on the grid.
The window graph has a fixed degree, a node per cell and 8 moves per node; a
move at a closed cell or off the window weighs inf, and csgraph never relaxes
an inf entry, whatever node it targets. Nodes are numbered row by row, as on
the grid: csgraph's dijkstra (scipy 1.17) breaks ties between equal distances
by node number, so numbering a window's cells in another order can return
another path of equal cost.
scipy is imported by the functions that search, so loading a map needs numpy only.

A LegTable stores paths that grid_shortest_path returned, so a leg it
serves has the bits a search of the leg would give: leg_table builds one
for the anchor cells of each room (one grid_shortest_path call per ordered
pair of anchors, allow_inscribed false), one _MOVES code byte per step, and
LegTable.walk finds legs by binary search over packed (start, goal) keys and
decodes them with one cumsum per axis, checking that each path ends at its
goal and keeps to traversable cells of the grid. Serving needs numpy only.

Per search, the set-up is small: the halved factor tables (half a cell
value's traversal factor, inf at closed values) are built once, at import,
and shared read-only, so a window's edge inputs are one table lookup; the
start-goal distance is float math; the ellipse sums octile terms built
from 1-D row and column distances. scipy's csr_array construction and
dijkstra wrapper, about 60 us of a 4x5 window's 130-140 us on a 2-vCPU VM,
are paid once per window searched.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    GridBoundsError,
    MapFormatError,
    UnreachableError,
    ValidationError,
)

COST_FREE = 0
COST_INSCRIBED = 253
COST_LETHAL = 254
COST_UNKNOWN = 255

INSCRIBED_FACTOR = 3.0

DEFAULT_FREE_THRESH = 250
DEFAULT_LETHAL_THRESH = 50

SQRT2 = math.sqrt(2.0)
_K = SQRT2 - 1.0  # exact: the octile distance's weight of the shorter leg


class GridIndex(NamedTuple):
    col: int
    row: int


class MetricPoint(NamedTuple):
    x: float
    y: float


def kept_rows(values: np.ndarray) -> np.ndarray:
    """Row 0 and every row that differs from the row above, as a read-only index.

    Row kept_rows[i] stands for itself and every row up to the next kept row
    (or the end), all equal to it. A raster with no rows keeps none.
    """
    keep = np.ones(len(values), dtype=bool)
    np.any(values[1:] != values[:-1], axis=1, out=keep[1:])
    rows = np.flatnonzero(keep)
    rows.setflags(write=False)
    return rows


@dataclass(frozen=True)
class CostmapGrid:
    """Immutable 2D cost grid with world-frame geometry.

    cells is row-major with shape (height, width), dtype uint8; the world
    coordinates of the (0, 0) cell corner are (origin_x, origin_y).
    """

    width: int
    height: int
    resolution: float
    origin_x: float
    origin_y: float
    cells: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.width <= 0 or self.height <= 0:
            raise ValidationError("grid dimensions must be positive")
        if not (self.resolution > 0 and math.isfinite(self.resolution)):
            raise ValidationError(f"resolution must be positive and finite, got {self.resolution}")
        if not (math.isfinite(self.origin_x) and math.isfinite(self.origin_y)):
            raise ValidationError(f"origin must be finite, got ({self.origin_x}, {self.origin_y})")
        cells = np.ascontiguousarray(self.cells, dtype=np.uint8)
        if cells.size != self.width * self.height:
            raise ValidationError(
                f"cell count {cells.size} != width*height {self.width * self.height}"
            )
        cells = cells.reshape(self.height, self.width)
        cells.setflags(write=False)
        object.__setattr__(self, "cells", cells)

    def __eq__(self, other):
        if not isinstance(other, CostmapGrid):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and self.resolution == other.resolution
            and self.origin_x == other.origin_x
            and self.origin_y == other.origin_y
            and np.array_equal(self.cells, other.cells)
        )

    def in_bounds(self, index: GridIndex) -> bool:
        return 0 <= index.col < self.width and 0 <= index.row < self.height

    def world_to_grid(self, p: MetricPoint) -> GridIndex:
        """Map a world point to the grid cell containing it."""
        fx = (p.x - self.origin_x) / self.resolution
        fy = (p.y - self.origin_y) / self.resolution
        if math.isfinite(fx) and math.isfinite(fy):
            idx = GridIndex(math.floor(fx), math.floor(fy))
            if self.in_bounds(idx):
                return idx
        raise GridBoundsError(f"point ({p.x}, {p.y}) outside grid bounds")

    def grid_to_world(self, index: GridIndex) -> MetricPoint:
        """World coordinates of a cell's center."""
        if not self.in_bounds(index):
            raise GridBoundsError(f"index {index} outside {self.width}x{self.height} grid")
        return MetricPoint(
            self.origin_x + (index.col + 0.5) * self.resolution,
            self.origin_y + (index.row + 0.5) * self.resolution,
        )


# ---------------------------------------------------------------------------
# PGM I/O


def read_pgm(path) -> tuple[np.ndarray, int]:
    """Read a binary (P5) PGM file. Returns (array, maxval).

    maxval 255 yields uint8, larger maxvals (up to 65535) yield uint16
    decoded big-endian per the format.
    """
    with open(path, "rb") as f:
        data = f.read()
    tokens = []
    pos = 0
    while len(tokens) < 4:
        if pos >= len(data):
            raise MapFormatError(f"{path}: truncated PGM header")
        c = data[pos : pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            nl = data.find(b"\n", pos)
            pos = len(data) if nl < 0 else nl + 1
        else:
            end = pos
            while end < len(data) and not data[end : end + 1].isspace():
                end += 1
            tokens.append(data[pos:end])
            pos = end
    if tokens[0] != b"P5":
        raise MapFormatError(f"{path}: not a binary PGM (magic {tokens[0]!r})")
    try:
        width, height, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    except ValueError as exc:
        raise MapFormatError(f"{path}: non-numeric PGM header field") from exc
    if width <= 0 or height <= 0 or not (0 < maxval < 65536):
        raise MapFormatError(f"{path}: bad PGM dimensions {width}x{height} max {maxval}")
    pos += 1  # single whitespace byte after maxval
    bytes_per = 1 if maxval < 256 else 2
    need = width * height * bytes_per
    got = max(0, len(data) - pos)
    if got < need:
        raise MapFormatError(f"{path}: truncated PGM raster ({got}/{need} bytes)")
    dtype = np.uint8 if bytes_per == 1 else np.dtype(">u2")
    arr = np.frombuffer(data, dtype, count=width * height, offset=pos).reshape(height, width)
    return arr.astype(np.uint8 if bytes_per == 1 else np.uint16), maxval


def write_pgm(path, array: np.ndarray) -> None:
    """Write a binary (P5) PGM: uint8 data with maxval 255, else big-endian
    16-bit with maxval 65535."""
    arr = np.asarray(array)
    maxval, dtype = (255, np.uint8) if arr.dtype == np.uint8 else (65535, np.dtype(">u2"))
    header = f"P5\n{arr.shape[1]} {arr.shape[0]}\n{maxval}\n".encode("ascii")
    payload = arr.astype(dtype).tobytes()
    with open(path, "wb") as f:
        f.write(header + payload)


def read_text_lines(path) -> list[tuple[str, str]]:
    """(where, line), where = "path:lineno", for each stripped line of a UTF-8
    text file that is neither blank nor a # comment; undecodable bytes raise ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = [line.strip() for line in f]
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    return [(f"{path}:{n}", line) for n, line in enumerate(lines, 1) if line and line[0] != "#"]


def read_key_value_file(path, *, required: set[str], allowed: set[str]) -> dict[str, str]:
    """Parse a UTF-8 `key: value` per line file, rejecting unknown keys."""
    values: dict[str, str] = {}
    for where, line in read_text_lines(path):
        if ":" not in line:
            raise ConfigError(f"{where}: expected 'key: value', got {line!r}")
        key, value = line.split(":", 1)
        key = key.strip()
        if key not in allowed:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        values[key] = value.strip()
    missing = required - values.keys()
    if missing:
        raise ConfigError(f"{path}: missing required key(s): {', '.join(sorted(missing))}")
    return values


_META_KEYS = {"resolution", "origin_x", "origin_y", "free_thresh", "lethal_thresh"}


def load_costmap(image_path, meta_path) -> CostmapGrid:
    """Load a grayscale occupancy PGM plus metadata into a CostmapGrid.

    Pixel mapping: >= free_thresh -> 0, <= lethal_thresh -> 254, in between
    linearly rescaled into 1..252 (darker pixels cost more). The thresholds
    live in the metadata file so the mapping is reproducible bit for bit.
    """
    meta = read_key_value_file(
        meta_path, required={"resolution", "origin_x", "origin_y"}, allowed=_META_KEYS
    )
    try:
        resolution = float(meta["resolution"])
        origin_x = float(meta["origin_x"])
        origin_y = float(meta["origin_y"])
        free_thresh = int(meta.get("free_thresh", DEFAULT_FREE_THRESH))
        lethal_thresh = int(meta.get("lethal_thresh", DEFAULT_LETHAL_THRESH))
    except ValueError as exc:
        raise ConfigError(f"{meta_path}: non-numeric value: {exc}") from exc
    if not (0 <= lethal_thresh < free_thresh <= 255):
        raise ConfigError(
            f"{meta_path}: need 0 <= lethal_thresh < free_thresh <= 255, "
            f"got {lethal_thresh}/{free_thresh}"
        )

    pixels, maxval = read_pgm(image_path)
    if maxval != 255:
        raise MapFormatError(f"{image_path}: costmap PGM must have maxval 255, got {maxval}")
    cells = pixels_to_costs(pixels, free_thresh=free_thresh, lethal_thresh=lethal_thresh)
    h, w = cells.shape
    try:
        return CostmapGrid(w, h, resolution, origin_x, origin_y, cells)
    except ValidationError as exc:  # the geometry the meta file gives
        raise ValidationError(f"{meta_path}: {exc}") from exc


def pixels_to_costs(pixels: np.ndarray, *, free_thresh: int, lethal_thresh: int) -> np.ndarray:
    """Threshold/rescale 8-bit grayscale pixels into cost values, through a
    table of the cost of each of the 256 pixel values."""
    p = np.arange(256)
    # Integer linear ramp over the open interval, rounded half-up; the span
    # degenerates when the thresholds leave a single intermediate pixel value.
    span = max(1, free_thresh - lethal_thresh - 2)
    ramp = 1 + ((free_thresh - 1 - p) * 251 + span // 2) // span
    ramp = np.clip(ramp, 1, 252)
    table = np.where(p >= free_thresh, COST_FREE, np.where(p <= lethal_thresh, COST_LETHAL, ramp))
    return table.astype(np.uint8)[pixels]


def costs_to_pixels(costs: np.ndarray) -> np.ndarray:
    """Render cost values as grayscale occupancy pixels (for external tools).

    Exact for free (255) and lethal/inscribed (0) cells; graded costs are
    squeezed into the open interval between the default thresholds (lossy:
    it has fewer pixel values than there are graded costs). Unknown maps to
    205.
    """
    c = costs.astype(np.int64)
    lo, hi = DEFAULT_LETHAL_THRESH + 1, DEFAULT_FREE_THRESH - 1
    span = max(1, hi - lo)
    ramp = hi - ((c - 1) * span + 125) // 251
    ramp = np.clip(ramp, lo, hi)
    out = np.where(
        c == COST_FREE,
        255,
        np.where(c == COST_UNKNOWN, 205, np.where(c >= COST_INSCRIBED, 0, ramp)),
    )
    return out.astype(np.uint8)


# ---------------------------------------------------------------------------
# Grid shortest path

# (drow, dcol) of the 8 moves, in the order each node's CSR row lists them.
_MOVES = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))
# (drow, dcol, step, k, back) of the four forward moves E, SE, S and SW: the
# move, its length in cells, and where it and its reverse sit in _MOVES.
_PAIRS = tuple(
    (drow, dcol, SQRT2 if drow and dcol else 1.0, *map(_MOVES.index, ((drow, dcol), (-drow, -dcol))))
    for drow, dcol in ((0, 1), (1, 1), (1, 0), (1, -1))
)

# Slack, in cells, of the first search ellipse beyond the octile distance
# from start to goal.
_FIRST_SLACK = 2.0

# A path's cost C is proven once E(C / resolution * _ROUNDING) fits in its
# window: the factor bounds the float error of C and of the ellipse's sums
# for paths up to 2**22 steps (grid_shortest_path says why).
_ROUNDING = 1.0 + 2.0**-30


def _halves(allow_inscribed: bool) -> np.ndarray:
    """Read-only half of each cell value's traversal factor, inf where untraversable.

    Halving is exact, so h_a + h_b == 0.5 * (f_a + f_b) bit for bit."""
    halves = np.full(256, np.inf)
    halves[:253] = 0.5 * (1.0 + np.arange(253) / 128.0)
    if allow_inscribed:
        halves[COST_INSCRIBED] = 0.5 * INSCRIBED_FACTOR
    halves.setflags(write=False)
    return halves


# indexed by allow_inscribed
_HALF_TABLES = (_halves(False), _halves(True))


def half_table(allow_inscribed: bool = False) -> np.ndarray:
    """Half the traversal factor per cell value; inf marks untraversable
    values. The table is shared and read-only."""
    return _HALF_TABLES[allow_inscribed]


def _octile_distance(a: GridIndex, b: GridIndex) -> float:
    """Octile distance in cells between two cells: max + k * min of |drow|
    and |dcol|, k = sqrt(2) - 1, the bits of ellipse's octile terms."""
    drow, dcol = abs(a.row - b.row), abs(a.col - b.col)
    return max(drow, dcol) + _K * min(drow, dcol)


def grid_shortest_path(
    g: CostmapGrid,
    start: GridIndex,
    goal: GridIndex,
    *,
    allow_inscribed: bool = False,
) -> tuple[tuple[np.ndarray, np.ndarray], float]:
    """Minimum-cost 8-connected path from start to goal.

    Returns ((cols, rows), cost): the path's column and row indices, two int
    arrays from start to goal, and its exact cost, bit for bit; among
    equal-cost paths, csgraph's deterministic choice for the cells searched.
    Raises GridBoundsError for an endpoint off the grid, ValidationError for
    an untraversable one and UnreachableError when no route exists.

    The search runs on the octile ellipse E(span), the cells v with
    octile(start, v) + octile(v, goal) <= span in cells, from
    span = direct + 2, direct = octile(start, goal). Every step costs at
    least resolution times its length, so in exact arithmetic E(C / resolution)
    holds every path of cost <= C. A path found of cost C is accepted once
    C / resolution * (1 + e) <= span, e = 2**-30 (_ROUNDING = 1 + e), which
    bounds the float error. With u = 2**-53, a step's weight is within 2u of
    its exact value, csgraph's sum of m steps within (m - 1) * u, and the
    division, the product by 1 + e and a cell's octile sum add a few u more:
    under 2**-31 + 8u < e for m up to 2**22, which covers every shortest path
    on a grid of up to 2**22 cells, as such a path visits no cell twice. So
    E(C / resolution * (1 + e)) holds every path whose float cost is <= C,
    and once it lies in the window no path outside can be cheaper:
    acceptance alone makes the cost equal a whole-grid search's. A path not
    accepted is searched again with span = C / resolution * (1 + e), which
    accepts, or, if none was found, with four times the slack span - direct,
    until E(span) covers the grid. How the ellipse grows decides only how
    many windows a leg takes.
    """
    halves = _HALF_TABLES[allow_inscribed]
    start, goal = GridIndex(*start), GridIndex(*goal)
    for name, idx in (("start", start), ("goal", goal)):
        if not g.in_bounds(idx):
            raise GridBoundsError(f"{name} {idx} outside {g.width}x{g.height} grid")
    for name, idx in (("start", start), ("goal", goal)):
        if halves[g.cells[idx.row, idx.col]] == math.inf:
            raise ValidationError(f"{name} cell {idx} is untraversable")
    direct = _octile_distance(start, goal)
    span = direct + _FIRST_SLACK
    whole_grid = (slice(0, g.height), slice(0, g.width))
    while True:
        top, left, inside = ellipse(whole_grid, start, goal, span)
        height, width = inside.shape
        # the window's halved factors in a ring of inf, inf outside the ellipse
        ring = np.full((height + 2, width + 2), np.inf)
        window = ring[1:-1, 1:-1]
        window[...] = halves[g.cells[top : top + height, left : left + width]]
        window[~inside] = np.inf
        source = (start.row - top) * width + start.col - left
        dist, pred = window_search(ring, g.resolution, source)
        v = (goal.row - top) * width + goal.col - left
        cost = float(dist[v])
        bound = cost / g.resolution * _ROUNDING
        if bound <= span:
            flat = []
            while v >= 0:  # pred is negative at the start
                flat.append(v)
                v = pred.item(v)
            rows, cols = np.divmod(np.array(flat[::-1]), width)
            return (cols + left, rows + top), cost
        if cost < math.inf:
            span = bound
        elif inside.size == g.cells.size and inside.all():
            raise UnreachableError(f"no traversable route from {start} to {goal}")
        else:
            span = direct + 4.0 * (span - direct)


# ---------------------------------------------------------------------------
# Leg table

# Per _MOVES code, and 8 for a leg's start cell (no step): its row and column step.
_STEP_ROWS = np.array([drow for drow, _ in _MOVES] + [0])
_STEP_COLS = np.array([dcol for _, dcol in _MOVES] + [0])
# (drow + 1) * 3 + dcol + 1 -> _MOVES code (4, the null step, is never looked up)
_MOVE_CODES = np.array([0, 1, 2, 3, 8, 4, 5, 6, 7], dtype=np.uint8)


@dataclass(frozen=True, eq=False)
class LegTable:
    """Stored minimum-cost paths between anchor cells of a width x height grid.

    Three arrays and no per-leg object: keys, strictly increasing, packs
    each leg's start and goal flat cell indices (row * width + col) as
    start * width * height + goal; leg i's path is moves[offsets[i]:
    offsets[i + 1]], one _MOVES code (0-7) per step from its start. Every
    path was returned by grid_shortest_path with allow_inscribed false
    (leg_table builds them), so a table serves only such searches, and only
    on the costmap it was built from: walk checks each path it serves.
    """

    width: int
    height: int
    keys: np.ndarray
    offsets: np.ndarray
    moves: np.ndarray

    def __eq__(self, other):
        if not isinstance(other, LegTable):
            return NotImplemented
        same = map(
            np.array_equal, (self.keys, self.offsets, self.moves), (other.keys, other.offsets, other.moves)
        )
        return (self.width, self.height) == (other.width, other.height) and all(same)

    def key(self, a: GridIndex, b: GridIndex) -> int | None:
        """Leg a -> b's key, None when an end is off the table's grid, where
        its flat index would name another cell."""
        w, h = self.width, self.height
        if 0 <= a.col < w and 0 <= a.row < h and 0 <= b.col < w and 0 <= b.row < h:
            return (a.row * w + a.col) * (w * h) + b.row * w + b.col
        return None

    def walk(self, g: CostmapGrid, legs: list[tuple[GridIndex, GridIndex]]) -> list:
        """Per (start, goal) leg, its stored path as (cols, rows) arrays from
        start to goal, None when the table lacks the leg (every leg, if g's
        size is not the table's, and a leg with an end off the grid), or the
        fault of a stored path that does not end at its goal, leaves the grid
        or crosses a cell untraversable on g. Each leg is found by binary
        search over keys."""
        found: list = [None] * len(legs)
        if not len(self.keys) or (g.width, g.height) != (self.width, self.height):
            return found
        keys = [self.key(a, b) for a, b in legs]
        asked = [i for i, k in enumerate(keys) if k is not None]
        wanted = np.array([keys[i] for i in asked], dtype=np.uint64)
        at = np.minimum(np.searchsorted(self.keys, wanted), len(self.keys) - 1)
        hit = self.keys[at] == wanted
        served = [asked[j] for j in np.flatnonzero(hit).tolist()]
        if served:
            cols, rows, first, faults = self._paths(g, at[hit], *self._ends(wanted[hit]))
            bounds = first.tolist()
            for j, i in enumerate(served):
                leg = slice(bounds[j], bounds[j + 1])
                found[i] = faults[j] or (cols[leg], rows[leg])
        return found

    def faults(self, g: CostmapGrid) -> list[tuple[GridIndex, GridIndex, str]]:
        """(start, goal, fault) of every stored path that walk would refuse on g."""
        if not len(self.keys):
            return []
        starts, goals = self._ends(self.keys)
        _, _, _, faults = self._paths(g, np.arange(len(self.keys)), starts, goals)
        return [
            (GridIndex(sc, sr), GridIndex(gc, gr), fault)
            for sr, sc, gr, gc, fault in zip(*(a.tolist() for a in (*starts, *goals)), faults)
            if fault
        ]

    def _ends(self, keys: np.ndarray):
        """(rows, cols) of these keys' starts and of their goals."""
        flat = np.divmod(keys.astype(np.int64), self.width * self.height)
        return tuple(np.divmod(k, self.width) for k in flat)

    def _paths(self, g, at, starts, goals):
        """(cols, rows, first, faults) of the legs at these key positions, whose
        (rows, cols) of starts and goals are given: the legs' cells back to
        back, leg j's (start included) at first[j] up to first[j + 1], and
        per leg its fault, '' for a path walk may serve.

        One gather and one cumsum per axis decode every leg: each leg's cells
        are its start plus the running sum of its steps, its start cell a null
        step (code 8) that the start's offset is added at."""
        a = self.offsets[at].astype(np.int64)
        sizes = self.offsets[at + 1] - a + 1  # cells, the start's included
        first = np.zeros(len(at) + 1, dtype=np.int64)
        np.cumsum(sizes, out=first[1:])
        step = np.arange(first[-1]) + np.repeat(a - 1 - first[:-1], sizes)
        codes = self.moves[step] if len(self.moves) else np.zeros(len(step), dtype=np.uint8)
        codes[first[:-1]] = 8
        rows, cols = _STEP_ROWS[codes], _STEP_COLS[codes]
        for line, origin in ((rows, starts[0]), (cols, starts[1])):
            np.cumsum(line, out=line)
            line += np.repeat(origin - line[first[:-1]], sizes)
        last = first[1:] - 1
        astray = (rows[last] != goals[0]) | (cols[last] != goals[1])
        on = (rows.view(np.uint64) < g.height) & (cols.view(np.uint64) < g.width)
        if on.all():
            shut = g.cells[rows, cols] >= COST_INSCRIBED
        else:
            shut = g.cells[np.where(on, rows, 0), np.where(on, cols, 0)] >= COST_INSCRIBED
            shut |= ~on
        if not (astray.any() or shut.any()):
            return cols, rows, first, [""] * len(at)
        off = np.logical_or.reduceat(~on, first[:-1]).tolist()
        closed = np.logical_or.reduceat(shut, first[:-1]).tolist()
        faults = [
            "leaves the grid" if o else "crosses an untraversable cell" if c else
            "does not end at its goal" if s else ""
            for o, c, s in zip(off, closed, astray.tolist())
        ]
        return cols, rows, first, faults


def leg_table(g: CostmapGrid, rooms: Iterable[Iterable[GridIndex]]) -> LegTable:
    """The table of every ordered pair of anchor cells that share a room
    (each pair of cells of one of rooms), a cell and itself included, that
    a route joins.

    Each pair's path is one grid_shortest_path call with allow_inscribed
    false, so a stored path is that search's own output, bit for bit.
    Anchors off the grid or untraversable are left out, and so is a pair
    with no route.
    """
    partners: dict[GridIndex, set[GridIndex]] = {}
    for anchors in rooms:
        open_ = {
            a for a in map(GridIndex._make, anchors)
            if g.in_bounds(a) and g.cells[a.row, a.col] < COST_INSCRIBED
        }
        for a in open_:
            partners.setdefault(a, set()).update(open_)
    width, cells = g.width, g.width * g.height

    def flat(a: GridIndex) -> int:
        return a.row * width + a.col

    keys: list[int] = []
    paths: list[np.ndarray] = []
    for source in sorted(partners, key=flat):  # in key order
        for goal in sorted(partners[source], key=flat):
            try:
                (cols, rows), _ = grid_shortest_path(g, source, goal)
            except UnreachableError:
                continue
            keys.append(flat(source) * cells + flat(goal))
            paths.append(_MOVE_CODES[np.diff(rows) * 3 + np.diff(cols) + 4])
    offsets = np.zeros(len(keys) + 1, dtype=np.int64)
    np.cumsum([len(path) for path in paths], out=offsets[1:])
    moves = np.concatenate(paths) if paths else np.zeros(0, np.uint8)
    keys = np.array(keys, dtype=np.uint64)
    return LegTable(g.width, g.height, keys, offsets, moves)


def _reach(slack: float) -> int:
    """How many cells E(direct + slack) reaches past its foci's range of rows
    or of columns.

    A cell k rows or columns outside the foci's box has an octile sum of at
    least direct + 2 * (sqrt(2) - 1) * k, as each term grows by at least
    sqrt(2) - 1 per step away from both foci. The + 1 absorbs rounding.
    """
    return math.ceil(slack / (2.0 * (SQRT2 - 1.0))) + 1


def ellipse(box: tuple[slice, slice], start: GridIndex, goal: GridIndex, span: float):
    """(top, left, inside): E(span), the cells v with
    octile(start, v) + octile(v, goal) <= span in cells, cut to box (a pair
    of row and column slices of the grid, holding start and goal) and given
    as a mask over its bounding box, whose first cell is (top, left).

    Each focus's octile term is max(|dc| + k * |dr|, |dr| + k * |dc|),
    k = sqrt(2) - 1, from a column of |dr| and a row of |dc| and their k
    multiples, so only the two sums and their max touch the whole box. It is
    the same bits as max + k * min of _octile_distance: the larger branch
    adds k times the smaller distance, and whenever |dr| != |dc| the
    branches differ by at least (1 - k) * ||dr| - |dc|| >= 0.58, far past
    rounding.
    """
    reach = _reach(span - _octile_distance(start, goal))
    top = max(box[0].start, min(start.row, goal.row) - reach)
    bottom = min(box[0].stop, max(start.row, goal.row) + reach + 1)
    left = max(box[1].start, min(start.col, goal.col) - reach)
    right = min(box[1].stop, max(start.col, goal.col) + reach + 1)
    total, term, other = np.empty((3, bottom - top, right - left))
    for focus, out in ((start, total), (goal, term)):
        drow = np.abs(np.arange(top - focus.row, bottom - focus.row, dtype=float))[:, None]
        dcol = np.abs(np.arange(left - focus.col, right - focus.col, dtype=float))
        np.add(dcol, _K * drow, out=out)
        np.add(drow, _K * dcol, out=other)
        np.maximum(out, other, out=out)
    total += term
    inside = total <= span
    r = np.flatnonzero(inside.any(axis=1))
    c = np.flatnonzero(inside.any(axis=0))
    return top + int(r[0]), left + int(c[0]), inside[r[0] : r[-1] + 1, c[0] : c[-1] + 1]


def window_search(ring: np.ndarray, resolution: float, source: int):
    """(dist, pred), flat over the window's cells, of Dijkstra over the
    window from its flat cell index source: one csgraph call over
    _ring_graph(ring, resolution), which says what a ring holds.
    dist[v] is the cheapest-path cost to window cell v, inf where unreached;
    pred[v] is the cell before it on that path, negative at the source and
    where unreached.
    """
    from scipy.sparse.csgraph import dijkstra

    return dijkstra(_ring_graph(ring, resolution), indices=source, return_predecessors=True)


def _ring_graph(ring: np.ndarray, resolution: float):
    """The CSR graph of the 8-connected moves over every cell of a window,
    from the window's halved factors (inf at closed cells) held in an inf
    ring one cell deep, the most a move shifts a row or a column.

    Node u * width + v is window cell (u, v); its row lists its 8 moves in
    _MOVES order. A move weighs step * (0.5 * (f_a + f_b)), or inf at a
    closed cell and off the window, where it targets some node of the
    window: csgraph never relaxes an inf entry.

    The graph is symmetric: w(u -> v) and w(v -> u) are one sum, as IEEE
    addition commutes. So each forward move (E, SE, S, SW) sums two shifted
    slices of the ring once, over every pair with a cell in the window, and
    scales the sums by resolution * step in place; that one array fills both
    the move's column of the (nodes, 8) weights and its reverse's. The
    targets of each move are node + offset, one 1-D add. No move shifts a
    node number by more than width + 1, so only the first and last width + 1
    nodes' targets are clamped into the window.
    """
    from scipy.sparse import csr_array

    height, width = ring.shape[0] - 2, ring.shape[1] - 2
    n = height * width
    weights = np.empty((height, width, len(_MOVES)))
    targets = np.empty((n, len(_MOVES)), dtype=np.int32)
    node = np.arange(n, dtype=np.int32)
    for drow, dcol, step, forward, back in _PAIRS:
        lo = 1 + min(0, -dcol)  # the ring column of the first pair's tail
        # w(p, p + move) for p in window rows -drow .. height - 1
        pair = np.add(
            ring[1 - drow : 1 + height, lo : lo + width + abs(dcol)],
            ring[1 : 1 + height + drow, lo + dcol : lo + dcol + width + abs(dcol)],
        )
        pair *= resolution * step
        weights[..., forward] = pair[drow:, 1 - lo : 1 - lo + width]
        weights[..., back] = pair[:height, 1 - lo - dcol : 1 - lo - dcol + width]
        np.add(node, drow * width + dcol, out=targets[:, forward])
        np.subtract(node, drow * width + dcol, out=targets[:, back])
    edge = width + 1
    np.maximum(targets[:edge], 0, out=targets[:edge])
    np.minimum(targets[-edge:], n - 1, out=targets[-edge:])
    indptr = np.arange(0, len(_MOVES) * n + 1, len(_MOVES), dtype=np.int32)
    return csr_array((weights.reshape(-1), targets.reshape(-1), indptr), shape=(n, n))
