"""Room segmentation of a costmap and rule-based place categorization.

Segmentation is a deterministic watershed over the Euclidean distance
transform of free space:

  1. per free cell, distance to the nearest untraversable cell;
  2. seed regions at distance local maxima deeper than half the doorway
     threshold;
  3. flood seeds outward (4-connected), claiming cells in the order
     (-distance, row, col); each cell takes the smallest seed label
     offered to it by an already-claimed neighbour. The flood runs as two
     frontier relaxations over the raster, not a loop over its cells: one
     gives each cell the time it is claimed at, the other its label;
  4. merge regions whose shared boundary is wider than the doorway
     threshold (they are halves of one space, not two rooms);
  5. absorb regions smaller than the minimum room size into their largest
     neighbor.

Only the largest 4-connected free component is segmented; free pockets a
robot could never reach keep label 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError, MapConsistencyError, ValidationError
from .graph import RoomEdge, UNCATEGORIZED, normalize_label
from .metric import (
    COST_INSCRIBED, SQRT2, CostmapGrid, GridIndex, ellipse, half_table, kept_rows,
    read_text_lines, window_search,
)

DEFAULT_DOOR_WIDTH_MAX = 1.2  # meters
DEFAULT_MIN_ROOM_AREA = 4.0  # square meters

MAX_ROOM_LABEL = 2**16 - 1  # room labels are stored as uint16
FOUR_CONNECTED = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)


@dataclass(frozen=True)
class RoomLabelRaster:
    """Row-major room labels, same dimensions as the source costmap.

    Label 0 marks non-room cells (walls, unknown, unreachable pockets);
    label k > 0 marks room k's cells.

    boxes and components come from one table of the raster's row runs. A run
    is a maximal stretch of one nonzero label within one row, held as its
    label and its flat [start, end) range in the row-major raster. The table
    is built over kept_rows only: a row equal to the row above joins only its
    own copy, so dropping it changes no component count, and each box is
    mapped back through the kept rows' starts.
    """

    width: int
    height: int
    labels: np.ndarray = field(repr=False)

    def __post_init__(self):
        labels = np.asarray(self.labels)
        # a uint8/uint16 raster (any PGM) fits as it is; others are checked before the cast
        if labels.size and not np.can_cast(labels.dtype, np.uint16):
            if not (0 <= labels.min() and labels.max() <= MAX_ROOM_LABEL):
                raise ValidationError(f"room labels must lie in 0..{MAX_ROOM_LABEL}")
        labels = np.ascontiguousarray(labels, dtype=np.uint16)
        if labels.shape != (self.height, self.width):
            raise ValidationError(
                f"label raster shape {labels.shape} != ({self.height}, {self.width})"
            )
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

    def __eq__(self, other):
        if not isinstance(other, RoomLabelRaster):
            return NotImplemented
        return (
            self.width == other.width
            and self.height == other.height
            and np.array_equal(self.labels, other.labels)
        )

    def room_labels(self) -> list[int]:
        return [label for label, box in enumerate(self.boxes, start=1) if box is not None]

    def label_at(self, index: GridIndex) -> int:
        return int(self.labels[index.row, index.col])

    @property
    def boxes(self) -> list[tuple[slice, slice] | None]:
        """Item k - 1 is label k's (rows, cols) bounding box, None if k is absent.

        The list ends at the largest label, as ndimage.find_objects' does.
        """
        return self._room_summary[0]

    @property
    def components(self) -> dict[int, int]:
        """Each present label's number of 4-connected components."""
        return self._room_summary[1]

    @cached_property
    def kept_rows(self) -> np.ndarray:
        """kept_rows(labels), computed once per raster."""
        return kept_rows(self.labels)

    @cached_property
    def _room_summary(self) -> tuple[list[tuple[slice, slice] | None], dict[int, int]]:
        """boxes and components, from the row runs; the runs are not kept.

        A run touches the runs of the row above that overlap its range shifted
        up a row, [start - width, end - width). Runs are sorted and disjoint, so
        two searchsorted calls give each run the index range of those runs.
        A label's component count is the number of its runs left as roots.

        Same-label pairs are joined by hooking and pointer jumping (Shiloach
        & Vishkin 1982): each round hooks every pair's larger root under the
        least root it touches, then compresses every run to its root, until
        each pair's two runs share one. A root is only hooked under a smaller
        one, so parent[x] <= x and no cycle forms; a round with a split pair
        hooks some root, so the loop ends; and it ends only when every pair is
        joined, merging only what pairs join, so the roots are exactly the
        4-connected components. A root touching another is merged within two
        rounds, so there are O(log runs) rounds. No pairs means no round.
        """
        rows, width = self.kept_rows, self.width
        flat = self.labels[rows].reshape(-1)
        if not flat.any():
            return [], {}
        cut = np.empty(flat.size, dtype=bool)
        np.not_equal(flat[1:], flat[:-1], out=cut[1:])
        cut[::width] = True  # a run never spans two rows
        starts = np.flatnonzero(cut)
        ends = np.append(starts[1:], flat.size)
        label = flat[starts]
        keep = label > 0
        starts, ends, label = starts[keep], ends[keep], label[keep].astype(np.intp)

        order = np.argsort(label, kind="stable")  # by label, then row-major
        sorted_label = label[order]
        first = np.flatnonzero(np.diff(sorted_label, prepend=0))  # labels are > 0
        last = np.append(first[1:], label.size) - 1
        present = sorted_label[first]
        run_row = starts // width
        row_at = np.append(rows, self.height)  # kept row i covers row_at[i]:row_at[i + 1]
        top, bottom = row_at[run_row[order[first]]], row_at[run_row[order[last]] + 1]
        left = np.minimum.reduceat((starts - run_row * width)[order], first)
        right = np.maximum.reduceat((ends - run_row * width)[order], first)
        boxes = [None] * int(present[-1])
        for k, r0, r1, c0, c1 in zip(*(a.tolist() for a in (present, top, bottom, left, right))):
            boxes[k - 1] = (slice(r0, r1), slice(c0, c1))

        lo = np.searchsorted(ends, starts - width, side="right")
        count = np.searchsorted(starts, ends - width, side="left") - lo
        run = np.repeat(np.arange(label.size), count)  # run i once per run it touches above
        above = np.arange(run.size) + np.repeat(lo - (np.cumsum(count) - count), count)
        same = label[run] == label[above]
        run, above = run[same], above[same]
        parent = np.arange(label.size)
        while not np.array_equal(a := parent[run], b := parent[above]):
            np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))  # hook roots under the least
            while not np.array_equal(root := parent[parent], parent):  # pointer jumping
                parent = root
        roots = label[parent == np.arange(label.size)]
        counts = np.bincount(roots, minlength=label.max() + 1)[present]
        components = dict(zip(present.tolist(), counts.tolist()))
        return boxes, components

    @cached_property
    def centroid_cells(self) -> dict[int, GridIndex]:
        """Each room label's cell nearest the region's mean (always inside it).

        Ties go to the first such cell in row-major order. Each region is
        read from its own box.
        """
        out = {}
        for label, box in enumerate(self.boxes, start=1):
            if box is not None:
                cells = np.argwhere(self.labels[box] == label) + (box[0].start, box[1].start)
                out[label] = _nearest_to_mean(cells)
        return out


def _nearest_to_mean(cells: np.ndarray) -> GridIndex:
    """Of (row, col) cells in row-major order, the one nearest their mean; ties to the first."""
    d2 = ((cells - cells.mean(axis=0)) ** 2).sum(axis=1)
    r, c = cells[np.argmin(d2)]
    return GridIndex(int(c), int(r))


def default_min_room_cells(resolution: float, area_m2: float = DEFAULT_MIN_ROOM_AREA) -> int:
    cells = area_m2 / (resolution * resolution)
    if not (math.isfinite(cells) and cells >= 0):
        raise ConfigError(f"minimum room area must be finite and >= 0, got {area_m2}")
    return max(1, round(cells))


def segment_rooms(
    g: CostmapGrid,
    min_room_cells: int | None = None,
    door_width_max: float = DEFAULT_DOOR_WIDTH_MAX,
) -> RoomLabelRaster:
    """Partition reachable free space into room regions.

    Deterministic: seeds, flooding order, merges, and the final label
    numbering are all fixed by (row, col) scan order, so identical inputs
    produce identical rasters.
    """
    if not (math.isfinite(door_width_max) and door_width_max > 0):
        raise ConfigError(f"door width must be finite and > 0, got {door_width_max}")
    if min_room_cells is None:
        min_room_cells = default_min_room_cells(g.resolution)
    from scipy import ndimage  # only a build segments; reading a map needs numpy only

    free = g.cells < COST_INSCRIBED
    if not free.any():
        raise ValidationError("costmap has no free cells to segment")

    components, n_comp = ndimage.label(free, structure=FOUR_CONNECTED)
    sizes = np.bincount(components.ravel())
    sizes[0] = 0
    domain = components == int(np.argmax(sizes))

    dist = ndimage.distance_transform_edt(free, sampling=g.resolution)

    seeds = _seed_labels(dist, domain, door_width_max / 2.0)
    labels = _flood(dist, domain, seeds)
    labels = _merge_regions(labels, door_width_max, g.resolution, min_room_cells)
    return RoomLabelRaster(width=g.width, height=g.height, labels=labels)


def _seed_labels(dist: np.ndarray, domain: np.ndarray, min_depth: float) -> np.ndarray:
    """Distance local maxima as 8-connected seeds, numbered by first cell in row-major scan."""
    from scipy import ndimage

    center = np.where(domain, dist, -1.0)
    peak = ndimage.maximum_filter(center, size=3, mode="constant", cval=-1.0)
    is_max = domain & (center > min_depth) & (center >= peak)
    if not is_max.any():
        # Narrow map: fall back to the single deepest cell, first in scan order.
        flat = np.where(domain.ravel(), dist.ravel(), -1.0)
        is_max = np.zeros_like(domain)
        is_max.ravel()[int(np.argmax(flat))] = True
    comp, _ = ndimage.label(is_max, structure=np.ones((3, 3), dtype=bool))
    return _compact_labels(comp)  # ndimage.label's own order is not documented


def _flood(dist: np.ndarray, domain: np.ndarray, seeds: np.ndarray) -> np.ndarray:
    """Grow the seed raster's regions over the domain, deepest cells first, 4-connected.

    A priority flood with fixed keys (-distance, row, col), seed cells first:
    a cell keeps the smallest label offered to it until it pops, and offers
    its label to its 4-neighbours when it pops. Run as a loop, a cursor walks
    that rank order and pops each offered cell it reaches; a pocket, a cell
    first offered after the cursor passed it (a basin deeper than its ridge,
    or a plateau entered from its row-major end), pops before the cursor
    moves on. Here the flood is two frontier relaxations instead:

      1. pop time: t(seed) = 0 and t(v) = max(rank(v), min t(n)) over v's
         4-neighbours n; v is a pocket exactly when t(v) > rank(v). This is a
         bottleneck path value: the least, over paths from a seed, of the
         largest rank on the path.
      2. label: label(v) = min label(n) over 4-neighbours n with t(n) <= t(v),
         from the seed labels through the other domain cells: the smallest
         seed label over the paths along which t never falls.

    Why this is the loop's output. Number the cursor's steps by rank, so t(v)
    is the step in which v pops. A non-pocket pops at its rank and takes the
    smallest label among the neighbours that popped in earlier steps; a
    neighbour with equal t is a pocket it set off and carries its label. A
    pocket pops in the step of its first offerer and takes that step's label,
    which every cell popped in the step carries; no neighbour of a pocket
    pops in an earlier step, so the neighbours in its minimum are all of its
    own step. So the loop's labels solve rule 2 and are at most the path
    minimum; and each was handed down a path of pops in non-decreasing steps
    from a seed, so it is at least that minimum. The seeds' own row-major
    order changes nothing: every seed pops before any other cell, and no
    seed takes an offer.
    """
    h, w = dist.shape
    width = w + 2  # one closed cell of padding on each side: no bounds checks
    never = np.iinfo(np.int32).max
    seeded = np.pad(seeds, 1).ravel()
    seed_cells = np.flatnonzero(seeded)
    cells = np.flatnonzero(domain & (seeds == 0))
    # row-major cells, so the stable sort breaks distance ties by (row, col)
    cells = cells[np.argsort(-dist.ravel()[cells], kind="stable")]
    cells += 2 * (cells // w) + width + 1
    rank = np.full(seeded.size, never, dtype=np.int32)  # closed cells never pop
    rank[seed_cells] = 0
    rank[cells] = np.arange(1, cells.size + 1, dtype=np.int32)
    del cells

    pop = np.full(seeded.size, never, dtype=np.int32)
    pop[seed_cells] = 0

    def earlier_pop(n, t):
        t = np.maximum(rank[n], t)
        return t < pop[n], t

    _relax(seed_cells, (pop[seed_cells],), lambda f: (pop[f],), earlier_pop, pop, width)
    del rank

    # seeds and closed cells hold 0, so no update reaches them; the seeds'
    # own labels come in through the first round's sources
    label_type = np.min_scalar_type(int(seeds.max()) + 1)
    labels = np.where(pop < never, np.iinfo(label_type).max, 0).astype(label_type)
    labels[seed_cells] = 0

    def smaller_label(n, k, t):
        return (k < labels[n]) & (t <= pop[n]), k

    first = (seeded[seed_cells].astype(label_type), pop[seed_cells])
    _relax(seed_cells, first, lambda f: (labels[f], pop[f]), smaller_label, labels, width)
    labels[seed_cells] = seeded[seed_cells]
    return labels.reshape(h + 2, width)[1:-1, 1:-1].astype(np.int32)


def _relax(frontier, first, read, update, value, width) -> None:
    """Relax value over 4-neighbours in rounds from frontier until no cell changes.

    first holds the frontier's source arrays for round one, and read(cells)
    gives them for later rounds. update(neighbours, *sources) -> (better,
    new) covers one move. The 4 moves run one after another, so each reads
    the previous one's writes; within one move the neighbours are distinct,
    so one fancy assignment applies every update exactly. The cells a round
    lowers, each once through the fresh mask, are the next frontier.
    """
    sources = first
    fresh = np.ones(value.size, dtype=bool)  # False: already in the next frontier
    while frontier.size:
        changed = []
        for move in (-width, -1, 1, width):
            n = frontier + move
            better, new = update(n, *sources)
            n = n[better]
            value[n] = new[better]
            n = n[fresh[n]]
            fresh[n] = False
            changed.append(n)
        frontier = np.concatenate(changed)
        fresh[frontier] = True
        sources = read(frontier)


def _boundary_sides(labels: np.ndarray, base: int):
    """The 4-adjacent cell pairs that join two distinct positive labels, one
    direction (across, then down) at a time: (mask over the pairs' first
    cells, each pair's code min * base + max, flat step to its second cell)."""
    width = labels.shape[1]
    for a, b, step in ((labels[:, :-1], labels[:, 1:], 1), (labels[:-1], labels[1:], width)):
        both = (a > 0) & (b > 0) & (a != b)
        a, b = a[both].astype(np.int64), b[both].astype(np.int64)
        yield both, np.minimum(a, b) * base + np.maximum(a, b), step


def _boundary_pairs(labels: np.ndarray) -> dict[tuple[int, int], int]:
    """Count 4-adjacent cell pairs joining two distinct positive labels."""
    base = int(labels.max()) + 1
    codes = [code for _, code, _ in _boundary_sides(labels, base)]
    codes, counts = np.unique(np.concatenate(codes), return_counts=True)
    return {divmod(code, base): count for code, count in zip(codes.tolist(), counts.tolist())}


def _merge_regions(
    labels: np.ndarray, door_width_max: float, res: float, min_room_cells: int
) -> np.ndarray:
    """Merge wide boundaries, absorb small regions and renumber: one relabel.

    Both loops run on the region graph, where a folded region's boundary and
    cell counts add onto the survivor's. Merge takes the widest boundary
    wider than a doorway, ties to the smaller pair; the smaller label
    survives. Absorb takes the smallest region, ties to the smaller label,
    into its neighbour with the most cells, ties to the smaller label, or
    into 0, until none is small or one is left. Regions are numbered 1..K
    by their first cell in row-major scan.
    """
    pairs = _boundary_pairs(labels)
    values, first, counts = np.unique(labels, return_index=True, return_counts=True)
    size = dict(zip(values.tolist(), counts.tolist()))
    start = dict(zip(values.tolist(), first.tolist()))
    size.pop(0, None)
    region = np.arange(int(values[-1]) + 1)  # each flood label's region (0: dropped)

    def fold(victim: int, target: int) -> None:
        nonlocal pairs
        region[region == victim] = target
        if target:
            size[target] += size[victim]
            start[target] = min(start[target], start[victim])
        del size[victim]
        moved = {}
        for pair, count in pairs.items():
            a, b = sorted(target if k == victim else k for k in pair)
            if a != b:
                moved[a, b] = moved.get((a, b), 0) + count
        pairs = moved

    # n * res rounds up (24 * 0.05 > 1.2): a merge needs more than rounding's excess
    door = door_width_max * (1.0 + 1e-9)
    while wide := [(-n, a, b) for (a, b), n in pairs.items() if n * res > door]:
        _, a, b = min(wide)
        fold(b, a)
    while len(size) > 1:
        victim = min(size, key=lambda k: (size[k], k))
        if size[victim] >= min_room_cells:
            break
        neighbours = [b if a == victim else a for a, b in pairs if victim in (a, b)]
        fold(victim, max(neighbours, key=lambda k: (size[k], -k), default=0))
    if len(size) > MAX_ROOM_LABEL:
        raise ValidationError(f"{len(size)} rooms: a room raster holds at most {MAX_ROOM_LABEL}")
    number = np.zeros(region.size, dtype=np.uint16)
    number[sorted(size, key=start.get)] = np.arange(1, len(size) + 1)
    return number[region][labels]


def _compact_labels(labels: np.ndarray) -> np.ndarray:
    """Renumber labels 1..K in order of first appearance in row-major scan."""
    # over the labelled cells only (a seed raster is almost all zeros); they
    # keep scan order, so first still orders the labels by first appearance
    values, first = np.unique(labels[labels != 0], return_index=True)
    # wider than a room raster only for a seed raster of over 65535 seeds
    lut = np.zeros(int(labels.max()) + 1, dtype=np.uint16 if values.size < 2**16 else np.uint32)
    lut[values[np.argsort(first)]] = np.arange(1, values.size + 1)
    return lut[labels]


# ---------------------------------------------------------------------------
# Adjacency


def extract_adjacency(raster: RoomLabelRaster, g: CostmapGrid) -> list[RoomEdge]:
    """Room adjacency edges from shared free boundaries.

    Two rooms are adjacent iff a free cell of one is 4-adjacent to a free
    cell of the other; the portal is the boundary cell closest to the
    boundary's mean position, ties to the first in row-major order. Edge ids
    are the raster labels rendered as strings (callers remap them to final
    room ids).

    Weight is the grid shortest-path cost centroid_a -> portal -> centroid_b,
    each leg within its own room (plus the portal cell): the minimum, over
    the portal's 3x3, of a cell's cost from the centroid plus the last step
    (none from the portal itself, for a portal in the room).

    Each room runs one csgraph search from its centroid for all its legs, in
    a window no larger than the room's box plus two cells per side. A leg's
    cost is at most that of its cheaper open bent path (_leg_spans), so by
    metric.grid_shortest_paths' argument, with the portal as goal, every path
    no dearer lies in an octile ellipse E(span) with foci centroid and portal
    (metric.ellipse). The window is the bounding box, plus one ring for the
    portals' 3x3, of the union of the legs' ellipses, cut to the room's box
    and the ring around it that holds its portals; cells outside the room or
    outside that union are closed. A leg that no bent path bounds (both
    cross a closed cell or leave the room) gets the span 2 * (width +
    height), whose ellipse covers the whole box and ring; there is no
    separate whole-room path. Each leg's cost equals a whole-room search's
    bit for bit, and a leg the one search does not reach has no route.
    Raises MapConsistencyError for the first leg in the room's edge order
    that has no route or a closed centroid or portal.
    """
    labels = raster.labels
    width, base = labels.shape[1], int(labels.max()) + 1
    keys = []  # pair code * cells + flat index, for both cells of each boundary pair
    for both, code, step in _boundary_sides(labels, base):
        rows, cols = np.nonzero(both)
        key = code * labels.size + rows * width + cols
        keys += [key, key + step]
    codes, cells = np.divmod(np.unique(np.concatenate(keys)), labels.size)
    codes, first = np.unique(codes, return_index=True)
    edges, legs = [], {}  # legs: room label -> indices of its edges
    for i, (code, flat) in enumerate(zip(codes.tolist(), np.split(cells, first[1:]))):
        portal = _nearest_to_mean(np.stack(np.divmod(flat, width), axis=1))
        edges.append((*divmod(code, base), portal))
        for label in edges[-1][:2]:
            legs.setdefault(label, []).append(i)

    halves = half_table()
    # step length to a portal from each of its 8 neighbours, and 0 from itself
    steps = g.resolution * np.array([[SQRT2, 1.0, SQRT2], [1.0, 0.0, 1.0], [SQRT2, 1.0, SQRT2]])
    cover = 2.0 * (g.width + g.height)  # a span whose ellipse covers the whole grid
    weights = [0.0] * len(edges)
    for label, ids in legs.items():
        box = raster.boxes[label - 1]
        # the room's box and the ring around it, which holds its portals
        region = (
            slice(max(box[0].start - 1, 0), min(box[0].stop + 1, g.height)),
            slice(max(box[1].start - 1, 0), min(box[1].stop + 1, g.width)),
        )
        centroid = raster.centroid_cells[label]
        portals = [edges[i][2] for i in ids]
        spans = np.minimum(_leg_spans(halves, g, labels, label, centroid, portals), cover)
        ellipses = [ellipse(region, centroid, p, span) for p, span in zip(portals, spans)]
        top = min(t for t, _, _ in ellipses)
        left = min(c for _, c, _ in ellipses)
        bottom = max(t + e.shape[0] for t, _, e in ellipses)
        right = max(c + e.shape[1] for _, c, e in ellipses)
        union = np.zeros((bottom - top, right - left), dtype=bool)
        for t, c, e in ellipses:
            union[t - top : t - top + e.shape[0], c - left : c - left + e.shape[1]] |= e
        # the window's halved factors in two rings of inf: the portals' 3x3 and the search's own
        ring = np.full((bottom - top + 4, right - left + 4), np.inf)
        ring[2:-2, 2:-2] = halves[g.cells[top:bottom, left:right]]
        ring[2:-2, 2:-2][~(union & (labels[top:bottom, left:right] == label))] = np.inf
        half = ring[1:-1, 1:-1]  # the window searched
        top, left = top - 1, left - 1
        source = (centroid.row - top) * half.shape[1] + centroid.col - left
        dist = window_search([ring], g.resolution, [source])[0][0].reshape(half.shape)
        for i, portal in zip(ids, portals):  # in edge order: the first failing leg is named
            r, c = portal.row - top, portal.col - left
            near = np.s_[r - 1 : r + 2, c - 1 : c + 2]
            hp = halves[g.cells[portal.row, portal.col]]
            # a portal in the room keeps its own cost: no neighbour's route undercuts it;
            # its own cell adds no step and is not multiplied (0 * inf is nan)
            last = np.multiply(steps, half[near] + hp, where=steps > 0, out=np.zeros((3, 3)))
            cost = float((dist[near] + last).min())
            if half.flat[source] == math.inf or hp == math.inf or cost == math.inf:
                raise MapConsistencyError(f"room label {label}: centroid cannot reach {portal}")
            weights[i] += cost
    return [RoomEdge(str(la), str(lb), w, p) for (la, lb, p), w in zip(edges, weights)]


def _leg_spans(halves, g, labels, label, a: GridIndex, portals) -> np.ndarray:
    """Per portal b, the span of an octile ellipse with foci a and b that
    holds the cheapest path from a to b through room label (b itself may lie
    outside it).

    The bound is the cheaper of the two bent paths from a to b, with the
    diagonal run first or last; both are shortest in free space. A path of
    cost C lies in E(C / resolution + 1) (see metric.grid_shortest_paths),
    and one more cell absorbs the rounding of the bent path's sum. inf where
    both bent paths cross a closed cell, or leave the room before b.
    A path to a nearer portal repeats b up to the longest one's end in
    steps of length 0, which cost 0: 0 * inf (half of a closed b) is nan.
    """
    d = np.array([(b.row - a.row, b.col - a.col) for b in portals])
    short, long = np.abs(d).min(axis=1)[:, None], np.abs(d).max(axis=1)[:, None]
    diagonal = np.sign(d)
    straight = diagonal * (np.abs(d) == long)
    k = np.minimum(np.arange(long.max() + 1), long)  # moves made; b repeats past its end
    # of those, the diagonal ones: on the path with the diagonal run first, and last
    n = np.stack([np.minimum(k, short), np.maximum(k - long + short, 0)], axis=1)
    m = k[:, None] - n
    rows = a.row + n * diagonal[:, None, None, 0] + m * straight[:, None, None, 0]
    cols = a.col + n * diagonal[:, None, None, 1] + m * straight[:, None, None, 1]
    h = halves[g.cells[rows, cols]]
    usable = (h < math.inf).all(axis=2)
    usable &= ((labels[rows, cols] == label) | (k == long)[:, None]).all(axis=2)
    length = SQRT2 * np.diff(n, axis=2) + np.diff(m, axis=2)
    cost = np.zeros(length.shape)
    np.multiply(length, h[..., :-1] + h[..., 1:], where=length > 0, out=cost)
    return np.where(usable, cost.sum(axis=2), np.inf).min(axis=1) + 2.0


# ---------------------------------------------------------------------------
# Place categorization


@dataclass(frozen=True)
class CategoryRule:
    """Ontology rule: a room qualifies when every required class is present;

    qualifying rules compete on the summed weights of present classes."""

    category: str
    required: frozenset[str]
    score_weights: dict[str, float]

    def __post_init__(self):
        if not self.required and not self.score_weights:
            raise ValidationError(
                f"rule {self.category!r} needs a required set or score weights"
            )
        for cls, wgt in self.score_weights.items():
            if not (0 < wgt < math.inf):
                raise ValidationError(f"rule {self.category!r}: weight for {cls!r} not in (0, inf)")


def categorize_room(attributes, rules: list[CategoryRule]) -> str:
    """Best qualifying rule's category; 'uncategorized' when none qualifies.

    Scores sum the rule's weights over attributes present; ties (including
    all-zero scores) go to the earliest rule in the list.
    """
    attrs = {normalize_label(a) for a in attributes}
    best_category = UNCATEGORIZED
    best_score = None
    for rule in rules:
        if not rule.required <= attrs:
            continue
        score = sum(w for cls, w in rule.score_weights.items() if cls in attrs)
        if best_score is None or score > best_score:
            best_score = score
            best_category = rule.category
    return best_category


def parse_rules(path) -> list[CategoryRule]:
    """Parse a rules file: one `category: required=a,b; weights=a:2,b:1` per line."""
    rules = []
    seen = set()
    for where, line in read_text_lines(path):
        if ":" not in line:
            raise ConfigError(f"{where}: expected 'category: clauses'")
        category, rest = line.split(":", 1)
        category = normalize_label(category)
        if category in seen:
            raise ConfigError(f"{where}: duplicate category {category!r}")
        seen.add(category)
        required: frozenset[str] = frozenset()
        weights: dict[str, float] = {}
        for clause in rest.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            if "=" not in clause:
                raise ConfigError(f"{where}: bad clause {clause!r}")
            key, value = clause.split("=", 1)
            key = key.strip()
            if key == "required":
                required = frozenset(
                    normalize_label(v) for v in value.split(",") if v.strip()
                )
            elif key == "weights":
                for item in value.split(","):
                    item = item.strip()
                    if not item:
                        continue
                    if ":" not in item:
                        raise ConfigError(f"{where}: bad weight {item!r}")
                    cls, wgt = item.split(":", 1)
                    cls = normalize_label(cls)
                    if cls in weights:
                        raise ConfigError(f"{where}: duplicate class {cls!r}")
                    try:
                        weights[cls] = float(wgt)
                    except ValueError as exc:
                        raise ConfigError(f"{where}: non-numeric weight {wgt!r}") from exc
            else:
                raise ConfigError(f"{where}: unknown clause {key!r}")
        try:
            rules.append(
                CategoryRule(category=category, required=required, score_weights=weights)
            )
        except ValidationError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    return rules
