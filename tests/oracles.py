"""Independent reference implementations the main code is checked against.

Deliberately written with different structures than the package (dict-based
O(V^2) Dijkstra with linear min scans, recursive path enumeration) so a bug
would have to be made twice to go unnoticed. The step-cost rule mirrors the
documented contract expression exactly: step * (0.5 * (fa + fb)).
"""

from __future__ import annotations

import heapq
import math
from types import SimpleNamespace

import numpy as np
from scipy import ndimage
from scipy.sparse import csr_array
from scipy.sparse.csgraph import dijkstra

from semnav.errors import MapConsistencyError
from semnav.graph import RoomEdge, normalize_label
from semnav.metric import COST_INSCRIBED, SQRT2, GridIndex, MetricPoint, grid_shortest_paths


def cell_factor(cost: int, allow_inscribed: bool = False):
    """Traversal factor per the documented convention; None = untraversable."""
    if cost <= 252:
        return 1.0 + cost / 128.0
    if cost == 253 and allow_inscribed:
        return 3.0
    return None


def cell_factor_table(allow_inscribed: bool = False) -> np.ndarray:
    """cell_factor of each of the 256 cell values, -1 where untraversable."""
    factors = (cell_factor(cost, allow_inscribed) for cost in range(256))
    return np.array([-1.0 if f is None else f for f in factors])


def one_leg(g, start, goal, allow_inscribed: bool = False):
    """((cols, rows), cost) of metric.grid_shortest_paths for the one leg start -> goal."""
    return next(grid_shortest_paths(g, [(start, goal)], allow_inscribed=allow_inscribed))


def brute_grid_dijkstra(grid, start, goal, allow_inscribed: bool = False):
    """Linear-scan Dijkstra over an explicit node set; None when unreachable.

    start/goal are (col, row) tuples; returns the minimal cost as a float.
    """
    w, h = grid.width, grid.height
    res = grid.resolution
    diag = res * math.sqrt(2.0)
    factors = {}
    for row in range(h):
        for col in range(w):
            f = cell_factor(int(grid.cells[row, col]), allow_inscribed)
            if f is not None:
                factors[(col, row)] = f
    if tuple(start) not in factors or tuple(goal) not in factors:
        raise ValueError("untraversable endpoint")

    dist = {node: math.inf for node in factors}
    dist[tuple(start)] = 0.0
    todo = set(factors)
    while todo:
        u = min(todo, key=lambda n: (dist[n], n))
        if dist[u] is math.inf or dist[u] == math.inf:
            return None
        todo.remove(u)
        if u == tuple(goal):
            return dist[u]
        ucol, urow = u
        fu = factors[u]
        for dcol in (-1, 0, 1):
            for drow in (-1, 0, 1):
                if dcol == 0 and drow == 0:
                    continue
                v = (ucol + dcol, urow + drow)
                fv = factors.get(v)
                if fv is None or v not in todo:
                    continue
                step = res if dcol == 0 or drow == 0 else diag
                nd = dist[u] + step * (0.5 * (fu + fv))
                if nd < dist[v]:
                    dist[v] = nd
    return None


def enumerate_min_cost(adjacency, start, goal):
    """Minimum cost over every simple path, by exhaustive DFS enumeration.

    adjacency: dict node -> list of (neighbor, weight). Costs accumulate
    left to right along each path, matching how a search would sum them.
    Returns None when no path exists.
    """
    best = [None]

    def dfs(node, cost, visited):
        if node == goal:
            if best[0] is None or cost < best[0]:
                best[0] = cost
            return
        for neighbor, weight in adjacency.get(node, ()):
            if neighbor not in visited:
                visited.add(neighbor)
                dfs(neighbor, cost + weight, visited)
                visited.remove(neighbor)

    dfs(start, 0.0, {start})
    return best[0]


def brute_goal_state(graph, goal):
    """SemanticGraph.find_goal_state as a scan that normalises every node's label per query."""
    label = normalize_label(goal.text)
    if label in graph.rooms or label in graph.objects:
        return (label,)
    ids = [r.id for r in graph.rooms.values() if normalize_label(r.category) == label]
    if not ids:
        ids = [o.id for o in graph.objects.values() if normalize_label(o.class_label) == label]
    return tuple(sorted(ids))


def brute_discovery_scores(table_entries, contexts, goal_class):
    """Room scores recomputed from raw table entries (pre-normalization)."""
    out = {}
    for ctx in contexts:
        score = table_entries.get((goal_class, ctx.category), 0.0)
        for attr in ctx.attributes:
            score += 0.1 * table_entries.get((goal_class, attr), 0.0)
        out[ctx.room_id] = score
    return out


def brute_rect_runs(values):
    """Greedy maximal-rectangle decomposition, one cell at a time.

    Reference for mapio._rect_runs, which must yield the same
    (value, col, row, width, height) tuples in the same order.
    """
    h, w = values.shape
    visited = np.zeros((h, w), dtype=bool)
    for r in range(h):
        row = values[r]
        c = 0
        while c < w:
            v = row[c]
            if v == 0 or visited[r, c]:
                c += 1
                continue
            c1 = c
            while c1 < w and row[c1] == v and not visited[r, c1]:
                c1 += 1
            r1 = r + 1
            while r1 < h:
                seg = values[r1, c:c1]
                if (seg != v).any() or visited[r1, c:c1].any():
                    break
                r1 += 1
            visited[r:r1, c:c1] = True
            yield int(v), c, r, c1 - c, r1 - r


def ndimage_room_summary(labels: np.ndarray):
    """(boxes, components) of a room raster from scipy.ndimage.

    Reference for RoomLabelRaster.boxes and .components: find_objects gives
    the boxes, and one 4-connected ndimage.label per present label, over its
    box, gives the component counts.
    """
    boxes = ndimage.find_objects(labels)
    four = np.array([[0, 1, 0], [1, 1, 1], [0, 1, 0]], dtype=bool)
    components = {}
    for label, box in enumerate(boxes, start=1):
        if box is not None:
            # the bounding box holds every cell of the region and every path between them
            components[label] = ndimage.label(labels[box] == label, structure=four)[1]
    return boxes, components


def labeled_free_count(cells: np.ndarray, labels: np.ndarray) -> int:
    """Room-labelled cells that are not free, counted over every cell.

    Reference for validate_semantic_map's labeled-free count.
    """
    return int(np.count_nonzero(labels[cells >= COST_INSCRIBED]))


def brute_flood(dist: np.ndarray, domain: np.ndarray, seeds: list[np.ndarray]) -> np.ndarray:
    """Grow seed regions over the domain, deepest cells first, 4-connected.

    Reference for segmentation._flood: a heap of (-dist, row, col, label)
    tuples with one entry per offer, so a cell takes the smallest label
    offered to it before it pops.
    """
    h, w = dist.shape
    labels = np.zeros((h, w), dtype=np.int32)
    heap: list[tuple[float, int, int, int]] = []
    for k, cells in enumerate(seeds, start=1):
        for r, c in cells:
            labels[r, c] = k
    for k, cells in enumerate(seeds, start=1):
        for r, c in cells:
            _brute_push_frontier(heap, dist, domain, labels, int(r), int(c), k)
    while heap:
        _, r, c, k = heapq.heappop(heap)
        if labels[r, c]:
            continue
        labels[r, c] = k
        _brute_push_frontier(heap, dist, domain, labels, r, c, k)
    return labels


def _brute_push_frontier(heap, dist, domain, labels, r: int, c: int, k: int) -> None:
    h, w = dist.shape
    for nr, nc in ((r - 1, c), (r, c - 1), (r, c + 1), (r + 1, c)):
        if 0 <= nr < h and 0 <= nc < w and domain[nr, nc] and not labels[nr, nc]:
            heapq.heappush(heap, (-dist[nr, nc], nr, nc, k))


def brute_boundary_pairs(labels: np.ndarray) -> dict[tuple[int, int], int]:
    """Count 4-adjacent cell pairs joining two distinct positive labels.

    Reference for segmentation._boundary_pairs, one pair at a time.
    """
    pairs: dict[tuple[int, int], int] = {}
    for a, b in (
        (labels[:, :-1], labels[:, 1:]),
        (labels[:-1, :], labels[1:, :]),
    ):
        both = (a > 0) & (b > 0) & (a != b)
        lo = np.minimum(a[both], b[both])
        hi = np.maximum(a[both], b[both])
        for la, lb in zip(lo.tolist(), hi.tolist()):
            pairs[(la, lb)] = pairs.get((la, lb), 0) + 1
    return pairs


def brute_seed_components(dist: np.ndarray, domain: np.ndarray, min_depth: float) -> list[np.ndarray]:
    """Distance local maxima grouped into components; one seed region each.

    Reference for segmentation._seed_labels: one full-grid pass per seed,
    each seed a (row, col) cell array, in order of its first cell.
    """
    h, w = dist.shape
    padded = np.full((h + 2, w + 2), -1.0)
    padded[1:-1, 1:-1] = np.where(domain, dist, -1.0)
    center = padded[1:-1, 1:-1]
    is_max = center > min_depth
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            if dr == 0 and dc == 0:
                continue
            is_max &= center >= padded[1 + dr : 1 + dr + h, 1 + dc : 1 + dc + w]
    is_max &= domain
    if not is_max.any():
        # Narrow map: fall back to the single deepest cell, first in scan order.
        flat = np.where(domain.ravel(), dist.ravel(), -1.0)
        is_max = np.zeros_like(domain)
        is_max.ravel()[int(np.argmax(flat))] = True
    comp, n = ndimage.label(is_max, structure=np.ones((3, 3), dtype=bool))
    out = []
    for k in range(1, n + 1):
        out.append(np.argwhere(comp == k))
    # label order fixed by each component's first cell in row-major scan
    out.sort(key=lambda cells: (int(cells[0][0]), int(cells[0][1])))
    return out


def brute_merge(labels: np.ndarray, door_width_max: float, res: float) -> np.ndarray:
    """Fold together region pairs whose shared boundary exceeds doorway width.

    Reference for the merge loop of segmentation._merge_regions: one full
    raster rewrite and boundary count per merge.
    """
    labels = labels.copy()
    while True:
        pairs = brute_boundary_pairs(labels)
        wide = [
            (cnt, la, lb)
            for (la, lb), cnt in pairs.items()
            if cnt * res > door_width_max * (1.0 + 1e-9)  # not 24 * 0.05 > 1.2
        ]
        if not wide:
            return labels
        # widest first; ties by smaller label pair
        wide.sort(key=lambda t: (-t[0], t[1], t[2]))
        _, la, lb = wide[0]
        labels[labels == lb] = la


def brute_absorb(labels: np.ndarray, min_room_cells: int) -> np.ndarray:
    """Merge sub-minimum regions into their largest neighbor (label 0 if isolated).

    Reference for the absorb loop of segmentation._merge_regions: one full
    raster rewrite, cell count and boundary count per absorbed region.
    """
    labels = labels.copy()
    while True:
        counts = np.bincount(labels.ravel())
        present = [k for k in range(1, counts.size) if counts[k] > 0]
        small = [k for k in present if counts[k] < min_room_cells]
        if not small or len(present) == 1:
            return labels
        small.sort(key=lambda k: (counts[k], k))
        victim = small[0]
        pairs = brute_boundary_pairs(labels)
        neighbors = []
        for la, lb in pairs:
            if la == victim:
                neighbors.append(lb)
            elif lb == victim:
                neighbors.append(la)
        if not neighbors:
            labels[labels == victim] = 0
            continue
        target = max(neighbors, key=lambda k: (counts[k], -k))
        labels[labels == victim] = target


def brute_compact_labels(labels: np.ndarray) -> np.ndarray:
    """Renumber labels 1..K in order of first appearance in row-major scan.

    Reference for segmentation._compact_labels, one cell at a time.
    """
    out = np.zeros_like(labels, dtype=np.uint16)
    mapping: dict[int, int] = {}
    flat = labels.ravel()
    nonzero = np.flatnonzero(flat)
    for idx in nonzero.tolist():
        k = int(flat[idx])
        if k not in mapping:
            mapping[k] = len(mapping) + 1
    for old, new in mapping.items():
        out[labels == old] = new
    return out


def brute_centroid_cell(labels: np.ndarray, label: int):
    """(row, col) of the label's cell nearest its mean, ties by (row, col)."""
    cells = np.argwhere(labels == label)
    mean = cells.mean(axis=0)
    d2 = ((cells - mean) ** 2).sum(axis=1)
    order = np.lexsort((cells[:, 1], cells[:, 0], d2))
    r, c = cells[order[0]]
    return int(r), int(c)


def brute_adjacency(labels: np.ndarray, grid):
    """Room adjacency edges from a loop over every boundary cell.

    Reference for segmentation.extract_adjacency: its boundary-cell loop and
    lexsort portal choice before one search per room replaced them. Each leg
    costs brute_grid_dijkstra from the room's centroid to the portal, on a
    grid where every cell but the room's and the portal is lethal. Returns
    (label_a, label_b, (col, row) portal, weight) per edge; the weight is
    None when a leg has no route.
    """
    boundary_cells: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for (asl, bsl), (aoff, boff) in (
        ((np.s_[:, :-1], np.s_[:, 1:]), ((0, 0), (0, 1))),
        ((np.s_[:-1, :], np.s_[1:, :]), ((0, 0), (1, 0))),
    ):
        a, b = labels[asl], labels[bsl]
        both = (a > 0) & (b > 0) & (a != b)
        rows, cols = np.nonzero(both)
        av, bv = a[both], b[both]
        for r, c, la, lb in zip(rows.tolist(), cols.tolist(), av.tolist(), bv.tolist()):
            key = (min(la, lb), max(la, lb))
            boundary_cells.setdefault(key, []).append((r + aoff[0], c + aoff[1]))
            boundary_cells.setdefault(key, []).append((r + boff[0], c + boff[1]))

    edges = []
    for (la, lb), cells in sorted(boundary_cells.items()):
        arr = np.array(sorted(set(cells)))
        mean = arr.mean(axis=0)
        d2 = ((arr - mean) ** 2).sum(axis=1)
        order = np.lexsort((arr[:, 1], arr[:, 0], d2))
        pr, pc = arr[order[0]]
        portal = (int(pc), int(pr))
        total = 0.0
        for label in (la, lb):
            keep = labels == label
            keep[pr, pc] = True
            room = SimpleNamespace(
                width=grid.width,
                height=grid.height,
                resolution=grid.resolution,
                cells=np.where(keep, grid.cells, 254),
            )
            r, c = brute_centroid_cell(labels, label)
            try:
                cost = brute_grid_dijkstra(room, (c, r), portal)
            except ValueError:  # untraversable centroid or portal
                cost = None
            if cost is None:
                total = None
                break
            total += cost
        edges.append((la, lb, portal, total))
    return edges


def whole_room_adjacency(raster, g):
    """Room adjacency edges from one search per room over the room's whole box.

    Reference for segmentation.extract_adjacency: its body before the
    searches were bounded by the legs' octile ellipses. Each room's window is
    its box plus two closed cells, and every leg is read from that one
    distance array, from open_cell_costs. Returns RoomEdges; raises
    MapConsistencyError for the first leg, in the room's edge order, with
    no route.
    """
    labels = raster.labels
    width, base = labels.shape[1], int(labels.max()) + 1
    keys = []  # pair code * cells + flat index, for both cells of each boundary pair
    for a, b, offset in ((labels[:, :-1], labels[:, 1:], 1), (labels[:-1], labels[1:], width)):
        both = (a > 0) & (b > 0) & (a != b)
        rows, cols = np.nonzero(both)
        a, b = a[both].astype(np.int64), b[both].astype(np.int64)
        key = (np.minimum(a, b) * base + np.maximum(a, b)) * labels.size + rows * width + cols
        keys += [key, key + offset]
    codes, cells = np.divmod(np.unique(np.concatenate(keys)), labels.size)
    codes, first = np.unique(codes, return_index=True)
    edges, legs = [], {}  # legs: room label -> indices of its edges
    for i, (code, flat) in enumerate(zip(codes.tolist(), np.split(cells, first[1:]))):
        arr = np.stack(np.divmod(flat, width), axis=1)  # row-major
        d2 = ((arr - arr.mean(axis=0)) ** 2).sum(axis=1)
        pr, pc = arr[np.argmin(d2)]
        edges.append((*divmod(code, base), GridIndex(int(pc), int(pr))))
        for label in edges[-1][:2]:
            legs.setdefault(label, []).append(i)

    factors = cell_factor_table()
    # step length to a portal from each of its 8 neighbours, and 0 from itself
    steps = g.resolution * np.array([[SQRT2, 1.0, SQRT2], [1.0, 0.0, 1.0], [SQRT2, 1.0, SQRT2]])
    weights = [0.0] * len(edges)
    for label, ids in legs.items():
        # the room's box plus two closed cells: a portal outside it has all 8 neighbours
        box = raster.boxes[label - 1]
        top, left = box[0].start - 2, box[1].start - 2
        room = np.pad(labels[box] == label, 2)
        centroid = raster.centroid_cells[label]
        f = factors[np.pad(g.cells[box], 2)]
        f[~room] = -1.0
        dist = open_cell_costs(f, g.resolution, (centroid.row - top, centroid.col - left))
        for i in ids:
            portal = edges[i][2]
            near = np.s_[portal.row - top - 1 :, portal.col - left - 1 :]
            fp = factors[g.cells[portal.row, portal.col]]
            # a portal in the room keeps its own cost: no neighbour's route undercuts it
            cost = (dist[near][:3, :3] + steps * (0.5 * (f[near][:3, :3] + fp))).min()
            if fp < 0 or cost == np.inf:
                raise MapConsistencyError(f"room label {label}: centroid cannot reach {portal}")
            weights[i] += float(cost)
    return [RoomEdge(str(la), str(lb), w, p) for (la, lb, p), w in zip(edges, weights)]


# (drow, dcol) of the 8 moves, in the order each node's CSR row lists them.
_MOVES = ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1))


def open_cell_graph(f, resolution):
    """CSR graph of the 8-connected moves between a window's open cells (f >= 0),
    and node[r, c]: cell (r, c)'s graph node in row-major order, -1 where closed.

    Reference for metric._ring_graph: the open-cell builder it replaced,
    which lists only the moves between open cells, so its rows vary in length.
    """
    height, width = f.shape
    open_ = f >= 0
    n = int(open_.sum())
    node = np.full((height + 2, width + 2), -1, dtype=np.int32)
    node[1:-1, 1:-1][open_] = np.arange(n, dtype=np.int32)
    fnode = f[open_]

    def neighbours(drow, dcol):
        return node[1 + drow : 1 + drow + height, 1 + dcol : 1 + dcol + width][open_]

    degree = np.zeros(n, dtype=np.int32)
    for drow, dcol in _MOVES:
        degree += neighbours(drow, dcol) >= 0
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(degree, out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    weights = np.empty(indptr[-1])
    fill = indptr[:-1].copy()
    straight, diagonal = resolution, resolution * math.sqrt(2.0)
    for drow, dcol in _MOVES:
        other = neighbours(drow, dcol)
        has = other >= 0
        other = other[has]
        at = fill[has]
        step = diagonal if drow and dcol else straight
        indices[at] = other
        weights[at] = step * (0.5 * (fnode[has] + fnode[other]))
        fill[has] += 1
    return csr_array((weights, indices, indptr), shape=(n, n)), node[1:-1, 1:-1]


def open_cell_search(f, top, left, resolution, start, goal):
    """(path, cost) from start to goal over open_cell_graph, or None if goal is
    unreached; start/goal are GridIndex. Reference for the path walked from
    metric.window_search's predecessors."""
    graph, node = open_cell_graph(f, resolution)
    source = node[start.row - top, start.col - left]
    target = node[goal.row - top, goal.col - left]
    dist, pred = dijkstra(graph, indices=source, return_predecessors=True)
    if not np.isfinite(dist[target]):
        return None
    rows, cols = np.nonzero(node >= 0)
    path = []
    v = target
    while v >= 0:
        path.append((int(cols[v]) + left, int(rows[v]) + top))
        v = pred[v]
    path.reverse()
    return path, float(dist[target])


def open_cell_costs(f, resolution, source):
    """Cost from window cell source to every cell over open_cell_graph, inf
    where unreached. Reference for metric.window_search's dist."""
    graph, node = open_cell_graph(f, resolution)
    if node[source] < 0:
        return np.full(f.shape, np.inf)
    dist = dijkstra(graph, indices=node[source])
    return np.where(node >= 0, dist[node], np.inf)


def tie_rule_pred(dist, ring, resolution):
    """The predecessor csgraph's dijkstra keeps for each cell of a window,
    as a flat row-major cell index; -9999 at the source and where unreached.

    dist is the window's (height, width) costs from its source, and ring its
    halved factors (inf at closed cells) in a one-cell ring of inf. Among
    the in-window neighbours u of a reached cell v with
    dist[u] + w(u, v) == dist[v], w(u, v) = step * (0.5 * (f_u + f_v)), the
    rule keeps the one with the least dist[u], and among those the larger
    node number. Reference for metric.window_search's pred; the rule is
    measured (scipy 1.17.1), not documented by scipy.
    """
    height, width = dist.shape
    padded = np.full((height + 2, width + 2), np.inf)
    padded[1:-1, 1:-1] = dist
    node = np.full((height + 2, width + 2), -1)
    node[1:-1, 1:-1] = np.arange(dist.size).reshape(dist.shape)
    half = ring[1:-1, 1:-1]
    best = np.full(dist.shape, np.inf)  # dist[u] of the predecessor kept so far
    pred = np.full(dist.shape, -9999)
    for drow, dcol in _MOVES:
        near = np.s_[1 + drow : 1 + drow + height, 1 + dcol : 1 + dcol + width]
        du, nu = padded[near], node[near]
        w = resolution * (SQRT2 if drow and dcol else 1.0) * (ring[near] + half)
        tied = (w < np.inf) & (du < np.inf) & (du + w == dist)
        keep = tied & ((du < best) | ((du == best) & (nu > pred)))
        best[keep] = du[keep]
        pred[keep] = nu[keep]
    return pred

def brute_ellipse(height, width, start, goal, span):
    """(height, width) bool mask: the cells v of the whole grid with
    octile(start, v) + octile(v, goal) <= span, one cell at a time in Python
    floats. Reference for metric.ellipse in every layout; start and goal are
    (col, row) and may lie off the grid."""

    def octile(drow, dcol):
        drow, dcol = abs(drow), abs(dcol)
        return max(drow, dcol) + (SQRT2 - 1.0) * min(drow, dcol)

    (c0, r0), (c1, r1) = start, goal
    mask = np.zeros((height, width), dtype=bool)
    for r in range(height):
        for c in range(width):
            mask[r, c] = octile(r - r0, c - c0) + octile(r1 - r, c1 - c) <= span
    return mask


def pixel_cost(pixel: int, free_thresh: int, lethal_thresh: int) -> int:
    """Cost of one grayscale pixel by the integer formula of
    metric.load_costmap's docstring: free at or above free_thresh, lethal at
    or below lethal_thresh, between them a ramp over 1..252 rounded half-up.
    Reference for metric.pixels_to_costs."""
    if pixel >= free_thresh:
        return 0
    if pixel <= lethal_thresh:
        return 254
    span = max(1, free_thresh - lethal_thresh - 2)
    return min(252, max(1, 1 + ((free_thresh - 1 - pixel) * 251 + span // 2) // span))


def path_cells(path) -> list[GridIndex]:
    """A grid_shortest_paths leg's (cols, rows) arrays as a list of int GridIndex cells."""
    cols, rows = path
    return [GridIndex(c, r) for c, r in zip(cols.tolist(), rows.tolist())]


def per_cell_refine(m, path, start_point, allow_inscribed: bool = False):
    """Waypoints for a room path, one cell at a time. Reference for
    planner.refine_to_metric's bulk conversion: the same legs through
    one_leg (start -> portal -> ... -> goal, each joint cell kept
    once), then CostmapGrid.grid_to_world on each cell."""
    graph, g = m.graph, m.costmap
    rooms = [node for node in path.nodes if node in graph.rooms]
    last = path.nodes[-1]
    goal = graph.objects[last].position if last in graph.objects else graph.rooms[last].centroid
    anchors = [g.world_to_grid(MetricPoint(*start_point))]
    anchors += [graph.get_edge(a, b).portal for a, b in zip(rooms, rooms[1:])]
    anchors.append(g.world_to_grid(MetricPoint(*goal)))
    cells = []
    for src, dst in zip(anchors, anchors[1:]):
        leg, _ = one_leg(g, src, dst, allow_inscribed)
        leg = path_cells(leg)
        cells.extend(leg[1:] if cells else leg)
    return tuple(g.grid_to_world(cell) for cell in cells)
