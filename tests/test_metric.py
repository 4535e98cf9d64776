import math
import random
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from semnav.errors import (
    ConfigError,
    GridBoundsError,
    MapFormatError,
    UnreachableError,
    ValidationError,
)
from semnav import metric
from semnav.metric import (
    CostmapGrid,
    GridIndex,
    MetricPoint,
    costs_to_pixels,
    grid_shortest_paths,
    load_costmap,
    pixels_to_costs,
    read_pgm,
    write_pgm,
)

from conftest import grid_from_ascii
from oracles import (
    brute_ellipse,
    brute_grid_dijkstra,
    cell_factor_table,
    one_leg,
    open_cell_costs,
    open_cell_search,
    path_cells,
    pixel_cost,
    tie_rule_pred,
)


def write_meta(path, extra=""):
    path.write_text("resolution: 0.05\norigin_x: 0\norigin_y: 0\n" + extra, encoding="utf-8")


def write_raw_pgm(path, width, height, payload: bytes, magic=b"P5", maxval=255):
    path.write_bytes(magic + b"\n%d %d\n%d\n" % (width, height, maxval) + payload)


class TestPgmLoading:
    def test_all_white_is_all_free(self, tmp_path):
        img, meta = tmp_path / "m.pgm", tmp_path / "m.meta"
        write_raw_pgm(img, 3, 3, b"\xff" * 9)
        write_meta(meta)
        g = load_costmap(img, meta)
        assert (g.width, g.height, g.resolution) == (3, 3, 0.05)
        assert (g.cells == 0).all()

    def test_all_black_is_all_lethal(self, tmp_path):
        img, meta = tmp_path / "m.pgm", tmp_path / "m.meta"
        write_raw_pgm(img, 3, 3, b"\x00" * 9)
        write_meta(meta)
        g = load_costmap(img, meta)
        assert (g.cells == 254).all()

    def test_graded_pixels_scale_into_1_252(self, tmp_path):
        img, meta = tmp_path / "m.pgm", tmp_path / "m.meta"
        write_raw_pgm(img, 3, 1, bytes([249, 150, 51]))
        write_meta(meta)
        g = load_costmap(img, meta)
        assert g.cells[0, 0] == 1
        assert g.cells[0, 2] == 252
        assert 1 < g.cells[0, 1] < 252

    def test_bad_magic_rejected(self, tmp_path):
        img, meta = tmp_path / "m.pgm", tmp_path / "m.meta"
        write_raw_pgm(img, 2, 2, b"\xff" * 4, magic=b"P2")
        write_meta(meta)
        with pytest.raises(MapFormatError):
            load_costmap(img, meta)

    def test_truncated_raster_rejected(self, tmp_path):
        img, meta = tmp_path / "m.pgm", tmp_path / "m.meta"
        write_raw_pgm(img, 4, 4, b"\xff" * 7)
        write_meta(meta)
        with pytest.raises(MapFormatError):
            load_costmap(img, meta)

    def test_missing_meta_key_rejected(self, tmp_path):
        img, meta = tmp_path / "m.pgm", tmp_path / "m.meta"
        write_raw_pgm(img, 2, 2, b"\xff" * 4)
        meta.write_text("resolution: 0.05\norigin_x: 0\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_costmap(img, meta)

    def test_non_utf8_meta_rejected(self, tmp_path):
        img, meta = tmp_path / "m.pgm", tmp_path / "m.meta"
        write_raw_pgm(img, 2, 2, b"\xff" * 4)
        meta.write_bytes(b"\xff\xferesolution: 0.05\n")
        with pytest.raises(ConfigError):
            load_costmap(img, meta)

    def test_unknown_meta_key_rejected(self, tmp_path):
        img, meta = tmp_path / "m.pgm", tmp_path / "m.meta"
        write_raw_pgm(img, 2, 2, b"\xff" * 4)
        write_meta(meta, "negate: 1\n")
        with pytest.raises(ConfigError):
            load_costmap(img, meta)

    def test_nonpositive_resolution_rejected(self, tmp_path):
        img, meta = tmp_path / "m.pgm", tmp_path / "m.meta"
        write_raw_pgm(img, 2, 2, b"\xff" * 4)
        meta.write_text("resolution: 0\norigin_x: 0\norigin_y: 0\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            load_costmap(img, meta)

    def test_non_finite_geometry_rejected(self):
        for geometry in (
            dict(resolution=math.inf, origin_x=0.0, origin_y=0.0),
            dict(resolution=1.0, origin_x=math.inf, origin_y=0.0),
            dict(resolution=1.0, origin_x=0.0, origin_y=math.nan),
        ):
            with pytest.raises(ValidationError):
                CostmapGrid(width=2, height=2, cells=np.zeros((2, 2)), **geometry)

    def test_pgm_roundtrip_with_comments(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n3 2\n# another\n255\n" + bytes(range(6)))
        arr, maxval = read_pgm(path)
        assert maxval == 255 and arr.shape == (2, 3)
        assert arr.ravel().tolist() == [0, 1, 2, 3, 4, 5]

    def test_16bit_pgm_roundtrip(self, tmp_path):
        path = tmp_path / "w.pgm"
        data = np.array([[0, 500], [65535, 7]], dtype=np.uint16)
        write_pgm(path, data)
        arr, maxval = read_pgm(path)
        assert maxval == 65535
        assert np.array_equal(arr, data)

    def test_display_encoding_inverts_for_free_and_lethal(self):
        costs = np.array([0, 1, 126, 252, 253, 254, 255], dtype=np.uint8)
        pixels = costs_to_pixels(costs)
        back = pixels_to_costs(pixels, free_thresh=250, lethal_thresh=50)
        assert back[0] == 0
        assert back[5] == 254
        assert back[4] == 254  # inscribed exported as obstacle
        assert 1 <= back[1] <= 252 and 1 <= back[6] <= 252


@pytest.mark.parametrize(
    "free_thresh, lethal_thresh",
    [(250, 50), (255, 0), (1, 0), (2, 0), (255, 253), (200, 198), (128, 127), (97, 31)],
)
def test_pixel_table_gives_the_formula_for_every_pixel(free_thresh, lethal_thresh):
    # (200, 198) and (2, 0) leave one intermediate value (the degenerate ramp),
    # (128, 127) and (1, 0) none
    pixels = np.arange(256, dtype=np.uint8).reshape(16, 16)
    costs = pixels_to_costs(pixels, free_thresh=free_thresh, lethal_thresh=lethal_thresh)
    assert costs.dtype == np.uint8 and costs.shape == pixels.shape
    expected = [pixel_cost(p, free_thresh, lethal_thresh) for p in range(256)]
    assert costs.reshape(-1).tolist() == expected


class TestCoordinates:
    def test_origin_corner_maps_to_cell_zero(self):
        g = grid_from_ascii("..\n..", resolution=0.5)
        assert g.world_to_grid(MetricPoint(0.0, 0.0)) == GridIndex(0, 0)

    def test_hand_checked_floor_arithmetic(self):
        g = grid_from_ascii("....\n....\n....", resolution=0.5)
        assert g.world_to_grid(MetricPoint(1.26, 0.74)) == GridIndex(2, 1)

    def test_out_of_bounds_point_raises(self):
        g = grid_from_ascii("..\n..", resolution=0.5)
        with pytest.raises(GridBoundsError):
            g.world_to_grid(MetricPoint(5.0, 0.0))
        with pytest.raises(GridBoundsError):
            g.world_to_grid(MetricPoint(-0.01, 0.0))

    @pytest.mark.parametrize("x", [float("nan"), float("inf"), float("-inf"), 1e308, -1e308])
    def test_non_finite_or_overflowing_point_raises(self, x):
        g = grid_from_ascii("..\n..", resolution=0.05)
        with pytest.raises(GridBoundsError):
            g.world_to_grid(MetricPoint(x, 0.0))
        with pytest.raises(GridBoundsError):
            g.world_to_grid(MetricPoint(0.0, x))

    def test_unit_cell_center(self):
        g = grid_from_ascii("..\n..", resolution=1.0)
        assert g.grid_to_world(GridIndex(0, 0)) == MetricPoint(0.5, 0.5)

    def test_negative_origin_cell_center(self):
        g = grid_from_ascii(".....\n.....", resolution=0.5, origin=(-2.0, -2.0))
        assert g.grid_to_world(GridIndex(4, 0)) == MetricPoint(0.25, -1.75)

    def test_out_of_bounds_index_raises(self):
        g = grid_from_ascii("..\n..")
        with pytest.raises(GridBoundsError):
            g.grid_to_world(GridIndex(2, 0))

    def test_round_trip_within_half_cell(self):
        g = grid_from_ascii("\n".join(["." * 12] * 9), resolution=0.25, origin=(-1.0, 2.0))
        rng = random.Random(42)
        for _ in range(1000):
            p = MetricPoint(
                rng.uniform(-1.0, -1.0 + 12 * 0.25 - 1e-9),
                rng.uniform(2.0, 2.0 + 9 * 0.25 - 1e-9),
            )
            center = g.grid_to_world(g.world_to_grid(p))
            assert abs(center.x - p.x) <= 0.125 + 1e-12
            assert abs(center.y - p.y) <= 0.125 + 1e-12

    def test_world_to_grid_inverts_cell_centers_exactly(self):
        g = grid_from_ascii("\n".join(["." * 7] * 5), resolution=0.05, origin=(3.0, -4.0))
        for row in range(5):
            for col in range(7):
                assert g.world_to_grid(g.grid_to_world(GridIndex(col, row))) == GridIndex(col, row)

    def test_cell_count_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            CostmapGrid(
                width=3, height=3, resolution=1.0, origin_x=0, origin_y=0,
                cells=np.zeros(8, dtype=np.uint8),
            )


def random_costmap(rng, width=20, height=20, resolution=0.5):
    cells = np.zeros((height, width), dtype=np.uint8)
    for r in range(height):
        for c in range(width):
            roll = rng.random()
            if roll < 0.60:
                cells[r, c] = 0
            elif roll < 0.75:
                cells[r, c] = 254
            elif roll < 0.85:
                cells[r, c] = rng.randint(1, 252)
            elif roll < 0.90:
                cells[r, c] = 253
            else:
                cells[r, c] = 255
    cells[0, 0] = 0
    cells[height - 1, width - 1] = 0
    return CostmapGrid(
        width=width, height=height, resolution=resolution, origin_x=0, origin_y=0, cells=cells
    )


class TestGridShortestPath:
    def test_identity(self):
        g = grid_from_ascii("...\n...\n...")
        path, cost = one_leg(g, GridIndex(1, 1), GridIndex(1, 1))
        assert path_cells(path) == [GridIndex(1, 1)]
        assert cost == 0.0

    def test_diagonal_across_free_grid(self):
        g = grid_from_ascii("\n".join(["." * 5] * 5))
        path, cost = one_leg(g, GridIndex(0, 0), GridIndex(4, 4))
        path = path_cells(path)
        assert cost == pytest.approx(4 * math.sqrt(2), rel=1e-12)
        assert path[0] == GridIndex(0, 0) and path[-1] == GridIndex(4, 4)
        assert len(path) == 5

    def test_straight_line_cost_is_exact_geometric_length(self):
        g = grid_from_ascii("\n".join(["." * 5] * 2))
        _, cost = one_leg(g, GridIndex(0, 0), GridIndex(4, 0))
        assert cost == 4.0

    def test_graded_cell_cost_hand_computed(self):
        # factor(128) = 2, so stepping in and out costs 1.5 each: total 3.0
        g = grid_from_ascii("...")
        cells = np.array([[0, 128, 0]], dtype=np.uint8)
        g = CostmapGrid(width=3, height=1, resolution=1.0, origin_x=0, origin_y=0, cells=cells)
        _, cost = one_leg(g, GridIndex(0, 0), GridIndex(2, 0))
        assert cost == 3.0

    def test_search_detours_around_walls(self):
        g = grid_from_ascii(
            """
            .....
            .###.
            .#.#.
            .###.
            .....
            """
        )
        path, _ = one_leg(g, GridIndex(0, 0), GridIndex(4, 4))
        assert all(g.cells[c.row, c.col] < 253 for c in path_cells(path))

    def test_untraversable_endpoint_raises_validation(self):
        g = grid_from_ascii("..#")
        with pytest.raises(ValidationError):
            one_leg(g, GridIndex(0, 0), GridIndex(2, 0))

    def test_unreachable_raises_distinct_error(self):
        g = grid_from_ascii("..#..")
        with pytest.raises(UnreachableError):
            one_leg(g, GridIndex(0, 0), GridIndex(4, 0))

    def test_walled_pocket_is_unreachable(self):
        g = grid_from_ascii(
            """
            ...#.
            ...#.
            ...##
            """
        )
        with pytest.raises(UnreachableError):
            one_leg(g, GridIndex(0, 0), GridIndex(4, 1))

    def test_inscribed_blocked_by_default_allowed_with_flag(self):
        cells = np.array([[0, 253, 0]], dtype=np.uint8)
        g = CostmapGrid(width=3, height=1, resolution=1.0, origin_x=0, origin_y=0, cells=cells)
        with pytest.raises(UnreachableError):
            one_leg(g, GridIndex(0, 0), GridIndex(2, 0))
        path, cost = one_leg(g, GridIndex(0, 0), GridIndex(2, 0), allow_inscribed=True)
        assert cost == 4.0  # factor 3.0 averaged with free on both steps
        assert GridIndex(1, 0) in path_cells(path)

    def test_unknown_cells_never_traversed(self):
        cells = np.array([[0, 255, 0]], dtype=np.uint8)
        g = CostmapGrid(width=3, height=1, resolution=1.0, origin_x=0, origin_y=0, cells=cells)
        with pytest.raises(UnreachableError):
            one_leg(g, GridIndex(0, 0), GridIndex(2, 0), allow_inscribed=True)

    def test_matches_brute_force_on_random_grids(self):
        rng = random.Random(1234)
        agree = 0
        for _ in range(20):
            g = random_costmap(rng)
            expected = brute_grid_dijkstra(g, (0, 0), (19, 19))
            try:
                _, cost = one_leg(g, GridIndex(0, 0), GridIndex(19, 19))
            except UnreachableError:
                cost = None
            assert cost == expected
            agree += 1
        assert agree == 20

    def test_cost_symmetry(self):
        rng = random.Random(99)
        for _ in range(5):
            g = random_costmap(rng, width=12, height=12)
            try:
                _, forward = one_leg(g, GridIndex(0, 0), GridIndex(11, 11))
                _, backward = one_leg(g, GridIndex(11, 11), GridIndex(0, 0))
            except UnreachableError:
                continue
            assert forward == pytest.approx(backward, rel=1e-9)

    def test_blocking_an_off_path_cell_never_reduces_cost(self):
        rng = random.Random(5)
        g = random_costmap(rng, width=15, height=15)
        path, cost = one_leg(g, GridIndex(0, 0), GridIndex(14, 14))
        on_path = set(path_cells(path))
        cells = np.array(g.cells)
        blocked = 0
        for row in range(15):
            for col in range(15):
                if blocked >= 5:
                    break
                idx = GridIndex(col, row)
                if idx in on_path or cells[row, col] != 0:
                    continue
                mutated = np.array(cells)
                mutated[row, col] = 254
                g2 = CostmapGrid(
                    width=15, height=15, resolution=0.5, origin_x=0, origin_y=0, cells=mutated
                )
                _, cost2 = one_leg(g2, GridIndex(0, 0), GridIndex(14, 14))
                assert cost2 >= cost
                blocked += 1

    def test_triangle_inequality(self):
        rng = random.Random(31)
        g = random_costmap(rng, width=15, height=15)
        pts = [GridIndex(0, 0), GridIndex(14, 14), GridIndex(7, 2)]
        a, b, c = pts
        try:
            _, ab = one_leg(g, a, b)
            _, bc = one_leg(g, b, c)
            _, ac = one_leg(g, a, c)
        except (UnreachableError, ValidationError):
            pytest.skip("random grid disconnected for chosen probes")
        assert ac <= ab + bc + 1e-9

    def test_deterministic_path(self):
        rng = random.Random(77)
        g = random_costmap(rng)
        p1, c1 = one_leg(g, GridIndex(0, 0), GridIndex(19, 19))
        p2, c2 = one_leg(g, GridIndex(0, 0), GridIndex(19, 19))
        assert path_cells(p1) == path_cells(p2) and c1 == c2

    def test_half_tables_are_shared_and_read_only(self):
        for allow_inscribed in (False, True):
            table = metric.half_table(allow_inscribed)
            assert table is metric.half_table(allow_inscribed)
            assert not table.flags.writeable

    def test_concurrent_searches_share_one_grid(self):
        rng = random.Random(13)
        g = random_costmap(rng)
        def run(_):
            return one_leg(g, GridIndex(0, 0), GridIndex(19, 19))
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(run, range(16)))
        costs = {cost for _, cost in results}
        paths = {tuple(path_cells(path)) for path, _ in results}
        assert len(costs) == 1 and len(paths) == 1


# Mostly free cells so that random grids stay connected often enough.
_CELL_VALUES = [0] * 8 + [7, 64, 128, 200, 252] + [254] * 3 + [253, 255]


@st.composite
def search_cases(draw):
    width = draw(st.integers(2, 16))
    height = draw(st.integers(2, 16))
    n = width * height
    cells = np.array(
        draw(st.lists(st.sampled_from(_CELL_VALUES), min_size=n, max_size=n)), dtype=np.uint8
    ).reshape(height, width)
    start = GridIndex(draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1)))
    goal = GridIndex(draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1)))
    for idx in (start, goal):
        if cells[idx.row, idx.col] >= 253:
            cells[idx.row, idx.col] = 0
    grid = CostmapGrid(
        width=width,
        height=height,
        resolution=draw(st.sampled_from([0.05, 0.1, 1.0])),
        origin_x=0,
        origin_y=0,
        cells=cells,
    )
    return grid, start, goal, draw(st.booleans())


# Mostly closed cells, so that many legs have no route.
_WALLED_VALUES = [254] * 6 + [0] * 4 + [64, 253, 255]


@st.composite
def leg_cases(draw):
    """(grid, legs, allow_inscribed): a small grid and one to five
    (start, goal) legs. Most endpoints are opened; some keep a closed cell,
    and some cases move one endpoint off the grid, so legs fail validation as
    well as find no route."""
    width = draw(st.integers(2, 12))
    height = draw(st.integers(2, 12))
    n = width * height
    values = draw(st.sampled_from([_CELL_VALUES, _WALLED_VALUES]))
    cells = np.array(
        draw(st.lists(st.sampled_from(values), min_size=n, max_size=n)), dtype=np.uint8
    ).reshape(height, width)
    ends = []
    for _ in range(2 * draw(st.integers(1, 5))):
        idx = GridIndex(draw(st.integers(0, width - 1)), draw(st.integers(0, height - 1)))
        if draw(st.integers(0, 7)):  # else keep the cell, open or closed
            cells[idx.row, idx.col] = min(cells[idx.row, idx.col], 252)
        ends.append(idx)
    if draw(st.integers(0, 9)) == 0:
        i = draw(st.integers(0, len(ends) - 1))
        ends[i] = GridIndex(width, ends[i].row)
    grid = CostmapGrid(
        width=width,
        height=height,
        resolution=draw(st.sampled_from([0.05, 0.1, 1.0])),
        origin_x=0,
        origin_y=0,
        cells=cells,
    )
    return grid, list(zip(ends[::2], ends[1::2])), draw(st.booleans())


class TestLegsSearchedTogether:
    """grid_shortest_paths against one call per leg."""

    @pytest.mark.parametrize("entries", [0, 10**9], ids=["each-leg-alone", "all-legs-together"])
    @settings(max_examples=200, deadline=None)
    @given(case=leg_cases(), first_slack=st.sampled_from([0.125, 2.0]))
    def test_each_leg_matches_its_one_leg_search(self, entries, case, first_slack):
        g, legs, allow_inscribed = case
        failures = (GridBoundsError, ValidationError, UnreachableError)
        with pytest.MonkeyPatch.context() as mp:
            # a thin first ellipse makes most legs regrow
            mp.setattr(metric, "_FIRST_SLACK", first_slack)
            mp.setattr(metric, "_GROUP_ENTRIES", entries)
            expected = []
            for start, goal in legs:
                try:
                    path, cost = one_leg(g, start, goal, allow_inscribed=allow_inscribed)
                except failures as exc:
                    expected.append((type(exc), str(exc)))
                    break
                expected.append((path_cells(path), cost.hex()))
            found = []
            try:
                for path, cost in grid_shortest_paths(g, legs, allow_inscribed=allow_inscribed):
                    found.append((path_cells(path), cost.hex()))
            except failures as exc:
                found.append((type(exc), str(exc)))
        # every leg up to the first failure, and nothing after it
        assert found == expected


def long_detour_grid():
    """Two free strips split by a 13-cell-thick wall with two tunnels through
    it: a costly one 9 rows from the endpoints, a free one 18 rows away."""
    cells = np.zeros((32, 25), dtype=np.uint8)
    cells[:, 6:19] = 254
    cells[11, 6:19] = 252
    cells[20, 6:19] = 0
    return CostmapGrid(width=25, height=32, resolution=1.0, origin_x=0, origin_y=0, cells=cells)


class TestWindowedSearchExactness:
    @settings(max_examples=200, deadline=None)
    @given(search_cases(), st.sampled_from([0.125, 0.25, 0.5, 1.0]))
    def test_matches_brute_force_with_small_windows(self, case, first_slack):
        g, start, goal, allow_inscribed = case
        expected = brute_grid_dijkstra(g, start, goal, allow_inscribed)
        # Thin first ellipses make most searches grow, by slack or by cost.
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(metric, "_FIRST_SLACK", first_slack)
            try:
                path, cost = one_leg(g, start, goal, allow_inscribed=allow_inscribed)
            except UnreachableError:
                path, cost = None, None
        assert cost == expected
        if path is not None:
            path = path_cells(path)
            assert path[0] == start and path[-1] == goal
            for a, b in zip(path, path[1:]):
                assert max(abs(a.col - b.col), abs(a.row - b.row)) == 1
            limit = 253 if allow_inscribed else 252
            assert all(g.cells[c.row, c.col] <= limit for c in path)

    def test_long_detour_grows_ellipse_then_takes_exact_pass(self, monkeypatch):
        g = long_detour_grid()
        start, goal = GridIndex(5, 2), GridIndex(19, 2)
        windows = []
        search = metric.window_search

        def spy(rings, resolution, sources, shears):
            found = search(rings, resolution, sources, shears)
            ((dist, pred),), (half,), (source,) = found, rings, sources
            # the window's first cell lies at start - source in the grid
            width = half.shape[1] - 2  # half holds the window in a one-cell ring
            cost = float(dist[source + (goal.row - start.row) * width + goal.col - start.col])
            windows.append(cost if cost < math.inf else None)
            return found

        monkeypatch.setattr(metric, "_FIRST_SLACK", 1.0)
        monkeypatch.setattr(metric, "window_search", spy)
        path, cost = one_leg(g, start, goal)
        assert cost == brute_grid_dijkstra(g, start, goal)
        # First ellipse and its fourfold slack: no tunnel, no path. The next
        # grown ellipse takes the costly tunnel; the exact pass, wide enough
        # for any path that cheap, takes the free tunnel.
        assert len(windows) == 4 and windows[:2] == [None, None]
        assert windows[3] == cost < windows[2]
        assert GridIndex(12, 20) in path_cells(path)

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 40),
        st.integers(1, 40),
        st.data(),
        st.floats(0.0, 60.0, allow_nan=False),
    )
    def test_ellipse_box_holds_every_cell_within_span(self, width, height, data, slack):
        start, goal = (
            GridIndex(data.draw(st.integers(0, width - 1)), data.draw(st.integers(0, height - 1)))
            for _ in range(2)
        )
        # a box of the grid that holds start and goal
        box = tuple(
            slice(
                data.draw(st.integers(0, min(a, b))),
                data.draw(st.integers(max(a, b) + 1, size)),
            )
            for a, b, size in ((start.row, goal.row, height), (start.col, goal.col, width))
        )
        span = metric._octile_distance(start, goal) + slack
        top, left, inside = metric.ellipse(box, start, goal, span)
        rows = np.arange(height)[:, None]
        cols = np.arange(width)[None, :]
        total = _octile(rows - start.row, cols - start.col)
        total += _octile(rows - goal.row, cols - goal.col)
        within = np.zeros((height, width), dtype=bool)
        within[box] = True
        # the box's part of the ellipse equals the mask, and lies inside its box
        placed = np.zeros((height, width), dtype=bool)
        placed[top : top + inside.shape[0], left : left + inside.shape[1]] = inside
        assert np.array_equal(placed, (total <= span) & within)
        assert inside[0].any() and inside[-1].any() and inside[:, 0].any() and inside[:, -1].any()


def _octile(drow, dcol):
    """max + (sqrt(2) - 1) * min of |drow| and |dcol|, broadcast, as floats."""
    drow, dcol = np.abs(drow), np.abs(dcol)
    return np.maximum(drow, dcol) + (metric.SQRT2 - 1.0) * np.minimum(drow, dcol)


# Two cell mixes: mostly open, and almost all closed (most of those have no route).
_WINDOW_MIXES = (
    [0] * 6 + [7, 64, 200, 252, 253, 254, 255],
    [254] * 10 + [255, 253, 0, 31],
)


@st.composite
def window_cases(draw):
    """(f, resolution, source, target): window factors, which may be 1xN or
    Nx1, and two (row, col) cells, often on the window's first or last row
    and column. Either cell may be closed."""
    shape = draw(st.sampled_from(["row", "column", "box"]))
    height = 1 if shape == "row" else draw(st.integers(1, 12))
    width = 1 if shape == "column" else draw(st.integers(1, 12))
    mix = draw(st.sampled_from(_WINDOW_MIXES))
    n = height * width
    cells = np.array(draw(st.lists(st.sampled_from(mix), min_size=n, max_size=n)), dtype=np.uint8)
    f = cell_factor_table(draw(st.booleans()))[cells.reshape(height, width)]

    def cell():
        return tuple(
            draw(st.one_of(st.sampled_from([0, size - 1]), st.integers(0, size - 1)))
            for size in (height, width)
        )

    return f, draw(st.sampled_from([0.05, 0.1, 1.0])), cell(), cell()


def _grid_cell(shear, u, v):
    """The grid (row, col) of cell (u, v) of a window with shear."""
    return u, v + shear * u


def _ring(f, shear):
    """f halved, inf at closed cells, in the inf ring of a window with shear:
    one row deep, 1 + |shear| columns wide."""
    pad = 1 + abs(shear)
    ring = np.full((f.shape[0] + 2, f.shape[1] + 2 * pad), np.inf)
    ring[1:-1, pad:-pad] = np.where(f < 0, np.inf, 0.5 * f)
    return ring


def _in_grid(f, shear):
    """(grid_f, at): the window f with shear as a plain window of grid
    rows and columns, the bounding box of its cells with every other cell
    closed, and at[u, v], the flat index in grid_f of window cell (u, v).
    Row-major order of grid_f is the order of the window's node numbers."""
    height, width = f.shape
    rows, cols = _grid_cell(shear, *np.indices(f.shape))
    cols -= cols.min()
    at = rows * (width + abs(shear) * (height - 1)) + cols
    grid_f = np.full((height, width + abs(shear) * (height - 1)), -1.0)
    grid_f.flat[at] = f
    return grid_f, at


# Cell values that make many equal-cost paths: one free value with walls,
# two values, and a graded mix whose sums still meet.
_TIE_MIXES = ([0] * 4 + [254], [0, 0, 128, 254], [0, 7, 64, 128, 200, 252, 254])


@st.composite
def tie_cases(draw):
    """(f, resolution, source): window factors of up to 24 x 24 cells with
    few cost values, and a (row, col) cell, which may be closed."""
    height, width = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    mix = draw(st.sampled_from(_TIE_MIXES))
    f = cell_factor_table()[draw(arrays(np.uint8, (height, width), elements=st.sampled_from(mix)))]
    source = (draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1)))
    return f, draw(st.sampled_from([0.05, 0.1, 1.0])), source


class TestFixedDegreeWindowGraph:
    """metric.window_search and its graph against the open-cell builder they
    replaced (oracles.open_cell_graph): the same costs, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(window_cases())
    def test_costs_match_open_cell_graph(self, case):
        f, resolution, source, _ = case
        f[source] = max(f[source], 1.0)  # the search starts at an open cell
        ((costs, _),) = metric.window_search(
            [_ring(f, 0)], resolution, [source[0] * f.shape[1] + source[1]]
        )
        assert costs.shape == (f.size,)
        assert (costs.reshape(f.shape) == open_cell_costs(f, resolution, source)).all()

    @settings(max_examples=100, deadline=None)
    @given(window_cases())
    def test_csr_layout(self, case):
        f, resolution, _, _ = case
        height, width = f.shape
        n = f.size
        graph, _ = metric._ring_graph([_ring(f, 0)], resolution)
        assert graph.shape == (n, n)
        assert (np.diff(graph.indptr) == 8).all()
        rows = np.repeat(np.arange(n), 8)
        cols, weights = graph.indices, graph.data
        # Every target is a node of the window. A finite edge joins a cell to
        # an 8-neighbour, and every finite column appears at most once in a row.
        assert ((cols >= 0) & (cols < n)).all()
        finite = np.isfinite(weights)
        pairs = rows[finite] * n + cols[finite]
        assert len(np.unique(pairs)) == len(pairs)
        (r0, c0), (r1, c1) = np.divmod(rows[finite], width), np.divmod(cols[finite], width)
        assert (np.maximum(abs(r1 - r0), abs(c1 - c0)) == 1).all()  # an 8-neighbour, no wrap
        # no step costs less than its length, and an edge at a closed cell is never taken
        assert (np.isinf(weights) | (weights >= resolution)).all()
        closed = (f < 0).reshape(-1)
        assert np.isinf(weights[closed[rows] | closed[cols]]).all()


def _slacks():
    """The slack span - direct: 2 (the first ellipse's), any, and an octile
    length a + b * (sqrt(2) - 1), which cells' sums can meet exactly."""
    lattice = st.builds(
        lambda a, b: a + b * (metric.SQRT2 - 1.0), st.integers(0, 12), st.integers(0, 12)
    )
    return st.one_of(st.just(2.0), st.floats(0.0, 24.0, allow_nan=False), lattice)


@st.composite
def ellipse_cases(draw):
    """(width, height, start, goal, span): a grid of up to 24 x 24 cells,
    foci often on its edge, and span = octile(start, goal) + a _slacks slack."""
    width, height = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    start, goal = (
        GridIndex(
            *(
                draw(st.one_of(st.sampled_from([0, n - 1]), st.integers(0, n - 1)))
                for n in (width, height)
            )
        )
        for _ in range(2)
    )
    return width, height, start, goal, metric._octile_distance(start, goal) + draw(_slacks())


def _cell_sum_case(width, height, start, goal, cell):
    """An ellipse case whose span is cell's octile sum, in the float
    operations of the mask, so the cell lies on E(span)'s edge."""
    span = metric._octile_distance(start, cell) + metric._octile_distance(cell, goal)
    return width, height, start, goal, span


def _accepted_span(straight, diagonal, resolution):
    """C / resolution * _ROUNDING for the float cost C of a free-cell path of
    straight then diagonal steps, summed as csgraph sums it: the least span
    at which grid_shortest_paths accepts that path."""
    cost = 0.0
    for step in [1.0] * straight + [metric.SQRT2] * diagonal:
        cost += 1.0 * (resolution * step)
    return cost / resolution * metric._ROUNDING


_SHEARS = (-1, 0, 1)


class TestShearedLayouts:
    """The plain and sheared window layouts against oracles written in grid
    coordinates."""

    @settings(max_examples=150, deadline=None)
    @given(ellipse_cases())
    # spans that a cell's octile sum meets exactly, on diagonal legs both ways and a flat one
    @example(case=_cell_sum_case(12, 9, GridIndex(1, 2), GridIndex(9, 5), GridIndex(4, 7)))
    @example(case=_cell_sum_case(12, 9, GridIndex(9, 5), GridIndex(1, 2), GridIndex(10, 1)))
    @example(case=_cell_sum_case(10, 10, GridIndex(8, 1), GridIndex(2, 6), GridIndex(0, 0)))
    @example(case=_cell_sum_case(7, 3, GridIndex(0, 1), GridIndex(6, 1), GridIndex(3, 0)))
    # spans at which grid_shortest_paths accepts a path's cost: free paths of
    # straight and diagonal steps, detours and routes along the octile line
    @example(case=(12, 9, GridIndex(0, 0), GridIndex(7, 4), _accepted_span(5, 4, 0.05)))
    @example(case=(12, 9, GridIndex(11, 8), GridIndex(4, 4), _accepted_span(3, 4, 0.05)))
    @example(case=(16, 16, GridIndex(2, 13), GridIndex(13, 2), _accepted_span(0, 11, 0.025)))
    @example(case=(9, 20, GridIndex(4, 0), GridIndex(5, 19), _accepted_span(20, 1, 0.1)))
    def test_ellipse_mask_maps_back_to_the_oracle(self, case):
        width, height, start, goal, span = case
        slack = span - metric._octile_distance(start, goal)
        # a margin past which no cell is within span (each octile term grows
        # by at least sqrt(2) - 1 per step away from both foci)
        pad = math.ceil(slack / (2.0 * (metric.SQRT2 - 1.0))) + 2
        expected = brute_ellipse(
            height + 2 * pad,
            width + 2 * pad,
            (start.col + pad, start.row + pad),
            (goal.col + pad, goal.row + pad),
            span,
        )
        for shear in _SHEARS:
            # the foci's rows and window columns, widened by the documented reaches
            reach, across = metric._reach(slack), metric._reach(slack, shear)
            a, b = (p.col - shear * p.row for p in (start, goal))
            box = (
                min(start.row, goal.row) - reach,
                max(start.row, goal.row) + reach + 1,
                min(a, b) - across,
                max(a, b) + across + 1,
            )
            top, left, inside = metric._mask(shear, start, goal, span, *box)
            assert inside[0].any() and inside[-1].any()
            assert inside[:, 0].any() and inside[:, -1].any()
            placed = np.zeros_like(expected)
            for i, j in np.argwhere(inside).tolist():
                r, c = _grid_cell(shear, top + i, left + j)
                placed[r + pad, c + pad] = True  # raises if a cell fell past the margin
            assert np.array_equal(placed, expected)
        # the chosen shear's box lies on the grid and holds the grid's part of E(span)
        grid = CostmapGrid(width, height, 1.0, 0.0, 0.0, np.zeros((height, width), np.uint8))
        shear, *box = metric._window_box(grid, start, goal, slack)
        top, left, inside = metric._mask(shear, start, goal, span, *box)
        placed = np.zeros((height, width), dtype=bool)
        for i, j in np.argwhere(inside).tolist():
            r, c = _grid_cell(shear, top + i, left + j)
            assert 0 <= r < height and 0 <= c < width
            placed[r, c] = True
        assert np.array_equal(placed, expected[pad : pad + height, pad : pad + width])

    @pytest.mark.parametrize("shear", _SHEARS, ids=lambda shear: f"shear{shear}")
    @settings(max_examples=60, deadline=None)
    @given(case=window_cases())
    def test_ring_graph_rows_list_grid_moves(self, shear, case):
        f, resolution, _, _ = case
        height, width = f.shape
        graph, _ = metric._ring_graph([_ring(f, shear)], resolution, [shear])
        assert (np.diff(graph.indptr) == 8).all()
        targets = graph.indices.reshape(height, width, 8)
        weights = graph.data.reshape(height, width, 8)
        cells = [_grid_cell(shear, u, v) for u in range(height) for v in range(width)]
        # node numbers follow the grid's row-major order of cells
        assert cells == sorted(cells)
        for u in range(height):
            for v in range(width):
                r, c = _grid_cell(shear, u, v)
                for k, (drow, dcol) in enumerate(metric._MOVES):
                    step = resolution * (metric.SQRT2 if drow and dcol else 1.0)
                    target, weight = int(targets[u, v, k]), float(weights[u, v, k])
                    if (r + drow, c + dcol) not in cells:  # off the window: inf, to a window node
                        assert 0 <= target < height * width and weight == math.inf
                        continue
                    # the k-th move of the row reaches the grid neighbour (drow, dcol)
                    assert cells[target] == (r + drow, c + dcol)
                    u2, v2 = divmod(target, width)
                    if f[u, v] < 0 or f[u2, v2] < 0:
                        assert weight == math.inf
                    else:
                        assert weight == step * (0.5 * f[u, v] + 0.5 * f[u2, v2])

    @pytest.mark.parametrize("shear", _SHEARS, ids=lambda shear: f"shear{shear}")
    @settings(max_examples=100, deadline=None)
    @given(
        case=window_cases(),
        others=st.lists(st.tuples(window_cases(), st.sampled_from(_SHEARS)), max_size=2),
    )
    def test_ring_graph_is_symmetric(self, shear, case, others):
        # _ring_graph fills a move and its reverse from one sum: every finite
        # u -> v has a v -> u of the same bits, and no edge joins two windows
        windows = [(case, shear)] + others
        rings = [_ring(f, s) for (f, _, _, _), s in windows]
        graph, offsets = metric._ring_graph(rings, case[1], [s for _, s in windows])
        n = graph.shape[0]
        tails = np.repeat(np.arange(n), 8)
        finite = np.isfinite(graph.data)
        tails, heads = tails[finite], graph.indices[finite]
        window = np.searchsorted(offsets, np.arange(n), side="right") - 1
        assert (window[tails] == window[heads]).all()
        bits = dict(zip(zip(tails.tolist(), heads.tolist()), graph.data[finite].tolist()))
        assert len(bits) == len(tails)
        for (u, v), weight in bits.items():
            back = bits.get((v, u))
            assert back is not None and back.hex() == weight.hex()

    @pytest.mark.parametrize("shear", _SHEARS, ids=lambda shear: f"shear{shear}")
    @settings(max_examples=300, deadline=None)
    @given(case=window_cases(), top=st.integers(-3, 3), left=st.integers(-3, 3))
    @example(  # a closed column splits the window: no route in the plain layout
        case=(np.array([[1.0, -1.0, 1.0], [1.0, -1.0, 1.0]]), 1.0, (0, 0), (1, 2)), top=2, left=3
    )
    def test_search_matches_open_cell_graph(self, shear, case, top, left):
        f, resolution, source, target = case
        for cell in (source, target):  # the search's endpoints are open
            f[cell] = max(f[cell], 1.0)
        height, width = f.shape
        ((dist, pred),) = metric.window_search(
            [_ring(f, shear)], resolution, [source[0] * width + source[1]], [shear]
        )
        # the window's cells in grid coordinates, closed around it
        cells = {
            _grid_cell(shear, top + u, left + v): f[u, v]
            for u in range(height)
            for v in range(width)
        }
        rows, cols = zip(*cells)
        grid_top, grid_left = min(rows), min(cols)
        grid_f = np.full((max(rows) - grid_top + 1, max(cols) - grid_left + 1), -1.0)
        for (r, c), value in cells.items():
            grid_f[r - grid_top, c - grid_left] = value
        start, goal = (
            GridIndex(*_grid_cell(shear, top + u, left + v)[::-1]) for u, v in (source, target)
        )
        expected = open_cell_search(grid_f, grid_top, grid_left, resolution, start, goal)
        v = target[0] * width + target[1]
        if expected is None:
            assert dist[v] == math.inf
            return
        cost, path = float(dist[v]), []
        while v >= 0:
            r, c = _grid_cell(shear, top + v // width, left + v % width)
            path.append((c, r))
            v = int(pred[v])
        assert path[::-1] == expected[0] and cost == expected[1]

    @pytest.mark.parametrize("shear", _SHEARS, ids=lambda shear: f"shear{shear}")
    @settings(max_examples=150, deadline=None)
    @given(case=tie_cases())
    def test_pred_follows_the_tie_rule(self, shear, case):
        # csgraph's predecessor choice among equal-cost ones, which every
        # pinned path depends on: a scipy whose heap order differs fails here
        f, resolution, source = case
        f[source] = max(f[source], 1.0)
        height, width = f.shape
        ((dist, pred),) = metric.window_search(
            [_ring(f, shear)], resolution, [source[0] * width + source[1]], [shear]
        )
        grid_f, at = _in_grid(f, shear)
        grid_dist = np.full(grid_f.shape, np.inf)
        grid_dist.flat[at] = dist.reshape(f.shape)
        expected = tie_rule_pred(grid_dist, _ring(grid_f, 0), resolution)
        reached = (dist < math.inf).reshape(f.shape)
        got = np.where(pred >= 0, at.reshape(-1)[np.maximum(pred, 0)], pred).reshape(f.shape)
        assert (got[reached] == expected.flat[at[reached]]).all()

    @pytest.mark.parametrize(
        "to_two", [(1.0, math.inf), (math.inf, 1.0)], ids=["finite-first", "inf-first"]
    )
    def test_csgraph_never_relaxes_an_inf_entry(self, to_two):
        # _ring_graph gives a move off the window weight inf and any target
        # in the window, which a finite move may list too: a scipy that
        # relaxes inf entries or sums duplicate entries fails here
        from scipy.sparse import csr_array
        from scipy.sparse.csgraph import dijkstra

        # node 0 lists node 1 at inf, then node 2 twice, at weights to_two
        weights = np.array([math.inf, *to_two])
        targets = np.array([1, 2, 2], dtype=np.int32)
        indptr = np.array([0, 3, 3, 3], dtype=np.int32)
        graph = csr_array((weights, targets, indptr), shape=(3, 3))
        dist, pred = dijkstra(graph, indices=0, return_predecessors=True)
        assert dist.tolist() == [0.0, math.inf, 1.0]
        assert pred.tolist() == [-9999, -9999, 0]
