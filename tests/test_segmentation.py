import hashlib
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.sparse import csgraph

from semnav import envgen, segmentation
from semnav.errors import ConfigError, MapConsistencyError, ValidationError
from semnav.metric import CostmapGrid, GridIndex, half_table
from semnav.segmentation import (
    CategoryRule,
    FOUR_CONNECTED,
    RoomLabelRaster,
    _boundary_pairs,
    _compact_labels,
    _flood,
    _merge_regions,
    _seed_labels,
    categorize_room,
    default_min_room_cells,
    extract_adjacency,
    parse_rules,
    segment_rooms,
)

from conftest import grid_from_ascii
from oracles import (
    brute_absorb,
    brute_adjacency,
    brute_boundary_pairs,
    brute_centroid_cell,
    brute_compact_labels,
    brute_flood,
    brute_merge,
    brute_seed_components,
    ndimage_room_summary,
    whole_room_adjacency,
)


def overlap_matrix(gt_raster, seg_raster):
    """For each ground-truth label, its best segment label and IoU."""
    out = {}
    for k in gt_raster.room_labels():
        gt_region = gt_raster.labels == k
        best, best_inter = None, 0
        for s in seg_raster.room_labels():
            inter = int((gt_region & (seg_raster.labels == s)).sum())
            if inter > best_inter:
                best, best_inter = s, inter
        if best is None:
            out[k] = (None, 0.0)
            continue
        union = int((gt_region | (seg_raster.labels == best)).sum())
        out[k] = (best, best_inter / union)
    return out


class TestSegmentRooms:
    def test_single_rectangle_is_one_room(self):
        g = grid_from_ascii(
            """
            ########
            #......#
            #......#
            #......#
            ########
            """,
            resolution=0.5,
        )
        raster = segment_rooms(g, min_room_cells=4)
        assert raster.room_labels() == [1]
        free = g.cells < 253
        assert np.array_equal(raster.labels > 0, free)

    def test_no_free_cells_rejected(self):
        g = grid_from_ascii("###\n###")
        with pytest.raises(ValidationError):
            segment_rooms(g)

    def test_two_rooms_with_door(self):
        spec = envgen.EnvSpec(
            seed=3,
            n_rooms=2,
            layout="chain",
            room_size_range=(4.0, 4.0),
            resolution=0.1,
            door_width=0.8,
            object_density=(0, 0),
        )
        grid, gt, _ = envgen.generate(spec)
        raster = segment_rooms(grid, door_width_max=1.2)
        assert len(raster.room_labels()) == 2
        matches = overlap_matrix(gt.raster, raster)
        assert all(iou >= 0.8 for _, iou in matches.values())
        # door cells belong to exactly one room (all reachable free cells labeled)
        free = grid.cells < 253
        assert np.array_equal(raster.labels > 0, free)

    def test_office_suite_recovers_k_plus_one_segments(self):
        spec = envgen.EnvSpec(seed=5, n_rooms=4, resolution=0.1)
        grid, gt, _ = envgen.generate(spec)
        raster = segment_rooms(grid)
        assert len(raster.room_labels()) == 5
        matches = overlap_matrix(gt.raster, raster)
        assigned = [seg for seg, _ in matches.values()]
        assert len(set(assigned)) == 5  # each gt room majority-covered by its own segment

    def test_deterministic(self):
        spec = envgen.EnvSpec(seed=9, n_rooms=3, resolution=0.1)
        grid, _, _ = envgen.generate(spec)
        a = segment_rooms(grid)
        b = segment_rooms(grid)
        assert a == b
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_unreachable_pocket_stays_unlabeled(self):
        g = grid_from_ascii(
            """
            ##########
            #....#...#
            #....#...#
            #....#...#
            ##########
            """,
            resolution=0.5,
        )
        raster = segment_rooms(g, min_room_cells=1)
        # right pocket is smaller and disconnected: label 0
        assert raster.labels[1:4, 6:9].max() == 0
        assert raster.labels[1:4, 1:5].min() > 0

    def test_labels_are_four_connected(self):
        from scipy import ndimage

        spec = envgen.EnvSpec(seed=21, n_rooms=5, resolution=0.1)
        grid, _, _ = envgen.generate(spec)
        raster = segment_rooms(grid)
        for k in raster.room_labels():
            _, n = ndimage.label(raster.labels == k, structure=FOUR_CONNECTED)
            assert n == 1

    def test_every_labeled_cell_is_free(self):
        spec = envgen.EnvSpec(seed=22, n_rooms=3, resolution=0.1)
        grid, _, _ = envgen.generate(spec)
        raster = segment_rooms(grid)
        assert (grid.cells[raster.labels > 0] < 253).all()

    @pytest.mark.parametrize("door_width_max", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_door_width_rejected(self, small_env, door_width_max):
        grid, _, _ = small_env
        with pytest.raises(ConfigError):
            segment_rooms(grid, door_width_max=door_width_max)

    @pytest.mark.parametrize("area", [-1.0, float("nan"), float("inf")])
    def test_bad_min_room_area_rejected(self, area):
        with pytest.raises(ConfigError):
            default_min_room_cells(0.05, area)

    def test_zero_min_room_area_is_one_cell(self):
        assert default_min_room_cells(0.05, 0.0) == 1


@st.composite
def flood_inputs(draw):
    """Small grids with quantised distances (plateaus), holes and seed sets."""
    h, w = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    levels = draw(st.integers(2, 4))
    dist = np.array(
        draw(st.lists(st.integers(1, levels), min_size=h * w, max_size=h * w)), dtype=float
    ).reshape(h, w)
    hole_rate = draw(st.sampled_from([0, 1, 3]))
    domain = np.array(
        draw(st.lists(st.integers(0, 9), min_size=h * w, max_size=h * w))
    ).reshape(h, w) >= hole_rate
    n_groups = draw(st.integers(1, 6))
    seed_map = np.zeros((h, w), dtype=int)
    picks = st.tuples(st.integers(0, h * w - 1), st.integers(1, n_groups))
    for cell, k in draw(st.lists(picks, min_size=1, max_size=8)):
        r, c = divmod(cell, w)
        domain[r, c] = True
        seed_map[r, c] = k  # a later pick may take the cell over: sets stay disjoint
    seeds = [np.argwhere(seed_map == k) for k in range(1, n_groups + 1)]
    return dist, domain, [cells for cells in seeds if len(cells)]


def label_grids(max_label: int, dtype):
    """Label arrays of up to 8x8 cells with values in 0..max_label."""
    return st.tuples(st.integers(1, 8), st.integers(1, 8)).flatmap(
        lambda hw: st.lists(
            st.integers(0, max_label), min_size=hw[0] * hw[1], max_size=hw[0] * hw[1]
        ).map(lambda v: np.array(v, dtype=dtype).reshape(hw))
    )


@st.composite
def room_rasters(draw):
    """uint16 room rasters: blocks of up to 4x4 cells of up to three labels,
    drawn with gaps and 65535 among them, plus stray cells; some are 1xN or Nx1."""
    h, w = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    h, w = draw(st.sampled_from([(h, w), (1, w), (h, 1)]))
    bh, bw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    values = [0, *draw(st.sets(st.sampled_from([1, 2, 3, 7, 65535]), max_size=3))]
    ch, cw = -(-h // bh), -(-w // bw)
    coarse = np.array(draw(st.lists(st.sampled_from(values), min_size=ch * cw, max_size=ch * cw)))
    labels = np.kron(coarse.reshape(ch, cw), np.ones((bh, bw), dtype=int))[:h, :w]
    for _ in range(draw(st.integers(0, 6))):
        r, c = draw(st.integers(0, h - 1)), draw(st.integers(0, w - 1))
        labels[r, c] = draw(st.sampled_from(values))
    return labels.astype(np.uint16)


@st.composite
def repeated_row_rasters(draw):
    """uint16 room rasters of up to four distinct rows, each laid down 1-5 times
    along axis 0 in a drawn order; some have a single row."""
    w = draw(st.integers(1, 12))
    values = [0, *draw(st.sets(st.sampled_from([1, 2, 3, 65535]), min_size=1, max_size=3))]
    n = draw(st.integers(1, 4))
    rows = np.array(draw(st.lists(
        st.lists(st.sampled_from(values), min_size=w, max_size=w), min_size=n, max_size=n
    )))
    order = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=8))
    reps = draw(st.lists(st.integers(1, 5), min_size=len(order), max_size=len(order)))
    return np.repeat(rows[order], reps, axis=0).astype(np.uint16)


U_JOINED_BELOW = np.array([[1, 0, 1], [1, 0, 1], [1, 1, 1]])
RING = np.array([[2, 2, 2, 2], [2, 0, 0, 2], [2, 0, 0, 2], [2, 2, 2, 2]])
DIAGONAL_ONLY = np.array([[1, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 1]])
COMB = np.array([[3, 0, 3, 0, 3], [3, 3, 3, 3, 3], [3, 0, 3, 0, 3]])
# one region whose runs join in three hook rounds: the right-hand U's bottom
# run hooks under the middle tooth, whose tree then joins the top-right run
# in round two and the left tooth's tree only in round three
THREE_HOOK_ROUNDS = np.array([
    [0, 0, 0, 0, 0, 1],
    [1, 1, 0, 1, 0, 1],
    [1, 0, 0, 1, 1, 1],
    [1, 1, 1, 0, 0, 1],
    [0, 1, 1, 1, 1, 1],
    [0, 0, 1, 1, 1, 1],
])


def zigzag_comb(teeth: int, height: int) -> np.ndarray:
    """One serpentine region: teeth in the even columns, each gap closed at the
    top row and the bottom row in turn, so consecutive teeth join at alternate ends."""
    labels = np.zeros((height, 2 * teeth - 1), dtype=np.uint16)
    labels[:, ::2] = 1
    labels[0, 1::4] = 1
    labels[-1, 3::4] = 1
    return labels


def seed_raster(seeds: list[np.ndarray], shape) -> np.ndarray:
    """The label raster of a seed list: item k's cells get label k (1-based)."""
    raster = np.zeros(shape, dtype=np.uint16)
    for k, cells in enumerate(seeds, start=1):
        raster[cells[:, 0], cells[:, 1]] = k
    return raster


@st.composite
def region_grids(draw):
    """Flood-like label grids: blocks of up to 4x4 cells give wide boundaries,
    stray cells give many small regions, and some cells are 0-holes."""
    h, w = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    bh, bw = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    ch, cw = -(-h // bh), -(-w // bw)
    coarse = np.array(
        draw(st.lists(st.integers(0, n), min_size=ch * cw, max_size=ch * cw))
    ).reshape(ch, cw)
    labels = np.kron(coarse, np.ones((bh, bw), dtype=int))[:h, :w].astype(np.int32)
    picks = st.tuples(st.integers(0, h * w - 1), st.integers(0, n + 4))
    for cell, k in draw(st.lists(picks, max_size=12)):
        labels.flat[cell] = k
    return labels


@st.composite
def seed_inputs(draw):
    """Quantised distance grids with holes, and a depth that may leave no maximum."""
    h, w = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    dist = np.array(
        draw(st.lists(st.integers(0, 4), min_size=h * w, max_size=h * w)), dtype=float
    ).reshape(h, w)
    domain = np.array(
        draw(st.lists(st.integers(0, 4), min_size=h * w, max_size=h * w))
    ).reshape(h, w) > 0
    domain.flat[draw(st.integers(0, h * w - 1))] = True
    return dist, domain, draw(st.sampled_from([0.0, 1.0, 2.5, 4.0]))


class TestAgainstLoopOracles:
    """The vectorised and rank-keyed steps against the per-cell loops they replaced."""

    @settings(max_examples=400, deadline=None)
    @given(flood_inputs())
    def test_flood_matches_tuple_heap(self, inputs):
        dist, domain, seeds = inputs
        got = _flood(dist, domain, seed_raster(seeds, dist.shape))
        want = brute_flood(dist, domain, seeds)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_flood_matches_tuple_heap_on_generated_map(self):
        from scipy import ndimage

        grid, _, _ = envgen.generate(envgen.EnvSpec(seed=5, n_rooms=4, resolution=0.1))
        free = grid.cells < 253
        components, _ = ndimage.label(free, structure=FOUR_CONNECTED)
        sizes = np.bincount(components.ravel())
        sizes[0] = 0
        domain = components == int(np.argmax(sizes))
        dist = ndimage.distance_transform_edt(free, sampling=grid.resolution)
        seeds = brute_seed_components(dist, domain, 0.6)
        assert len(seeds) > 1
        got = _flood(dist, domain, seed_raster(seeds, dist.shape))
        assert np.array_equal(got, brute_flood(dist, domain, seeds))
        assert np.array_equal(_seed_labels(dist, domain, 0.6), seed_raster(seeds, dist.shape))

    def test_flood_pockets_match_tuple_heap(self):
        # Row 1: a basin of depth 3 reached only over ridges of depth 1, so
        # the sweep passes it before any offer. Rows 3-4: a plateau of depth 2
        # entered only at (4, 5), its last cell in row-major order.
        dist = np.array(
            [
                [0, 0, 0, 0, 0, 0, 0, 0],
                [0, 5, 1, 3, 3, 1, 5, 0],
                [0, 1, 0, 0, 0, 0, 0, 0],
                [0, 2, 2, 2, 2, 2, 0, 0],
                [0, 2, 2, 2, 2, 2, 4, 0],
                [0, 0, 0, 0, 0, 0, 0, 0],
            ],
            dtype=float,
        )
        domain = dist > 0
        seeds = [np.array([[1, 6]]), np.array([[1, 1]]), np.array([[4, 6]])]
        got = _flood(dist, domain, seed_raster(seeds, dist.shape))
        want = brute_flood(dist, domain, seeds)
        assert np.array_equal(got, want)
        # the basin pops right after the first ridge in row-major order, before label 1 reaches it
        assert np.array_equal(want[1], [0, 2, 2, 2, 2, 1, 1, 0])
        assert (want[3:5, 1:6] == 3).all()

    def test_flood_matches_tuple_heap_on_build_deck_map(self):
        from scipy import ndimage

        grid, _, _ = envgen.generate(envgen.EnvSpec(seed=7, n_rooms=12, resolution=0.05))
        free = grid.cells < 253
        components, _ = ndimage.label(free, structure=FOUR_CONNECTED)
        sizes = np.bincount(components.ravel())
        sizes[0] = 0
        domain = components == int(np.argmax(sizes))
        dist = ndimage.distance_transform_edt(free, sampling=grid.resolution)
        seeds = _seed_labels(dist, domain, 0.6)
        want = brute_flood(dist, domain, [np.argwhere(seeds == k) for k in range(1, seeds.max() + 1)])
        assert np.array_equal(_flood(dist, domain, seeds), want)

    @pytest.mark.parametrize(
        "resolution, digest",
        [
            (0.05, "8d6ff0584d758c060fafb37dc8ad749baf5b11b39c9b26fe33fe386fe98d70a5"),
            (0.025, "3bf832954e0494278a46604b07cc7740a74a610c25e64641f0b263841f7d5ee2"),
        ],
        ids=["build-deck-seed-7", "0.025m"],
    )
    def test_flood_rasters_are_pinned(self, resolution, digest):
        # digests of the int32 rasters from the sequential (cursor) flood, at
        # 121k and 480k cells: exactness at real map size, past the oracle's grids
        from scipy import ndimage

        spec = envgen.EnvSpec(seed=7, n_rooms=12, resolution=resolution)
        free = envgen.generate(spec)[0].cells < 253
        components, _ = ndimage.label(free, structure=FOUR_CONNECTED)
        sizes = np.bincount(components.ravel())
        sizes[0] = 0
        domain = components == int(np.argmax(sizes))
        dist = ndimage.distance_transform_edt(free, sampling=resolution)
        labels = _flood(dist, domain, _seed_labels(dist, domain, 0.6))
        assert labels.dtype == np.int32
        assert hashlib.sha256(labels.tobytes()).hexdigest() == digest

    @settings(max_examples=400, deadline=None)
    @given(seed_inputs())
    def test_seed_labels_match_seed_lists(self, inputs):
        dist, domain, min_depth = inputs
        got = _seed_labels(dist, domain, min_depth)
        want = seed_raster(brute_seed_components(dist, domain, min_depth), dist.shape)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_seed_labels_narrow_fallback_is_first_deepest_cell(self):
        dist = np.array([[0.0, 1.0, 0.5], [1.0, 0.2, 1.0]])
        domain = np.ones(dist.shape, dtype=bool)
        got = _seed_labels(dist, domain, 5.0)
        assert np.array_equal(got, [[0, 1, 0], [0, 0, 0]])
        assert np.array_equal(got, seed_raster(brute_seed_components(dist, domain, 5.0), (2, 3)))

    def test_seed_labels_past_65535_seeds_do_not_wrap(self):
        dist = np.zeros((600, 600))
        dist[::2, ::2] = 5.0  # 90,000 isolated maxima
        got = _seed_labels(dist, np.ones(dist.shape, dtype=bool), 1.0)
        assert np.array_equal(got[::2, ::2].ravel(), np.arange(1, 90_001))
        assert not got[1::2].any() and not got[:, 1::2].any()

    def test_region_fold_past_65535_rooms_raises(self):
        labels = np.zeros((600, 600), dtype=np.int32)
        labels[::2, ::2] = np.arange(1, 90_001).reshape(300, 300)  # 90,000 one-cell regions
        with pytest.raises(ValidationError, match="65535"):
            _merge_regions(labels, 1.2, 0.05, 1)

    @settings(max_examples=600, deadline=None)
    @given(
        region_grids(),
        st.sampled_from([0.3, 0.85, 1.2, 1.7]),
        st.sampled_from([0.05, 0.1, 0.3]),
        st.integers(1, 30),
    )
    def test_region_fold_matches_raster_loops(self, labels, door_width_max, res, min_cells):
        got = _merge_regions(labels, door_width_max, res, min_cells)
        want = brute_compact_labels(
            brute_absorb(brute_merge(labels, door_width_max, res), min_cells)
        )
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    def test_region_fold_survivor_decides_absorb_tie(self):
        # 1 and 4 merge (the smaller label survives); 5 then ties between the
        # merged region and 3, both 12 cells, and goes to the smaller label, 1
        labels = np.array(
            [[1, 1, 4, 4, 0, 3, 3, 3, 3], [1, 1, 4, 4, 5, 3, 3, 3, 3], [1, 1, 4, 4, 0, 3, 3, 3, 3]],
            dtype=np.int32,
        )
        got = _merge_regions(labels, 2.5, 1.0, 2)
        assert np.array_equal(got, brute_compact_labels(brute_absorb(brute_merge(labels, 2.5, 1.0), 2)))
        assert np.array_equal(got[1], [1, 1, 1, 1, 1, 2, 2, 2, 2])

    def test_region_fold_threshold_is_count_times_resolution(self):
        # 24 * 0.05 > 1.2 and 17 * 0.1 > 1.7 in floats, yet such a boundary is
        # exactly as wide as the doorway and must not merge; one cell more must
        for door_width_max, res, cells in ((1.2, 0.05, 24), (1.7, 0.1, 17)):
            for extra, rooms in ((0, 2), (1, 1)):
                labels = np.repeat([[1, 1, 2, 2]], cells + extra, axis=0).astype(np.int32)
                want = brute_compact_labels(brute_merge(labels, door_width_max, res))
                assert int(want.max()) == rooms
                assert np.array_equal(_merge_regions(labels, door_width_max, res, 1), want)

    @settings(max_examples=200, deadline=None)
    @given(label_grids(6, np.int32))
    def test_compact_and_boundary_pairs_match_loops(self, labels):
        got = _compact_labels(labels)
        want = brute_compact_labels(labels)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert _boundary_pairs(labels) == brute_boundary_pairs(labels)

    @settings(max_examples=200, deadline=None)
    @given(label_grids(3, np.uint16))
    def test_centroid_matches_lexsort(self, labels):
        h, w = labels.shape
        raster = RoomLabelRaster(width=w, height=h, labels=labels)
        assert sorted(raster.centroid_cells) == raster.room_labels()
        for k in raster.room_labels():
            cell = raster.centroid_cells[k]
            assert (cell.row, cell.col) == brute_centroid_cell(labels, k)

    def test_centroid_of_absent_label_rejected(self):
        raster = RoomLabelRaster(width=2, height=1, labels=np.array([[1, 0]]))
        with pytest.raises(KeyError):
            raster.centroid_cells[2]


class TestRoomLabelRaster:
    @pytest.mark.parametrize("value", [65_536, -1])
    def test_labels_outside_uint16_rejected(self, value):
        labels = np.array([[1, 0], [value, 2]], dtype=np.int32)
        with pytest.raises(ValidationError, match="0..65535"):
            RoomLabelRaster(width=2, height=2, labels=labels)

    def test_wide_dtype_in_range_kept(self):
        labels = np.array([[65_535, 0]], dtype=np.int64)
        raster = RoomLabelRaster(width=2, height=1, labels=labels)
        assert raster.labels.dtype == np.uint16
        assert raster.labels.tolist() == [[65_535, 0]]

    @settings(max_examples=500, deadline=None)
    @given(room_rasters())
    @example(np.zeros((3, 4), dtype=np.uint16))
    @example(np.array([[0, 65_535, 65_535]], dtype=np.uint16))
    @example(np.array([[1], [0], [1], [1]], dtype=np.uint16))
    @example(np.array([[1, 0, 1, 1, 0, 1, 1, 1]], dtype=np.uint16))
    @example(DIAGONAL_ONLY.astype(np.uint16))
    @example(U_JOINED_BELOW.astype(np.uint16))
    @example(RING.astype(np.uint16))
    @example(COMB.astype(np.uint16))
    @example(np.where(RING > 0, 7, 1).astype(np.uint16))
    def test_boxes_and_components_match_ndimage(self, labels):
        h, w = labels.shape
        raster = RoomLabelRaster(width=w, height=h, labels=labels)
        boxes, components = ndimage_room_summary(raster.labels)
        assert raster.boxes == boxes
        assert raster.components == components

    @settings(max_examples=500, deadline=None)
    @given(repeated_row_rasters())
    @example(np.array([[1, 0, 1]], dtype=np.uint16))
    @example(np.repeat(U_JOINED_BELOW, [3, 1, 2], axis=0).astype(np.uint16))
    def test_repeated_rows_summary_matches_ndimage(self, labels):
        h, w = labels.shape
        raster = RoomLabelRaster(width=w, height=h, labels=labels)
        changed = [r for r in range(h) if r == 0 or (labels[r] != labels[r - 1]).any()]
        assert raster.kept_rows.tolist() == changed
        boxes, components = ndimage_room_summary(raster.labels)
        assert raster.boxes == boxes
        assert raster.components == components

    def test_cli_cold_map_summary_matches_ndimage(self):
        """The benchmark's cold-render map: 12 rooms at 0.025 m, seed 7."""
        _, gt, _ = envgen.generate(envgen.EnvSpec(seed=7, n_rooms=12, resolution=0.025))
        boxes, components = ndimage_room_summary(gt.raster.labels)
        assert len(gt.raster.kept_rows) < gt.raster.height // 10
        assert gt.raster.boxes == boxes
        assert gt.raster.components == components

    @pytest.mark.parametrize(
        "labels",
        [zigzag_comb(3, 3), zigzag_comb(9, 6), zigzag_comb(40, 3), THREE_HOOK_ROUNDS],
        ids=["zigzag-3x3", "zigzag-9x6", "zigzag-40x3", "three-rounds"],
    )
    def test_joins_over_several_hook_rounds(self, labels):
        h, w = labels.shape
        raster = RoomLabelRaster(width=w, height=h, labels=labels)
        assert raster.components == {1: 1}
        assert (raster.boxes, raster.components) == ndimage_room_summary(raster.labels)

    def test_scan_like_cli_cold_summary_matches_ndimage(self):
        """The cli-cold raster with two labelled cells zeroed per row, as in a noisy scan."""
        _, gt, _ = envgen.generate(envgen.EnvSpec(seed=7, n_rooms=12, resolution=0.025))
        labels = gt.raster.labels.copy()
        rng = np.random.default_rng(0)
        for row in labels:
            cells = np.flatnonzero(row)
            row[rng.choice(cells, size=min(2, cells.size), replace=False)] = 0
        raster = RoomLabelRaster(width=gt.raster.width, height=gt.raster.height, labels=labels)
        assert len(raster.kept_rows) > 0.9 * raster.height  # nearly every row is read (441 of 473)
        assert (raster.boxes, raster.components) == ndimage_room_summary(raster.labels)

    @pytest.mark.parametrize("shape", [(0, 0), (0, 3), (3, 0)])
    def test_raster_without_cells_has_no_rooms(self, shape):
        raster = RoomLabelRaster(width=shape[1], height=shape[0], labels=np.zeros(shape))
        assert raster.kept_rows.tolist() == list(range(min(shape[0], 1)))
        assert raster.boxes == []
        assert raster.components == {}

    @pytest.mark.parametrize(
        "labels, components",
        [
            (DIAGONAL_ONLY, {1: 2}),  # diagonal contact does not connect
            (U_JOINED_BELOW, {1: 1}),  # the arms meet only on the last row
            (RING, {2: 1}),
            (COMB, {3: 1}),
            (np.array([[1, 0, 1], [0, 0, 0], [0, 0, 4]]), {1: 2, 4: 1}),
        ],
    )
    def test_component_counts(self, labels, components):
        h, w = labels.shape
        assert RoomLabelRaster(width=w, height=h, labels=labels).components == components

    def test_boxes_skip_absent_labels(self):
        raster = RoomLabelRaster(width=4, height=2, labels=np.array([[0, 3, 3, 0], [0, 0, 3, 3]]))
        assert raster.boxes == [None, None, (slice(0, 2), slice(1, 4))]
        assert raster.room_labels() == [3]
        empty = RoomLabelRaster(width=2, height=1, labels=np.zeros((1, 2)))
        assert empty.boxes == [] and empty.components == {}


class TestAdjacency:
    def test_two_rooms_one_door_one_edge(self):
        spec = envgen.EnvSpec(
            seed=3, n_rooms=2, layout="chain", room_size_range=(4.0, 4.0),
            resolution=0.1, object_density=(0, 0),
        )
        grid, gt, _ = envgen.generate(spec)
        raster = segment_rooms(grid)
        edges = extract_adjacency(raster, grid)
        assert len(edges) == 1
        door = gt.doors[0]
        portal = edges[0].portal
        assert door.col0 - 1 <= portal.col <= door.col0 + door.width
        assert door.row0 - 1 <= portal.row <= door.row0 + door.height

    def test_sealed_rooms_have_no_edges(self):
        g = grid_from_ascii(
            """
            ##########
            #....#...#
            #....#...#
            #....#...#
            ##########
            """,
            resolution=1.0,
        )
        raster = segment_rooms(g, min_room_cells=1, door_width_max=1.2)
        # only the largest component is segmented, so at most one region exists
        edges = extract_adjacency(raster, g)
        assert edges == []

    def test_chain_suite_is_a_path_graph(self):
        spec = envgen.EnvSpec(
            seed=13, n_rooms=5, layout="chain", resolution=0.1, object_density=(0, 0)
        )
        grid, _, _ = envgen.generate(spec)
        raster = segment_rooms(grid)
        edges = extract_adjacency(raster, grid)
        assert len(raster.room_labels()) == 5
        assert len(edges) == 4
        degree = {}
        for e in edges:
            degree[e.room_a] = degree.get(e.room_a, 0) + 1
            degree[e.room_b] = degree.get(e.room_b, 0) + 1
        assert sorted(degree.values()) == [1, 1, 2, 2, 2]

    def test_edge_count_invariant_under_label_permutation(self):
        spec = envgen.EnvSpec(seed=4, n_rooms=3, resolution=0.1)
        grid, _, _ = envgen.generate(spec)
        raster = segment_rooms(grid)
        edges = extract_adjacency(raster, grid)

        labels = raster.labels
        perm = {0: 0}
        ks = raster.room_labels()
        for i, k in enumerate(ks):
            perm[k] = ks[(i + 1) % len(ks)]
        permuted = np.vectorize(perm.get)(labels).astype(np.uint16)
        raster2 = RoomLabelRaster(width=raster.width, height=raster.height, labels=permuted)
        edges2 = extract_adjacency(raster2, grid)
        assert len(edges2) == len(edges)
        pairs1 = {frozenset((perm[int(e.room_a)], perm[int(e.room_b)])) for e in edges}
        pairs2 = {frozenset((int(e.room_a), int(e.room_b))) for e in edges2}
        assert pairs1 == pairs2

    def test_weights_are_positive_and_symmetric_in_construction(self, small_env):
        grid, _, _ = small_env
        raster = segment_rooms(grid)
        for e in extract_adjacency(raster, grid):
            assert e.weight > 0

    def test_centroid_lies_inside_region(self, small_env):
        grid, _, _ = small_env
        raster = segment_rooms(grid)
        for k in raster.room_labels():
            cell = raster.centroid_cells[k]
            assert raster.labels[cell.row, cell.col] == k


# Mostly free cells, with some graded, inscribed, lethal and unknown ones.
_ROOM_CELL_VALUES = [0] * 12 + [9, 100, 252, 253, 254, 255]


@st.composite
def adjacency_cases(draw):
    """Up to 10x10 cells split among 2-4 rooms by nearest seed, with holes."""
    h, w = draw(st.integers(2, 10)), draw(st.integers(2, 10))
    n = h * w
    seeds = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=4, unique=True))
    rows, cols = np.divmod(np.arange(n), w)
    d2 = [(rows - r) ** 2 + (cols - c) ** 2 for r, c in (divmod(s, w) for s in seeds)]
    labels = (np.argmin(d2, axis=0) + 1).astype(np.uint16)
    holes = draw(st.lists(st.integers(0, n - 1), max_size=n // 8))
    labels[holes] = 0
    cells = np.array(
        draw(st.lists(st.sampled_from(_ROOM_CELL_VALUES), min_size=n, max_size=n)),
        dtype=np.uint8,
    )
    grid = CostmapGrid(
        width=w,
        height=h,
        resolution=draw(st.sampled_from([0.05, 0.1, 1.0])),
        origin_x=0,
        origin_y=0,
        cells=cells,
    )
    return RoomLabelRaster(width=w, height=h, labels=labels.reshape(h, w)), grid


def assert_matches_brute_adjacency(raster, grid):
    want = brute_adjacency(raster.labels, grid)
    if any(weight is None for *_, weight in want):
        with pytest.raises(MapConsistencyError):
            extract_adjacency(raster, grid)
        return
    got = [
        (int(e.room_a), int(e.room_b), (e.portal.col, e.portal.row), e.weight)
        for e in extract_adjacency(raster, grid)
    ]
    assert got == want


class TestAdjacencyAgainstLoopOracle:
    """One search per room against per-edge searches over room plus portal."""

    @settings(max_examples=300, deadline=None)
    @given(adjacency_cases())
    def test_matches_per_edge_searches(self, case):
        assert_matches_brute_adjacency(*case)

    def test_matches_per_edge_searches_on_generated_map(self):
        grid, _, _ = envgen.generate(envgen.EnvSpec(seed=5, n_rooms=3, resolution=0.2))
        raster = segment_rooms(grid)
        assert len(raster.room_labels()) == 4
        assert_matches_brute_adjacency(raster, grid)

    def test_portal_cut_off_from_centroid_raises(self):
        # Room 1 spans columns 0-5 and is split by the wall in column 4; its
        # centroid lies left of the wall, its portal right of it.
        grid = grid_from_ascii(
            """
            ....#...
            ....#...
            ....#...
            """
        )
        labels = np.array([[1, 1, 1, 1, 1, 1, 2, 2]] * 3, dtype=np.uint16)
        raster = RoomLabelRaster(width=8, height=3, labels=labels)
        assert raster.centroid_cells[1] == (2, 1)
        assert [(la, lb, portal) for la, lb, portal, _ in brute_adjacency(labels, grid)] == [
            (1, 2, (5, 1))
        ]
        with pytest.raises(MapConsistencyError):
            extract_adjacency(raster, grid)

    def test_closed_centroid_raises(self):
        # room 1's centroid cell (1, 1) is lethal: it reaches nothing, not
        # even the portal (2, 1) next to it
        grid = grid_from_ascii(
            """
            ......
            .#....
            ......
            """
        )
        labels = np.array([[1, 1, 1, 2, 2, 2]] * 3, dtype=np.uint16)
        raster = RoomLabelRaster(width=6, height=3, labels=labels)
        assert raster.centroid_cells[1] == (1, 1)
        assert brute_adjacency(labels, grid) == [(1, 2, (2, 1), None)]
        with pytest.raises(MapConsistencyError, match="room label 1: centroid cannot reach"):
            extract_adjacency(raster, grid)

    def test_one_search_per_room(self, small_env, monkeypatch):
        grid, _, _ = small_env
        raster = segment_rooms(grid)
        sources = []
        search = csgraph.dijkstra

        def spy(graph, *args, **kwargs):
            sources.append(kwargs["indices"])
            return search(graph, *args, **kwargs)

        monkeypatch.setattr(csgraph, "dijkstra", spy)
        edges = extract_adjacency(raster, grid)
        rooms = raster.room_labels()
        assert len(rooms) > 2
        assert {int(k) for e in edges for k in (e.room_a, e.room_b)} == set(rooms)
        assert len(sources) == len(rooms)


def paint_blobs(grid, rng, count):
    """grid with count discs of graded (60, 150, 252), inscribed (253) and
    lethal (254) cost painted over its traversable cells."""
    cells = grid.cells.copy()
    rows, cols = np.ogrid[: grid.height, : grid.width]
    for _ in range(count):
        r, c, radius = rng.integers(grid.height), rng.integers(grid.width), rng.integers(2, 12)
        disc = (rows - r) ** 2 + (cols - c) ** 2 <= radius * radius
        cells[disc & (cells < 254)] = rng.choice([60, 150, 252, 253, 254])
    return CostmapGrid(
        width=grid.width, height=grid.height, resolution=grid.resolution,
        origin_x=grid.origin_x, origin_y=grid.origin_y, cells=cells,
    )


def adjacency_or_error(adjacency, raster, grid):
    try:
        return adjacency(raster, grid)
    except MapConsistencyError as exc:
        return str(exc)


@pytest.fixture
def window_sizes(monkeypatch):
    """The cell count of each window extract_adjacency searches, in order."""
    sizes = []
    search = segmentation.window_search

    def spy(rings, resolution, sources, shears=None):
        # a ring holds its window in one more row and column each side
        sizes.extend((ring.shape[0] - 2) * (ring.shape[1] - 2) for ring in rings)
        return search(rings, resolution, sources, shears)

    monkeypatch.setattr(segmentation, "window_search", spy)
    return sizes


class TestAdjacencyEllipses:
    """Legs searched inside their octile ellipses against whole-room searches."""

    def test_matches_whole_room_search_on_painted_maps(self, monkeypatch, window_sizes):
        slacks = []  # each leg's span beyond its octile distance, in cells
        leg_spans = segmentation._leg_spans

        def spy(halves, g, labels, label, a, portals):
            spans = leg_spans(halves, g, labels, label, a, portals)
            for b, span in zip(portals, spans):
                drow, dcol = sorted((abs(a.row - b.row), abs(a.col - b.col)))
                slacks.append(span - dcol - (math.sqrt(2) - 1) * drow)
            return spans

        monkeypatch.setattr(segmentation, "_leg_spans", spy)
        errors = 0
        for seed in range(15):
            rng = np.random.default_rng(seed)
            spec = envgen.EnvSpec(seed=seed, n_rooms=int(rng.integers(3, 7)), resolution=0.1)
            grid = envgen.generate(spec)[0]
            raster = segment_rooms(grid)
            grid = paint_blobs(grid, rng, int(rng.integers(1, 12)))
            window_sizes.clear()
            got = adjacency_or_error(extract_adjacency, raster, grid)
            # the same edges and weights bit for bit, or the same room and portal named
            assert got == adjacency_or_error(whole_room_adjacency, raster, grid), seed
            errors += isinstance(got, str)
            # at most one search per room, none wider than the whole-room search's
            boxes = [box for box in raster.boxes if box is not None]
            padded = sum((r.stop - r.start + 4) * (c.stop - c.start + 4) for r, c in boxes)
            assert len(window_sizes) <= len(boxes) and sum(window_sizes) <= padded
        assert 0 < errors < 15
        # legs bound by bent paths over free cells and over graded cost, and legs
        # no bent path bounds, whose rooms are searched whole
        assert min(slacks) == pytest.approx(2.0)
        assert any(2.5 < slack < math.inf for slack in slacks)
        assert math.inf in slacks

    def test_first_failing_leg_in_edge_order_is_named(self):
        # Room 1 is a 40x40 block with a 2-row arm out to column 99, so its
        # centroid lies in the block. Walls cut both its portals off: the one
        # to room 2 just below the block, and the one to room 3 at the arm's
        # end. Both legs fail in the room's one search; the error names room
        # 2's portal, the first in edge order.
        labels = np.zeros((43, 103), dtype=np.uint16)
        labels[:40, :40] = 1
        labels[19:21, 40:100] = 1
        labels[40:43, 20:26] = 2
        labels[19:21, 100:103] = 3
        cells = np.zeros(labels.shape, dtype=np.uint8)
        cells[38, 18:28] = cells[39, [18, 27]] = 254  # a pocket under room 2
        cells[19:21, 97] = 254  # a pocket at the arm's end
        grid = CostmapGrid(
            width=103, height=43, resolution=1.0, origin_x=0, origin_y=0, cells=cells
        )
        raster = RoomLabelRaster(width=103, height=43, labels=labels)
        want = brute_adjacency(labels, grid)
        assert [(la, lb, weight) for la, lb, _, weight in want] == [(1, 2, None), (1, 3, None)]
        message = f"room label 1: centroid cannot reach {GridIndex(*want[0][2])}"
        assert adjacency_or_error(whole_room_adjacency, raster, grid) == message
        assert adjacency_or_error(extract_adjacency, raster, grid) == message

    def test_lethal_portal_before_unreachable_portal_is_named(self):
        # Room 1 (rows 0-5, cols 0-7) meets room 2 below it and room 3 to its
        # right. Its portal to room 2, the first edge, is lethal; its portal
        # to room 3 is free, but a wall down column 6 cuts it off. The error
        # names the lethal portal, the first failing leg in edge order.
        labels = np.zeros((10, 12), dtype=np.uint16)
        labels[:6, :8] = 1
        labels[6:, :8] = 2
        labels[:6, 8:] = 3
        cells = np.zeros(labels.shape, dtype=np.uint8)
        cells[5, 3] = 254  # room 2's portal, on room 1's side
        cells[:6, 6] = 254
        grid = CostmapGrid(width=12, height=10, resolution=1.0, origin_x=0, origin_y=0, cells=cells)
        raster = RoomLabelRaster(width=12, height=10, labels=labels)
        want = brute_adjacency(labels, grid)
        # (col, row) portals: row 5 col 3 is lethal, row 2 col 7 is walled off
        assert want == [(1, 2, (3, 5), None), (1, 3, (7, 2), None)]
        assert raster.centroid_cells[1] == (3, 2)
        message = f"room label 1: centroid cannot reach {GridIndex(3, 5)}"
        assert adjacency_or_error(whole_room_adjacency, raster, grid) == message
        assert adjacency_or_error(extract_adjacency, raster, grid) == message

    def test_leg_no_bent_path_bounds_searches_box_ring_and_pad(self, window_sizes):
        # Room 1 (rows 2-11, cols 2-9) has one leg, from its centroid (row 6,
        # col 5) to the portal (row 3, col 9) it shares with room 2. A wall
        # down column 7, open only at row 2, cuts both bent paths, so the
        # leg's span is inf and its ellipse must cover the room's box and the
        # ring holding the portal; the search pads that with one more closed
        # ring.
        labels = np.zeros((14, 20), dtype=np.uint16)
        labels[2:12, 2:10] = 1
        labels[2:6, 10:18] = 2
        cells = np.zeros(labels.shape, dtype=np.uint8)
        cells[3:12, 7] = 254
        grid = CostmapGrid(width=20, height=14, resolution=1.0, origin_x=0, origin_y=0, cells=cells)
        raster = RoomLabelRaster(width=20, height=14, labels=labels)
        centroid, portal = raster.centroid_cells[1], GridIndex(9, 3)
        assert centroid == (5, 6)
        spans = segmentation._leg_spans(half_table(), grid, labels, 1, centroid, [portal])
        assert spans.tolist() == [math.inf]
        edges = extract_adjacency(raster, grid)
        assert [(e.room_a, e.room_b, e.portal) for e in edges] == [("1", "2", portal)]
        assert edges == whole_room_adjacency(raster, grid)
        # room 1's box is 10 x 8 cells; the ring and the pad add two per side
        assert window_sizes[0] == (10 + 4) * (8 + 4)

    def test_windows_are_smaller_than_room_boxes(self, window_sizes):
        grid, _, _ = envgen.generate(envgen.EnvSpec(seed=7, n_rooms=12, resolution=0.05))
        raster = segment_rooms(grid)
        extract_adjacency(raster, grid)
        boxes = [box for box in raster.boxes if box is not None]
        # the whole-room search's window: each room's box plus two cells per side
        padded = sum((r.stop - r.start + 4) * (c.stop - c.start + 4) for r, c in boxes)
        assert len(window_sizes) == len(boxes) == 13
        assert sum(window_sizes) < 0.5 * padded


OFFICE_RULES = [
    CategoryRule("office", frozenset({"desk"}), {"desk": 3.0, "chair": 1.0, "bookcase": 1.0}),
    CategoryRule("kitchen", frozenset({"sink"}), {"sink": 2.0, "fridge": 2.0}),
]


class TestCategorize:
    def test_office_rule_matches(self):
        assert categorize_room({"desk", "chair", "bookcase"}, OFFICE_RULES) == "office"

    def test_empty_attributes_uncategorized(self):
        assert categorize_room(set(), OFFICE_RULES) == "uncategorized"

    def test_missing_required_class_disqualifies(self):
        assert categorize_room({"chair", "bookcase"}, OFFICE_RULES) == "uncategorized"

    def test_higher_score_wins(self):
        rules = [
            CategoryRule("a", frozenset(), {"x": 1.0}),
            CategoryRule("b", frozenset(), {"x": 1.0, "y": 5.0}),
        ]
        assert categorize_room({"x", "y"}, rules) == "b"

    def test_tie_breaks_by_rule_order(self):
        rules = [
            CategoryRule("first", frozenset(), {"x": 2.0}),
            CategoryRule("second", frozenset(), {"x": 2.0}),
        ]
        assert categorize_room({"x"}, rules) == "first"

    @settings(max_examples=50, deadline=None)
    @given(st.permutations(["desk", "chair", "bookcase", "mug"]))
    def test_invariant_under_attribute_order(self, attrs):
        assert categorize_room(attrs, OFFICE_RULES) == "office"

    def test_default_rules_recover_generator_categories(self, small_env, default_rules):
        _, gt, _ = small_env
        by_room = {}
        for o in gt.objects:
            by_room.setdefault(o.room_id, set()).add(o.class_label)
        for room in gt.rooms:
            got = categorize_room(by_room.get(room.id, set()), default_rules)
            assert got == room.category


class TestRulesFile:
    def test_parse_good_file(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text(
            "office: required=desk; weights=desk:3,chair:1\n"
            "# comment line\n"
            "kitchen: required=sink,fridge; weights=sink:2\n",
            encoding="utf-8",
        )
        rules = parse_rules(path)
        assert [r.category for r in rules] == ["office", "kitchen"]
        assert rules[0].required == frozenset({"desk"})
        assert rules[1].required == frozenset({"sink", "fridge"})
        assert rules[0].score_weights == {"desk": 3.0, "chair": 1.0}

    def test_duplicate_category_rejected(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("office: required=desk\noffice: required=chair\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            parse_rules(path)

    def test_duplicate_weight_class_rejected(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("office: weights=desk:1,desk:2\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            parse_rules(path)

    def test_non_utf8_rules_rejected(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_bytes(b"\xff\xfeoffice: required=desk\n")
        with pytest.raises(ConfigError):
            parse_rules(path)

    def test_empty_rule_rejected(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("office: required=\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            parse_rules(path)

    def test_unknown_clause_rejected(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("office: needs=desk\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            parse_rules(path)

    def test_nonpositive_weight_rejected(self, tmp_path):
        path = tmp_path / "rules.txt"
        path.write_text("office: weights=desk:0\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            parse_rules(path)

    @pytest.mark.parametrize("weight", ["1e999", "inf", "-inf", "nan"])
    def test_non_finite_weight_rejected(self, tmp_path, weight):
        path = tmp_path / "rules.txt"
        path.write_text(f"office: weights=desk:{weight}\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            parse_rules(path)
