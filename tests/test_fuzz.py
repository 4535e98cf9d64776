"""Fuzzers for every input parser: whatever the input, only a SemnavError comes out."""

import copy
import json
import math
import shutil
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from semnav.builder import load_objects
from semnav.discovery import DiscoveryResponse, HttpOracle, load_cooccurrence_table
from semnav.envgen import _SPEC_KEYS, EnvSpec, generate, load_env_spec
from semnav.errors import MapConsistencyError, MapFormatError, OracleParseError, SemnavError
from semnav.graph import ObjectNode, RoomEdge, RoomNode, SemanticGraph
from semnav.mapio import assemble_map, graph_from_json, graph_to_json, load_map, save_map
from semnav.metric import GridIndex, MetricPoint, read_pgm, write_pgm
from semnav.segmentation import RoomLabelRaster, parse_rules

from oracles import ndimage_room_summary

FUZZ = settings(max_examples=300, deadline=None)

DEEP = b"[" * 100_000  # nests past the interpreter's recursion limit
LONG_INT = b"1" * 5_000  # past Python's int-to-string digit limit

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from([10**400, -(10**400), 1e308]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)


def text_over(alphabet: str, max_size: int = 200):
    """UTF-8 bytes of text drawn mostly from a parser's own syntax characters."""
    return st.text(alphabet=alphabet, max_size=max_size).map(lambda t: t.encode("utf-8"))


any_bytes = st.binary(max_size=300)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


def parses_or_refuses(parse, path, data: bytes):
    """Run parse on a file holding data; anything but a SemnavError fails the test."""
    path.write_bytes(data)
    try:
        return parse(path)
    except SemnavError:
        return None


@st.composite
def pgm_files(draw):
    """A PGM-like header of drawn fields and separators, then a short raster."""
    magic = draw(st.sampled_from([b"P5", b"P2", b"P5#"]))
    w, h, maxval = (draw(st.integers(-2, 70_000)) for _ in range(3))
    sep = draw(st.sampled_from([b"\n", b" ", b"\n# c\n", b""]))
    return b"%s%s%d %d\n%d%s" % (magic, sep, w, h, maxval, sep) + draw(st.binary(max_size=64))


@FUZZ
@given(data=any_bytes | pgm_files())
def test_read_pgm(scratch, data):
    parses_or_refuses(read_pgm, scratch, data)


def _graph_doc_with_one_value_replaced():
    """graph_to_json of a small valid graph with one value swapped for arbitrary JSON."""
    g = SemanticGraph(
        [
            RoomNode("office_1", "office", MetricPoint(1.0, 1.0), 4, ["desk"]),
            RoomNode("corridor_1", "corridor", MetricPoint(3.0, 1.0), 6),
        ],
        [ObjectNode("desk_1", "desk", MetricPoint(1.5, 1.0), "office_1")],
        [RoomEdge("corridor_1", "office_1", 2.0, GridIndex(2, 1))],
    )
    text = graph_to_json(g)

    @st.composite
    def mutated(draw):
        doc = json.loads(text)
        node = doc
        while True:
            key = draw(st.sampled_from(list(node) if isinstance(node, dict) else range(len(node))))
            if isinstance(node[key], (dict, list)) and node[key] and draw(st.booleans()):
                node = node[key]
                continue
            node[key] = draw(json_values)
            return json.dumps(doc)

    return mutated()


@FUZZ
@given(
    text=json_values.map(json.dumps)
    | _graph_doc_with_one_value_replaced()
    | st.text(max_size=200)
)
@example(text=DEEP.decode())
@example(text=LONG_INT.decode())
def test_graph_from_json(text):
    try:
        graph_from_json(text)
    except SemnavError:
        pass


object_entries = st.lists(
    st.fixed_dictionaries(
        {"class": st.text(max_size=8) | json_values, "position": st.lists(json_values, max_size=3)},
        optional={"id": st.text(max_size=8) | json_values},
    ),
    max_size=4,
)


@FUZZ
@given(data=any_bytes | (json_values | object_entries).map(lambda v: json.dumps(v).encode()))
@example(data=DEEP)
@example(data=LONG_INT)
def test_load_objects(scratch, data):
    parses_or_refuses(load_objects, scratch, data)


@FUZZ
@given(data=any_bytes | text_over("abc_ :;=,.#\n0123456789-+einfINF"))
def test_parse_rules(scratch, data):
    parses_or_refuses(parse_rules, scratch, data)


@FUZZ
@given(data=any_bytes | text_over("ab_ ,.#\n0123456789-+einfaINF"))
def test_load_cooccurrence_table(scratch, data):
    table = parses_or_refuses(load_cooccurrence_table, scratch, data)
    if table is not None:
        assert all(math.isfinite(s) and s >= 0 for s in table.entries.values())


oracle_replies = st.fixed_dictionaries(
    {
        "ranking": json_values
        | st.lists(
            st.fixed_dictionaries(
                {
                    "id": st.text(max_size=8) | json_values,
                    "confidence": st.floats() | st.floats(0, 1).map(str) | json_values,
                }
            ),
            max_size=4,
        )
    },
    optional={"rationale": st.text(max_size=8) | json_values},
)


@FUZZ
@given(data=any_bytes | (json_values | oracle_replies).map(lambda v: json.dumps(v).encode()))
@example(data=DEEP)
@example(data=LONG_INT)
@example(data=b'{"ranking": [{"id": "a", "confidence": NaN}]}')
def test_oracle_reply(data):
    try:
        resp = HttpOracle._parse(data)
    except OracleParseError:
        return
    assert isinstance(resp, DiscoveryResponse)
    assert all(0.0 <= c <= 1.0 for _, c in resp.ranked_rooms)


spec_lines = st.lists(
    st.tuples(
        st.sampled_from(sorted(_SPEC_KEYS) + ["unknown"]),
        st.text(alphabet="0123456789.,:-+einfa ", max_size=12),
    ),
    max_size=6,
).map(lambda kv: "".join(f"{k}: {v}\n" for k, v in kv).encode())


@FUZZ
@given(data=any_bytes | spec_lines)
def test_load_env_spec(scratch, data):
    spec = parses_or_refuses(load_env_spec, scratch, data)
    if spec is not None:
        assert all(math.isfinite(v) for v in _spec_floats(spec.__dict__))


def _spec_floats(fields: dict) -> list[float]:
    names = ("corridor_width", "resolution", "door_width", "wall_thickness")
    return [fields.get(k, 1.0) for k in names] + list(fields.get("room_size_range", ()))


spec_kwargs = st.fixed_dictionaries(
    {},
    optional={
        "seed": st.integers(),
        "n_rooms": st.integers(),
        "room_size_range": st.tuples(st.floats(), st.floats()),
        "corridor_width": st.floats(),
        "object_density": st.tuples(st.integers(), st.integers()),
        "vocabulary": st.lists(st.tuples(st.text(max_size=6), st.text(max_size=6)), max_size=3)
        .map(tuple),
        "resolution": st.floats(),
        "layout": st.sampled_from(["spine", "chain"]) | st.text(max_size=6),
        "door_width": st.floats(),
        "wall_thickness": st.floats(),
    },
)


@FUZZ
@given(kwargs=spec_kwargs)
def test_env_spec(kwargs):
    non_finite = not all(math.isfinite(v) for v in _spec_floats(kwargs))
    try:
        EnvSpec(**kwargs)
    except SemnavError:
        return
    assert not non_finite, "a non-finite spec value was accepted"


@pytest.fixture(scope="module")
def saved_map(tmp_path_factory):
    """A saved generated map to edit, each of its five files as read, and its key cells.

    The key cells are the portals, room centroids and object positions: a
    cost painted there can make a planning landmark untraversable.
    """
    grid, gt, graph = generate(EnvSpec(seed=3, n_rooms=4, resolution=0.1))
    root = tmp_path_factory.mktemp("map")
    save_map(assemble_map(grid, gt.raster, graph, gt.label_to_room), root / "saved")
    shutil.copytree(root / "saved", root / "edited")
    saved = root / "saved"
    layers = {
        "costs": read_pgm(saved / "costmap.pgm")[0],
        "geometry": [
            line.split(": ", 1)
            for line in (saved / "costmap.meta").read_text(encoding="utf-8").splitlines()
        ],
        "labels": read_pgm(saved / "rooms.pgm")[0],
        "graph": json.loads((saved / "graph.json").read_text(encoding="utf-8")),
        "meta": json.loads((saved / "meta.json").read_text(encoding="utf-8")),
    }
    points = [r.centroid for r in graph.rooms.values()]
    points += [o.position for o in graph.objects.values()]
    cells = [e.portal for e in graph.room_edges] + [grid.world_to_grid(p) for p in points]
    return root / "edited", layers, sorted({(c.row, c.col) for c in cells})


def _edit_layers(data, labels: np.ndarray, names: dict) -> np.ndarray:
    """Apply one drawn edit to the room raster and meta.json's label map together."""
    edit = data.draw(st.sampled_from(["split", "paint", "merge", "map-absent", "unmap", "reshape"]))
    present = sorted(set(np.unique(labels).tolist()) - {0})
    if edit == "paint" and present:  # a block of one room's label, anywhere
        top, left = (data.draw(st.integers(0, n - 1)) for n in labels.shape)
        h, w = (data.draw(st.integers(1, 12)) for _ in range(2))
        labels[top : top + h, left : left + w] = data.draw(st.sampled_from(present))
    elif edit == "split" and present:  # zero a band across one room
        label = data.draw(st.sampled_from(present))
        axis = data.draw(st.integers(0, 1))
        cells = np.nonzero(labels == label)[axis]
        at = data.draw(st.integers(int(cells.min()), int(cells.max())))
        band = [slice(None), slice(None)]
        band[axis] = slice(at, at + data.draw(st.integers(1, 3)))
        labels[tuple(band)][labels[tuple(band)] == label] = 0
    elif edit == "merge" and len(present) > 1:  # two rooms, one label
        a, b = data.draw(st.lists(st.sampled_from(present), min_size=2, max_size=2, unique=True))
        labels[labels == b] = a
        if data.draw(st.booleans()):
            names.pop(str(b), None)
    elif edit == "map-absent":
        label = data.draw(st.sampled_from([0, -1, max(present, default=0) + 1, 65_535]))
        room = data.draw(st.sampled_from([*names.values(), "ghost"]))
        names[str(label)] = room
    elif edit == "unmap" and names:
        names.pop(data.draw(st.sampled_from(sorted(names))))
    elif edit == "reshape":
        labels = _reshape(data, labels)
    return labels


def _reshape(data, grid: np.ndarray, far: bool = False) -> np.ndarray:
    """Crop or pad a raster with zeros, rows and columns; far: one axis by 4-40 cells."""
    steps = [st.integers(-3, 3)] * 2
    if far:
        steps[data.draw(st.integers(0, 1))] = st.integers(4, 40) | st.integers(-40, -4)
    h, w = (max(1, n + data.draw(step)) for n, step in zip(grid.shape, steps))
    grown = np.zeros((h, w), dtype=grid.dtype)
    grown[: grid.shape[0], : grid.shape[1]] = grid[:h, :w]
    return grown


GEOMETRY_VALUES = ["nan", "inf", "-inf", "0", "-0.0", "-0.1", "1e-300", "1e300", "0.05", "x", ""]
BAD_NUMBERS = [-1.0, -0.0, 0.0, math.nan, math.inf, -math.inf, 1e308, 2.5, "x", None]
# another JSON type, blank, or not as normalize_label leaves it
LABELS = st.sampled_from(["", " ", "Office", " desk", "desk ", "dining table", "DESK", "a\n"])
LABELS = LABELS | st.text(max_size=6) | json_values


def _edit_costmap(data, layers: dict, key_cells) -> None:
    """Apply one drawn edit to costmap.pgm or costmap.meta."""
    edit = data.draw(st.sampled_from(["paint", "reshape", "far-reshape", "geometry"]))
    costs, geometry = layers["costs"], layers["geometry"]
    if edit == "paint":  # a block of one cost over a portal, centroid, object or any cell
        anywhere = st.tuples(*(st.integers(0, n - 1) for n in costs.shape))
        cell = data.draw(st.sampled_from(key_cells) | anywhere)
        size = data.draw(st.integers(1, 3))
        cost = data.draw(st.sampled_from([0, 128, 252, 253, 254, 255]))
        costs[cell[0] : cell[0] + size, cell[1] : cell[1] + size] = cost
    elif edit in ("reshape", "far-reshape"):
        layers["costs"] = _reshape(data, costs, far=edit == "far-reshape")
    elif geometry:  # a value changed, or a key dropped, repeated or not allowed
        line = data.draw(st.sampled_from(geometry))
        change = data.draw(st.sampled_from(["set", "drop", "repeat", "unknown"]))
        if change == "set":
            line[1] = data.draw(st.sampled_from(GEOMETRY_VALUES))
        elif change == "drop":
            geometry.remove(line)
        else:
            geometry.append([line[0] if change == "repeat" else "free_thresh", line[1]])


def _edit_graph(data, doc: dict, shape) -> None:
    """Apply one drawn edit to graph.json's rooms, objects or edges."""
    edit = data.draw(
        st.sampled_from(
            ["portal", "weight", "drop", "repeat-edge", "repeat-id", "rename", "move", "label"]
        )
    )
    rooms, objects, edges = doc["rooms"], doc["objects"], doc["edges"]
    if edit == "portal" and edges:  # moved, off-grid or not an index
        e = data.draw(st.sampled_from(edges))
        near = [st.integers(-2, n + 2) for n in reversed(shape)]
        bad = st.lists(st.sampled_from(BAD_NUMBERS), min_size=2, max_size=2)
        e["portal"] = data.draw(st.tuples(*near).map(list) | bad)
    elif edit == "weight" and edges:
        data.draw(st.sampled_from(edges))["weight"] = data.draw(st.sampled_from(BAD_NUMBERS))
    elif edit == "drop" and edges:
        edges.remove(data.draw(st.sampled_from(edges)))
    elif edit == "repeat-edge" and edges:  # as stored, or with its ends swapped
        e = dict(data.draw(st.sampled_from(edges)))
        if data.draw(st.booleans()):
            e["a"], e["b"] = e["b"], e["a"]
        edges.append(e)
    elif edit == "repeat-id":  # a room or object listed twice
        nodes = data.draw(st.sampled_from([rooms, objects]))
        if nodes:
            nodes.append(dict(data.draw(st.sampled_from(nodes))))
    elif edit == "rename":  # an id, an object's room or an edge end now names another node
        node = data.draw(st.sampled_from([*rooms, *objects, *edges]))
        field = data.draw(st.sampled_from([k for k in ("id", "room", "a", "b") if k in node]))
        ids = [n["id"] for n in rooms + objects]
        node[field] = data.draw(st.sampled_from([*ids, "ghost", ""]))
    elif edit == "move":  # a centroid or position anywhere, or not finite
        node = data.draw(st.sampled_from([*rooms, *objects]))
        field = "centroid" if "centroid" in node else "position"
        coord = st.floats(-1.0, 13.0) | st.sampled_from([math.nan, math.inf])
        node[field] = [data.draw(coord), data.draw(coord)]
    elif edit == "label":  # a room's category or attributes
        room = data.draw(st.sampled_from(rooms))
        if data.draw(st.booleans()):
            room["category"] = data.draw(LABELS)
        else:
            room["attributes"] = data.draw(st.lists(LABELS, max_size=3) | json_values)


def _edit_meta(data, meta: dict) -> None:
    """Apply one drawn edit to meta.json: a label key, a label value or a top-level field."""
    names = meta["labels"]
    edit = data.draw(st.sampled_from(["key", "twin-key", "value", "field"]))
    if edit in ("key", "twin-key") and names:  # a sign, blank, leading zero or non-digit
        key = data.draw(st.sampled_from(sorted(names)))
        spelled = data.draw(
            st.sampled_from(["+", "-", " ", "0", "00", "\t", "x", "\u0661"]).map(lambda p: p + key)
            | st.sampled_from([" ", "\n", ".0", "_0", "e0", "x"]).map(lambda s: key + s)
            | st.text(alphabet="0123456789+-_ .", max_size=4)
        )
        # renamed, or added beside the key it respells
        names[spelled] = names[key] if edit == "twin-key" else names.pop(key)
    elif edit == "value" and names:
        names[data.draw(st.sampled_from(sorted(names)))] = data.draw(json_values)
    else:
        meta[data.draw(st.sampled_from(["name", "created", "version", "labels"]))] = data.draw(
            json_values
        )


def _write_layers(root, layers: dict) -> None:
    write_pgm(root / "costmap.pgm", layers["costs"])
    (root / "costmap.meta").write_text(
        "".join(f"{k}: {v}\n" for k, v in layers["geometry"]), encoding="utf-8"
    )
    write_pgm(root / "rooms.pgm", layers["labels"])
    (root / "graph.json").write_text(json.dumps(layers["graph"]), encoding="utf-8")
    (root / "meta.json").write_text(json.dumps(layers["meta"]), encoding="utf-8")


def _load_outcome(root):
    """None for a loaded map, else the refusal's type and its violations."""
    try:
        load_map(root)
    except (MapFormatError, MapConsistencyError) as exc:
        return type(exc), getattr(exc, "violations", None)
    return None


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_load_map_with_all_layers_varied_together(saved_map, data):
    root, saved, key_cells = saved_map
    layers = copy.deepcopy(saved)
    for _ in range(data.draw(st.integers(1, 3))):
        layer = data.draw(st.sampled_from(["rooms", "costmap", "graph", "meta"]))
        if layer == "rooms" and isinstance(layers["meta"]["labels"], dict):
            layers["labels"] = _edit_layers(data, layers["labels"], layers["meta"]["labels"])
        elif layer == "costmap":
            _edit_costmap(data, layers, key_cells)
        elif layer == "graph":
            _edit_graph(data, layers["graph"], saved["costs"].shape)
        elif isinstance(layers["meta"]["labels"], dict):
            _edit_meta(data, layers["meta"])
    _write_layers(root, layers)

    got = _load_outcome(root)  # any other exception fails the test
    if got is None:  # a map that loads writes back the meta.json it was read from
        save_map(load_map(root), root.with_name("resaved"))
        resaved = (root.with_name("resaved") / "meta.json").read_text(encoding="utf-8")
        assert json.loads(resaved) == layers["meta"]
    oracle = property(lambda raster: ndimage_room_summary(raster.labels))
    with patch.object(RoomLabelRaster, "_room_summary", oracle):
        assert got == _load_outcome(root)
