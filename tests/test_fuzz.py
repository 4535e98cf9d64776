"""Fuzzers for every input parser: whatever the input, only a SemnavError comes out."""

import json
import math

import pytest
from hypothesis import example, given, settings, strategies as st

from semnav.builder import load_objects
from semnav.discovery import DiscoveryResponse, HttpOracle, load_cooccurrence_table
from semnav.envgen import _SPEC_KEYS, EnvSpec, load_env_spec
from semnav.errors import OracleParseError, SemnavError
from semnav.graph import ObjectNode, RoomEdge, RoomNode, SemanticGraph
from semnav.mapio import graph_from_json, graph_to_json
from semnav.metric import GridIndex, MetricPoint, read_pgm
from semnav.segmentation import parse_rules

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
    g = SemanticGraph()
    g.add_room(RoomNode("office_1", "office", MetricPoint(1.0, 1.0), 4))
    g.add_room(RoomNode("corridor_1", "corridor", MetricPoint(3.0, 1.0), 6))
    g.add_object(ObjectNode("desk_1", "desk", MetricPoint(1.5, 1.0), "office_1"))
    g.add_room_edge(RoomEdge("corridor_1", "office_1", 2.0, GridIndex(2, 1)))
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
