"""Graph corruption operators for invariant fuzzing.

Every operator guarantees at least one structural invariant breaks, so a
validator that misses any of them has a hole.
"""

from __future__ import annotations

from semnav.graph import GridIndex, RoomEdge, RoomNode, SemanticGraph


def _dangle_edge(g, rng):
    edge = g.room_edges[rng.randrange(len(g.room_edges))]
    edge.room_b = "ghost_room"


def _negative_weight(g, rng):
    edge = g.room_edges[rng.randrange(len(g.room_edges))]
    edge.weight = -abs(edge.weight) - 0.5


def _self_loop(g, rng):
    edge = g.room_edges[rng.randrange(len(g.room_edges))]
    edge.room_b = edge.room_a


def _duplicate_room_id(g, rng):
    rid = rng.choice(sorted(g.rooms))
    twin = RoomNode(
        id=rid, category="twin", centroid=g.rooms[rid].centroid, cell_count=1
    )
    # alias a second entry under a ghost key, past the constructor's _by_id check
    g.rooms[rid + "__twin"] = twin


def _corrupt_attributes(g, rng):
    rid = rng.choice(sorted(g.rooms))
    g.rooms[rid].attributes = list(g.rooms[rid].attributes) + ["phantom_class"]


def _remove_room_keep_refs(g, rng):
    rooms_with_refs = sorted(
        {e.room_a for e in g.room_edges}
        | {e.room_b for e in g.room_edges}
        | {o.room_id for o in g.objects.values()}
    )
    rid = rng.choice(rooms_with_refs)
    del g.rooms[rid]


def _duplicate_edge(g, rng):
    e = g.room_edges[rng.randrange(len(g.room_edges))]
    g.room_edges.append(
        RoomEdge(room_a=e.room_a, room_b=e.room_b, weight=e.weight, portal=GridIndex(0, 0))
    )


_OPERATORS = [
    _dangle_edge,
    _negative_weight,
    _self_loop,
    _duplicate_room_id,
    _corrupt_attributes,
    _remove_room_keep_refs,
    _duplicate_edge,
]


def corrupt_graph(g: SemanticGraph, rng) -> str:
    """Apply one random applicable corruption in place; returns its name."""
    ops = list(_OPERATORS)
    rng.shuffle(ops)
    for op in ops:
        try:
            op(g, rng)
            return op.__name__
        except (IndexError, ValueError):
            continue  # operator not applicable to this graph shape
    raise AssertionError("no corruption operator applicable")
