"""Object and room layers: a typed graph over rooms and objects.

Rooms are nodes connected by weighted, undirected edges (one per doorway,
stored once and queried both ways). Objects are leaf nodes tied to exactly
one room by a containment edge. A graph is built whole by its constructor
and can be searched at once; validate() reports every broken invariant.
Searching only reads the graph, so any number of planners can share one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .errors import ConflictError
from .metric import GridIndex, MetricPoint

UNCATEGORIZED = "uncategorized"


def normalize_label(text: str) -> str:
    """Lowercase and map spaces to underscores so matching is reproducible."""
    return text.strip().lower().replace(" ", "_")


@dataclass
class RoomNode:
    id: str
    category: str
    centroid: MetricPoint
    cell_count: int
    # Deduplicated, sorted class labels of contained objects; validate()
    # checks them against the objects.
    attributes: list[str] = field(default_factory=list)


@dataclass
class ObjectNode:
    id: str
    class_label: str
    position: MetricPoint
    room_id: str


@dataclass
class RoomEdge:
    room_a: str
    room_b: str
    weight: float
    portal: GridIndex


@dataclass(frozen=True)
class ContainmentEdge:
    room_id: str
    object_id: str


@dataclass(frozen=True)
class GoalQuery:
    text: str


@dataclass(frozen=True)
class Violation:
    subject: str
    rule: str
    detail: str

    def __str__(self):
        return f"{self.subject}: {self.rule}: {self.detail}"


class SemanticGraph:
    """Rooms, objects, room-room edges, and room-object containment.

    The constructor builds the whole graph: nodes keyed by id, one
    containment edge per object, and the planner's sorted adjacency lists.
    It refuses only a room or object id listed twice; validate() judges
    every other invariant.
    """

    def __init__(self, rooms=(), objects=(), edges=()):
        self.rooms: dict[str, RoomNode] = _by_id(rooms)
        self.objects: dict[str, ObjectNode] = _by_id(objects)
        self.room_edges: list[RoomEdge] = list(edges)
        self.containment: list[ContainmentEdge] = [
            ContainmentEdge(o.room_id, o.id) for o in self.objects.values()
        ]
        self._edge_index = {_edge_key(e.room_a, e.room_b): e for e in self.room_edges}
        # dangling edge endpoints get a list too; validate() reports them
        adj: dict[str, list[tuple[str, float]]] = {rid: [] for rid in self.rooms}
        for e in self.room_edges:
            adj.setdefault(e.room_a, []).append((e.room_b, e.weight))
            adj.setdefault(e.room_b, []).append((e.room_a, e.weight))
        for pairs in adj.values():
            pairs.sort()
        self._adjacency = adj

    # -- queries -----------------------------------------------------------

    def neighbors(self, room_id: str) -> list[tuple[str, float]]:
        """Sorted (room, weight) pairs."""
        return self._adjacency[room_id]

    def get_edge(self, room_a: str, room_b: str) -> RoomEdge | None:
        return self._edge_index.get(_edge_key(room_a, room_b))

    def find_goal_state(self, goal: GoalQuery) -> tuple[str, ...]:
        """The ids of all nodes matching a goal query, in ascending order.

        Precedence: an existing node id wins, then the rooms of that
        category, else the objects of that class. An empty result is a valid
        state (it routes the planner into Discovery Mode), so no error is
        raised for unmatched goals.
        """
        label = normalize_label(goal.text)
        if label in self.rooms or label in self.objects:
            return (label,)
        ids = [r.id for r in self.rooms.values() if normalize_label(r.category) == label]
        if not ids:
            ids = [o.id for o in self.objects.values() if normalize_label(o.class_label) == label]
        return tuple(sorted(ids))

    # -- validation --------------------------------------------------------

    def validate(self) -> list[Violation]:
        """Check every structural invariant; empty list means consistent."""
        out: list[Violation] = []

        room_ids = [r.id for r in self.rooms.values()]
        object_ids = [o.id for o in self.objects.values()]
        seen: set[str] = set()
        for nid in room_ids + object_ids:
            if nid in seen:
                out.append(Violation(nid, "unique-id", "node id appears more than once"))
            seen.add(nid)
            # a goal is normalized before lookup, so any other id can never be named
            if not nid or nid != normalize_label(nid):
                out.append(Violation(nid, "normalized-id", "node id is blank or not normalized"))
        for rid, room in self.rooms.items():
            if rid != room.id:
                out.append(Violation(rid, "unique-id", f"room keyed as {rid!r} has id {room.id!r}"))
        for oid, obj in self.objects.items():
            if oid != obj.id:
                out.append(
                    Violation(oid, "unique-id", f"object keyed as {oid!r} has id {obj.id!r}")
                )

        edge_keys: set[tuple[str, str]] = set()
        for e in self.room_edges:
            name = f"edge {e.room_a}-{e.room_b}"
            if e.room_a == e.room_b:
                out.append(Violation(name, "no-self-loop", "edge joins a room to itself"))
            for rid in (e.room_a, e.room_b):
                if rid not in self.rooms:
                    out.append(Violation(name, "dangling-edge", f"room {rid!r} does not exist"))
            if e.weight < 0 or not math.isfinite(e.weight):
                out.append(Violation(name, "edge-weight", f"weight {e.weight} not a finite >= 0"))
            key = _edge_key(e.room_a, e.room_b)
            if key in edge_keys:
                out.append(Violation(name, "duplicate-edge", "room pair stored more than once"))
            edge_keys.add(key)

        contained: dict[str, list[str]] = {}
        classes: dict[str, set[str]] = {}  # each room's derived attributes
        for c in self.containment:
            contained.setdefault(c.object_id, []).append(c.room_id)
            if c.room_id not in self.rooms:
                out.append(
                    Violation(
                        f"containment {c.room_id}-{c.object_id}",
                        "dangling-containment",
                        f"room {c.room_id!r} does not exist",
                    )
                )
            if c.object_id not in self.objects:
                out.append(
                    Violation(
                        f"containment {c.room_id}-{c.object_id}",
                        "dangling-containment",
                        f"object {c.object_id!r} does not exist",
                    )
                )
        for obj in self.objects.values():
            classes.setdefault(obj.room_id, set()).add(normalize_label(obj.class_label))
            rooms = contained.get(obj.id, [])
            if len(rooms) != 1:
                out.append(
                    Violation(
                        obj.id,
                        "containment-function",
                        f"object has {len(rooms)} containment edges, expected exactly 1",
                    )
                )
            elif rooms[0] != obj.room_id:
                out.append(
                    Violation(
                        obj.id,
                        "containment-consistency",
                        f"containment names room {rooms[0]!r} but object.room_id is"
                        f" {obj.room_id!r}",
                    )
                )
            if obj.room_id not in self.rooms:
                out.append(
                    Violation(obj.id, "dangling-room-ref", f"room {obj.room_id!r} does not exist")
                )
        for room in self.rooms.values():
            derived = sorted(classes.get(room.id, ()))
            if list(room.attributes) != derived:
                out.append(
                    Violation(
                        room.id,
                        "attributes-cache",
                        f"cached {room.attributes!r} != derived {derived!r}",
                    )
                )
        return out

    # -- comparison / copy ---------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, SemanticGraph):
            return NotImplemented
        return (
            self.rooms == other.rooms
            and self.objects == other.objects
            and sorted(self.room_edges, key=_edge_sort_key)
            == sorted(other.room_edges, key=_edge_sort_key)
            and set(self.containment) == set(other.containment)
        )

    def copy(self) -> "SemanticGraph":
        """Deep copy (useful for mutation testing); containment is copied as it stands."""
        g = SemanticGraph(
            [replace(r, attributes=list(r.attributes)) for r in self.rooms.values()],
            [replace(o) for o in self.objects.values()],
            [replace(e) for e in self.room_edges],
        )
        g.containment = list(self.containment)
        return g


def assemble_graph(rooms, objects, edges) -> tuple[SemanticGraph, list[str]]:
    """The graph and its room ids by room index; the one place ids are numbered.

    rooms: (category, centroid, cell_count), numbered in list order.
    objects: (room index, class, position, id or None), inserted by room
    index, then in list order.
    edges: (room index, room index, weight, portal).

    A room is `{category}_{n}` (`room_{n}` when uncategorized) and an object
    without an id is `{class}_{n}`: n counts up from 1 on one counter per
    prefix, shared by rooms and objects, and skips every id an object
    supplies. Classes and supplied ids are normalized.
    """
    taken = {normalize_label(oid) for *_, oid in objects if oid is not None}
    counters: dict[str, int] = {}

    def mint(prefix: str) -> str:
        n = counters.get(prefix, 0) + 1
        while f"{prefix}_{n}" in taken:
            n += 1
        counters[prefix] = n
        return f"{prefix}_{n}"

    room_ids = [mint("room" if category == UNCATEGORIZED else category) for category, *_ in rooms]
    placed = []
    classes: dict[str, set[str]] = {}
    for i, cls, position, oid in sorted(objects, key=lambda o: o[0]):
        cls = normalize_label(cls)
        oid = mint(cls) if oid is None else normalize_label(oid)
        placed.append(ObjectNode(oid, cls, position, room_ids[i]))
        classes.setdefault(room_ids[i], set()).add(cls)
    graph = SemanticGraph(
        [
            RoomNode(rid, category, centroid, cell_count, sorted(classes.get(rid, ())))
            for rid, (category, centroid, cell_count) in zip(room_ids, rooms)
        ],
        placed,
        [RoomEdge(room_ids[a], room_ids[b], weight, portal) for a, b, weight, portal in edges],
    )
    return graph, room_ids


def _by_id(nodes) -> dict:
    """Nodes keyed by id; an id listed twice would silently drop a node."""
    out = {}
    for node in nodes:
        if node.id in out:
            raise ConflictError(f"node id {node.id!r} listed more than once")
        out[node.id] = node
    return out


def _edge_key(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a <= b else (b, a)


def _edge_sort_key(e: RoomEdge):
    return (_edge_key(e.room_a, e.room_b), e.weight)
