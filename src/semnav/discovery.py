"""Goal-discovery oracles: where might an unmapped object be?

Given per-room context (category + object classes present) and a goal class
the map does not contain, an oracle returns rooms ranked by how likely they
are to hold the goal. Two implementations:

  MockOracle  deterministic scorer over a co-occurrence table; offline.
  HttpOracle  POSTs the context to an external service (an LLM endpoint)
              and parses a strict JSON ranking.

Rationale text from an oracle is logged, never parsed.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import dataclass, field
from urllib.parse import urlsplit

from .errors import ConfigError, DiscoveryFailedError, OracleParseError, ValidationError
from .graph import GoalQuery, normalize_label
from .metric import read_text_lines

log = logging.getLogger(__name__)

ORACLE_URL_ENV = "INTELLIMOVE_ORACLE_URL"
ORACLE_TOKEN_ENV = "INTELLIMOVE_ORACLE_TOKEN"

CO_OBJECT_WEIGHT = 0.1

_READ_SIZE = 65536  # most bytes one read of an oracle reply takes


@dataclass(frozen=True)
class RoomContext:
    """Snapshot of one room as the oracle sees it."""

    room_id: str
    category: str
    attributes: tuple[str, ...]


@dataclass(frozen=True)
class DiscoveryResponse:
    ranked_rooms: tuple[tuple[str, float], ...]  # (room_id, confidence), non-increasing
    rationale: str = ""

    def __post_init__(self):
        confs = [c for _, c in self.ranked_rooms]
        if any(not (0.0 <= c <= 1.0) for c in confs):
            raise ValidationError(f"confidences must lie in [0, 1], got {confs}")
        if any(a < b for a, b in zip(confs, confs[1:])):
            raise ValidationError(f"confidences must be non-increasing, got {confs}")

    @property
    def top_room(self) -> str:
        return self.ranked_rooms[0][0]


@dataclass(frozen=True)
class CooccurrenceTable:
    """Affinity scores between an object class and a context label.

    The context label is usually a room category, but entries keyed by
    another object class feed the co-object term of the mock scorer.
    """

    entries: dict[tuple[str, str], float] = field(default_factory=dict)

    def __post_init__(self):
        for key, score in self.entries.items():
            if not (score >= 0.0) or score != score or score == float("inf"):
                raise ValidationError(f"affinity for {key} must be finite and >= 0")

    def affinity(self, object_class: str, context_label: str) -> float:
        return self.entries.get((normalize_label(object_class), normalize_label(context_label)), 0.0)


def load_cooccurrence_table(path) -> CooccurrenceTable:
    """Parse `object_class, room_category, score` lines."""
    entries: dict[tuple[str, str], float] = {}
    for where, line in read_text_lines(path):
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3:
            raise ConfigError(f"{where}: expected 'class, category, score'")
        key = (normalize_label(parts[0]), normalize_label(parts[1]))
        if key in entries:
            raise ConfigError(f"{where}: duplicate entry {key}")
        try:
            entries[key] = float(parts[2])
        except ValueError as exc:
            raise ConfigError(f"{where}: non-numeric score {parts[2]!r}") from exc
    return CooccurrenceTable(entries=entries)


class MockOracle:
    """Pure, shareable oracle over a fixed co-occurrence table."""

    def __init__(self, table: CooccurrenceTable):
        self.table = table

    def rank(self, contexts: list[RoomContext], goal: GoalQuery) -> DiscoveryResponse:
        """Deterministic ranking from the co-occurrence table.

        score(room) = affinity(goal, category)
                    + 0.1 * sum over room attributes a of affinity(goal, a)

        Scores are normalized by the maximum into [0, 1]; an all-zero table
        degenerates to uniform confidence 1/n. Ties order by ascending room id.
        """
        goal_label = normalize_label(goal.text)
        scores = []
        for ctx in contexts:
            s = self.table.affinity(goal_label, ctx.category)
            for attr in ctx.attributes:
                s += self.table.affinity(goal_label, attr) * CO_OBJECT_WEIGHT
            scores.append((ctx.room_id, s))
        top = max(s for _, s in scores) if scores else 0.0
        if top <= 0.0:
            uniform = 1.0 / len(scores) if scores else 0.0
            ranked = tuple((rid, uniform) for rid, _ in sorted(scores))
        else:
            ranked = tuple(
                (rid, s / top) for rid, s in sorted(scores, key=lambda t: (-t[1], t[0]))
            )
        return DiscoveryResponse(ranked_rooms=ranked, rationale="co-occurrence table ranking")


class HttpOracle:
    """JSON-over-HTTP oracle client.

    Request:  {"goal": str, "rooms": [{"id", "category", "objects"}]}
    Response: {"ranking": [{"id", "confidence"}], "rationale": str}

    Transport failures, 5xx and 429 replies are retried with exponential
    backoff; any other reply outside 2xx (redirects too) or a URL that is not
    http(s)://host/... with a printable-ASCII path fails at once. `timeout`
    bounds the whole `rank()` call, reply body included: each attempt gets
    the time left, a backoff sleep that would cross the deadline ends the
    call, and every socket wait is bounded by the time left when it starts.
    """

    def __init__(
        self,
        url: str | None = None,
        token: str | None = None,
        *,
        timeout: float = 10.0,
        retries: int = 2,
        backoff: float = 0.25,
    ):
        self.url = url or os.environ.get(ORACLE_URL_ENV)
        if not self.url:
            raise ConfigError(f"no oracle URL given and {ORACLE_URL_ENV} is unset")
        self.token = token if token is not None else os.environ.get(ORACLE_TOKEN_ENV)
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff

    def rank(self, contexts: list[RoomContext], goal: GoalQuery) -> DiscoveryResponse:
        from http.client import HTTPConnection, HTTPException, HTTPSConnection  # 12 ms with ssl

        try:
            # http.client checks the path on send, and urlsplit drops tabs, CR and LF
            if not all("!" <= ch <= "~" for ch in self.url):
                raise ValueError("need a printable-ASCII URL")
            url = urlsplit(self.url)
            target = (url.path or "/") + (f"?{url.query}" if url.query else "")
            if url.scheme not in ("http", "https") or not url.hostname:
                raise ValueError("need http(s)://host/...")
            url.hostname.encode("idna")  # as the resolver will: no label may be empty or too long
            connection = HTTPSConnection if url.scheme == "https" else HTTPConnection
            conn = connection(url.hostname, url.port or connection.default_port)
        except (ValueError, HTTPException) as exc:  # a bad port, IPv6 literal or host character
            raise DiscoveryFailedError(f"bad oracle URL {self.url!r}: {exc}") from exc
        body = json.dumps({
            "goal": normalize_label(goal.text),
            "rooms": [
                {"id": c.room_id, "category": c.category, "objects": list(c.attributes)}
                for c in contexts
            ],
        }).encode()
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        deadline = time.monotonic() + self.timeout

        def time_left() -> float:
            left = deadline - time.monotonic()
            if left <= 0:
                raise TimeoutError("timed out")
            return left

        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            pause = self.backoff * (2 ** (attempt - 1)) if attempt else 0.0
            left = deadline - time.monotonic() - pause  # for this attempt, after its backoff
            if left <= 0:
                break
            time.sleep(pause)
            conn.timeout = left  # the next request opens a connection with it
            try:
                conn.request("POST", target, body, headers)
                sock = conn.sock  # getresponse() detaches it when the reply will close
                sock.settimeout(time_left())
                with conn.getresponse() as resp:
                    if resp.status == 429 or resp.status >= 500:
                        raise HTTPException(f"oracle replied {resp.status}")
                    if not 200 <= resp.status < 300:
                        raise DiscoveryFailedError(f"oracle replied {resp.status}, not retried")
                    chunks = []
                    while True:
                        sock.settimeout(time_left())
                        if not (chunk := resp.read1(_READ_SIZE)):
                            break
                        chunks.append(chunk)
            except TimeoutError as exc:  # every socket wait ends at the deadline
                raise DiscoveryFailedError(
                    f"oracle deadline of {self.timeout} s passed in attempt {attempt + 1}"
                ) from exc
            except (OSError, HTTPException) as exc:
                last_error = exc
                log.warning("oracle request attempt %d failed: %s", attempt + 1, exc)
                continue
            finally:
                conn.close()
            return self._parse(b"".join(chunks))
        else:
            raise DiscoveryFailedError(
                f"oracle transport failed after {self.retries + 1} attempts: {last_error}"
            )
        raise DiscoveryFailedError(
            f"oracle deadline of {self.timeout} s passed after {attempt} attempts: {last_error}"
        )

    @staticmethod
    def _parse(body: bytes) -> DiscoveryResponse:
        try:
            doc = json.loads(body)
            ranking = doc["ranking"]
            ranked = tuple((str(e["id"]), float(e["confidence"])) for e in ranking)
            rationale = str(doc.get("rationale", ""))
            return DiscoveryResponse(ranked_rooms=ranked, rationale=rationale)
        except (
            KeyError, OverflowError, RecursionError, TypeError, ValueError, ValidationError
        ) as exc:
            log.error("malformed oracle payload: %r", body)
            raise OracleParseError(f"malformed oracle payload: {exc}") from exc


def goal_llm_response(
    contexts: list[RoomContext], goal: GoalQuery, oracle
) -> DiscoveryResponse:
    """Query the configured oracle and sanitize its answer.

    Rooms the oracle invents (ids outside the supplied contexts) are dropped
    with a warning; an empty post-filter ranking is a discovery failure.
    """
    if not contexts:
        raise ValidationError("discovery requires at least one room context")
    response = oracle.rank(contexts, goal)
    known = {c.room_id for c in contexts}
    kept = tuple((rid, conf) for rid, conf in response.ranked_rooms if rid in known)
    dropped = [rid for rid, _ in response.ranked_rooms if rid not in known]
    if dropped:
        log.warning("oracle ranked unknown room(s) %s; dropping", dropped)
    if response.rationale:
        log.info("oracle rationale: %s", response.rationale)
    if not kept:
        raise DiscoveryFailedError(f"oracle returned no usable rooms for goal {goal.text!r}")
    return DiscoveryResponse(ranked_rooms=kept, rationale=response.rationale)
