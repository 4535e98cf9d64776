import json
import logging
import os
import random
import socket
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from semnav.discovery import (
    CooccurrenceTable,
    DiscoveryResponse,
    HttpOracle,
    MockOracle,
    RoomContext,
    goal_llm_response,
    load_cooccurrence_table,
)
from semnav.errors import (
    ConfigError,
    DiscoveryFailedError,
    OracleParseError,
    ValidationError,
)
from semnav.graph import GoalQuery

from oracles import brute_discovery_scores

OFFICE = RoomContext(room_id="office_1", category="office", attributes=("desk", "chair"))
KITCHEN = RoomContext(room_id="kitchen_1", category="kitchen", attributes=("sink", "fridge"))
LOUNGE = RoomContext(room_id="lounge_1", category="lounge", attributes=("sofa",))


class TestMockRank:
    def test_all_zero_table_degenerates_to_uniform(self):
        table = CooccurrenceTable()
        resp = MockOracle(table).rank([LOUNGE, OFFICE, KITCHEN], GoalQuery("coffee_machine"))
        assert [rid for rid, _ in resp.ranked_rooms] == ["kitchen_1", "lounge_1", "office_1"]
        assert all(conf == pytest.approx(1 / 3) for _, conf in resp.ranked_rooms)

    def test_single_entry_table_pins_winner(self):
        table = CooccurrenceTable(entries={("printer", "office"): 1.0})
        resp = MockOracle(table).rank([OFFICE, KITCHEN, LOUNGE], GoalQuery("printer"))
        assert resp.ranked_rooms[0] == ("office_1", 1.0)
        assert all(conf == 0.0 for _, conf in resp.ranked_rooms[1:])

    def test_co_object_term_contributes_tenth_weight(self):
        table = CooccurrenceTable(
            entries={("coffee_machine", "sink"): 1.0, ("coffee_machine", "fridge"): 2.0}
        )
        resp = MockOracle(table).rank([OFFICE, KITCHEN], GoalQuery("coffee_machine"))
        assert resp.top_room == "kitchen_1"
        # kitchen score = 0.1*1 + 0.1*2 = 0.3; office = 0 -> normalized 1.0 / 0.0
        assert resp.ranked_rooms[0][1] == 1.0
        assert resp.ranked_rooms[1][1] == 0.0

    def test_matches_brute_force_scoring(self):
        rng = random.Random(314)
        classes = ["desk", "chair", "sink", "fridge", "sofa", "mug"]
        categories = ["office", "kitchen", "lounge"]
        for _ in range(50):
            entries = {}
            for _ in range(rng.randint(0, 12)):
                key = (rng.choice(classes + ["goalobj"]), rng.choice(categories + classes))
                entries[key] = rng.uniform(0.0, 4.0)
            table = CooccurrenceTable(entries=entries)
            contexts = [
                RoomContext(
                    room_id=f"r{i}",
                    category=rng.choice(categories),
                    attributes=tuple(rng.sample(classes, rng.randint(0, 3))),
                )
                for i in range(rng.randint(1, 5))
            ]
            resp = MockOracle(table).rank(contexts, GoalQuery("goalobj"))
            raw = brute_discovery_scores(entries, contexts, "goalobj")
            expected_order = sorted(raw, key=lambda rid: (-raw[rid], rid))
            if max(raw.values()) <= 0:
                expected_order = sorted(raw)
            assert [rid for rid, _ in resp.ranked_rooms] == expected_order

    def test_argmax_invariant_under_positive_scaling(self):
        rng = random.Random(2718)
        entries = {
            ("widget", "office"): 2.0,
            ("widget", "kitchen"): 1.5,
            ("widget", "sink"): 3.0,
        }
        contexts = [OFFICE, KITCHEN, LOUNGE]
        base = MockOracle(CooccurrenceTable(entries=entries)).rank(contexts, GoalQuery("widget"))
        for _ in range(5):
            k = rng.uniform(0.1, 25.0)
            scaled = CooccurrenceTable(entries={key: v * k for key, v in entries.items()})
            resp = MockOracle(scaled).rank(contexts, GoalQuery("widget"))
            assert resp.top_room == base.top_room

    def test_single_room_ranked_first_regardless_of_goal(self):
        table = CooccurrenceTable()
        resp = MockOracle(table).rank([OFFICE], GoalQuery("anything_at_all"))
        assert resp.top_room == "office_1"
        assert resp.ranked_rooms[0][1] == 1.0

    def test_mock_oracle_deterministic(self):
        table = CooccurrenceTable(entries={("mug", "kitchen"): 1.0})
        oracle = MockOracle(table)
        contexts = [OFFICE, KITCHEN, LOUNGE]
        a = oracle.rank(contexts, GoalQuery("mug"))
        b = oracle.rank(contexts, GoalQuery("mug"))
        assert a == b


class TestTableFile:
    def test_load_table(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text(
            "# comment\ncoffee_machine, kitchen, 2.5\nprinter, office, 1\n", encoding="utf-8"
        )
        table = load_cooccurrence_table(path)
        assert table.affinity("coffee_machine", "kitchen") == 2.5
        assert table.affinity("printer", "office") == 1.0
        assert table.affinity("printer", "kitchen") == 0.0

    def test_duplicate_entry_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("a, b, 1\na, b, 2\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_cooccurrence_table(path)

    def test_non_utf8_table_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_bytes(b"a, b, 1\n\xff\xfe\n")
        with pytest.raises(ConfigError):
            load_cooccurrence_table(path)

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("a, b\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_cooccurrence_table(path)

    def test_negative_score_rejected(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("a, b, -1\n", encoding="utf-8")
        with pytest.raises(ValidationError):
            load_cooccurrence_table(path)


class TestResponseFiltering:
    def test_unknown_rooms_dropped_with_warning(self, caplog):
        class FixedOracle:
            def rank(self, contexts, goal):
                return DiscoveryResponse(
                    ranked_rooms=(("mars_base", 0.9), ("kitchen_1", 0.5)), rationale="hm"
                )

        with caplog.at_level(logging.WARNING):
            resp = goal_llm_response([OFFICE, KITCHEN], GoalQuery("mug"), FixedOracle())
        assert resp.ranked_rooms == (("kitchen_1", 0.5),)
        assert any("mars_base" in rec.message for rec in caplog.records)

    def test_all_rooms_unknown_is_discovery_failure(self):
        class FixedOracle:
            def rank(self, contexts, goal):
                return DiscoveryResponse(ranked_rooms=(("nowhere", 1.0),))

        with pytest.raises(DiscoveryFailedError):
            goal_llm_response([OFFICE], GoalQuery("mug"), FixedOracle())

    def test_empty_contexts_rejected(self):
        with pytest.raises(ValidationError):
            goal_llm_response([], GoalQuery("mug"), MockOracle(CooccurrenceTable()))

    def test_confidences_must_be_monotone(self):
        with pytest.raises(ValidationError):
            DiscoveryResponse(ranked_rooms=(("a", 0.1), ("b", 0.9)))
        with pytest.raises(ValidationError):
            DiscoveryResponse(ranked_rooms=(("a", 1.5),))


class _StubHandler(BaseHTTPRequestHandler):
    payload: bytes = b"{}"
    status: int = 200
    delay: float = 0.0  # seconds to wait before replying
    trickle: bool = False  # send the body 8 bytes every 0.2 s
    stall: bool = False  # send 10 body bytes at 0.45 s, then nothing for 2 s
    seen: list = []
    lock = threading.Lock()

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = self.rfile.read(length)
        with self.lock:
            type(self).seen.append(
                {"body": json.loads(body), "auth": self.headers.get("Authorization")}
            )
        time.sleep(type(self).delay)
        self.send_response(type(self).status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        payload = type(self).payload
        if type(self).stall:
            time.sleep(0.45)
            self.wfile.write(payload[:10])
            time.sleep(2.0)
            return
        if not type(self).trickle:
            self.wfile.write(payload)
            return
        try:
            for i in range(0, len(payload), 8):
                self.wfile.write(payload[i : i + 8])
                time.sleep(0.2)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the client gave up

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _StubHandler.seen = []
    _StubHandler.status = 200
    _StubHandler.delay = 0.0
    _StubHandler.trickle = False
    _StubHandler.stall = False
    yield server, f"http://127.0.0.1:{server.server_address[1]}/rank"
    server.shutdown()
    server.server_close()


class TestHttpOracle:
    def test_fixed_payload_round_trips(self, stub_server):
        _, url = stub_server
        _StubHandler.payload = json.dumps(
            {
                "ranking": [
                    {"id": "kitchen_1", "confidence": 0.8},
                    {"id": "office_1", "confidence": 0.2},
                ],
                "rationale": "machines live near sinks",
            }
        ).encode()
        oracle = HttpOracle(url=url, token="sekret", timeout=5)
        resp = goal_llm_response([OFFICE, KITCHEN], GoalQuery("coffee machine"), oracle)
        assert resp.ranked_rooms == (("kitchen_1", 0.8), ("office_1", 0.2))
        assert resp.rationale == "machines live near sinks"
        request = _StubHandler.seen[0]
        assert request["auth"] == "Bearer sekret"
        assert request["body"]["goal"] == "coffee_machine"
        assert {r["id"] for r in request["body"]["rooms"]} == {"office_1", "kitchen_1"}
        assert request["body"]["rooms"][0]["objects"] == ["desk", "chair"]

    def test_malformed_payload_is_parse_error(self, stub_server):
        _, url = stub_server
        _StubHandler.payload = b'{"rankings": "oops"}'
        oracle = HttpOracle(url=url, timeout=5, retries=0)
        with pytest.raises(OracleParseError):
            oracle.rank([OFFICE], GoalQuery("mug"))

    @pytest.mark.parametrize(
        "payload",
        [
            b'{"ranking": [{"id": "office_1", "confidence": 1' + b"0" * 400 + b"}]}",
            b"[" * 100_000,
        ],
        ids=["float-overflow", "deep-nesting"],
    )
    def test_unreadable_payload_is_parse_error(self, stub_server, payload):
        _, url = stub_server
        _StubHandler.payload = payload
        oracle = HttpOracle(url=url, timeout=5, retries=0)
        with pytest.raises(OracleParseError):
            oracle.rank([OFFICE], GoalQuery("mug"))

    def test_transport_failure_retries_then_discovery_failed(self):
        oracle = HttpOracle(url="http://127.0.0.1:1/rank", timeout=0.2, retries=2, backoff=0.01)
        with pytest.raises(DiscoveryFailedError, match="after 3 attempts"):
            oracle.rank([OFFICE], GoalQuery("mug"))

    def test_http_error_status_retries_then_fails(self, stub_server):
        _, url = stub_server
        _StubHandler.status = 500
        oracle = HttpOracle(url=url, timeout=5, retries=1, backoff=0.01)
        with pytest.raises(DiscoveryFailedError):
            oracle.rank([OFFICE], GoalQuery("mug"))
        assert len(_StubHandler.seen) == 2

    def test_client_error_status_fails_without_retry(self, stub_server):
        _, url = stub_server
        _StubHandler.status = 404
        oracle = HttpOracle(url=url, timeout=5, retries=2, backoff=0.01)
        with pytest.raises(DiscoveryFailedError, match="404"):
            oracle.rank([OFFICE], GoalQuery("mug"))
        assert len(_StubHandler.seen) == 1

    def test_too_many_requests_is_retried(self, stub_server):
        _, url = stub_server
        _StubHandler.status = 429
        oracle = HttpOracle(url=url, timeout=5, retries=1, backoff=0.01)
        with pytest.raises(DiscoveryFailedError):
            oracle.rank([OFFICE], GoalQuery("mug"))
        assert len(_StubHandler.seen) == 2

    def test_timeout_bounds_the_whole_call(self, stub_server):
        _, url = stub_server
        _StubHandler.delay = 1.0  # every attempt outlasts the deadline
        oracle = HttpOracle(url=url, timeout=0.4, retries=2, backoff=0.01)
        start = time.monotonic()
        with pytest.raises(DiscoveryFailedError, match="deadline"):
            oracle.rank([OFFICE], GoalQuery("mug"))
        assert time.monotonic() - start < 0.8  # one attempt per socket wait would take 1.2 s
        assert len(_StubHandler.seen) == 1

    def test_backoff_past_the_deadline_ends_the_call(self, stub_server):
        _, url = stub_server
        _StubHandler.status = 500
        oracle = HttpOracle(url=url, timeout=1.0, retries=2, backoff=5.0)
        start = time.monotonic()
        with pytest.raises(DiscoveryFailedError, match="after 1 attempts"):
            oracle.rank([OFFICE], GoalQuery("mug"))
        assert time.monotonic() - start < 1.0
        assert len(_StubHandler.seen) == 1

    def test_trickled_reply_cannot_outrun_the_deadline(self, stub_server):
        _, url = stub_server
        _StubHandler.payload = json.dumps(
            {"ranking": [{"id": "office_1", "confidence": 1.0}], "rationale": "trickled"}
        ).encode()
        _StubHandler.trickle = True  # the whole body takes about 2 s
        oracle = HttpOracle(url=url, timeout=0.5, retries=0)
        start = time.monotonic()
        with pytest.raises(DiscoveryFailedError, match="deadline"):
            oracle.rank([OFFICE], GoalQuery("mug"))
        assert time.monotonic() - start < 0.9

    def test_trickled_reply_inside_the_deadline_is_read_whole(self, stub_server):
        _, url = stub_server
        _StubHandler.payload = json.dumps(
            {"ranking": [{"id": "office_1", "confidence": 1.0}], "rationale": "trickled"}
        ).encode()
        _StubHandler.trickle = True
        resp = HttpOracle(url=url, timeout=5, retries=0).rank([OFFICE], GoalQuery("mug"))
        assert resp.ranked_rooms == (("office_1", 1.0),)
        assert resp.rationale == "trickled"

    def test_stalled_reply_fails_by_the_deadline(self, stub_server):
        _, url = stub_server
        _StubHandler.payload = json.dumps(
            {"ranking": [{"id": "office_1", "confidence": 1.0}], "rationale": "stalled"}
        ).encode()
        _StubHandler.stall = True
        oracle = HttpOracle(url=url, timeout=0.5, retries=0)
        start = time.monotonic()
        with pytest.raises(DiscoveryFailedError, match="deadline"):
            oracle.rank([OFFICE], GoalQuery("mug"))
        assert time.monotonic() - start < 0.6  # a read starting at 0.45 s may wait 0.05 s only

    def test_redirect_fails_without_being_followed(self, stub_server):
        _, url = stub_server
        _StubHandler.status = 302
        oracle = HttpOracle(url=url, timeout=5, retries=2, backoff=0.01)
        with pytest.raises(DiscoveryFailedError, match="302"):
            oracle.rank([OFFICE], GoalQuery("mug"))
        assert len(_StubHandler.seen) == 1

    @pytest.mark.parametrize(
        "url", ["ftp://127.0.0.1/rank", "http:///rank", "http://127.0.0.1:99999/rank"]
    )
    def test_bad_url_fails_before_connecting(self, url, monkeypatch):
        opened = []
        monkeypatch.setattr(socket, "create_connection", lambda *a, **k: opened.append(a))
        oracle = HttpOracle(url=url, timeout=5, retries=2, backoff=0.01)
        with pytest.raises(DiscoveryFailedError, match="bad oracle URL"):
            oracle.rank([OFFICE], GoalQuery("mug"))
        assert opened == []

    @pytest.mark.parametrize(
        "url",
        [
            "http://127.0.0.1:1/a b",
            "http://127.0.0.1:1/rank?q=\x01",
            "http://127.0.0.1:1/caf\u00e9",
            "http://127.0.0.1:1/a\tb\nc",
            "http://127.0.0.1:1/rank\r",
        ],
    )
    def test_bad_path_fails_before_the_first_attempt(self, url, monkeypatch, caplog):
        sleeps = []
        monkeypatch.setattr(time, "sleep", sleeps.append)
        oracle = HttpOracle(url=url, timeout=5, retries=2, backoff=1.0)
        with caplog.at_level(logging.WARNING):
            with pytest.raises(DiscoveryFailedError, match="bad oracle URL"):
                oracle.rank([OFFICE], GoalQuery("mug"))
        assert not [rec for rec in caplog.records if "attempt" in rec.message]
        assert sleeps == []

    def test_env_var_configuration(self, stub_server, monkeypatch):
        _, url = stub_server
        _StubHandler.payload = json.dumps(
            {"ranking": [{"id": "office_1", "confidence": 1.0}], "rationale": ""}
        ).encode()
        monkeypatch.setenv("INTELLIMOVE_ORACLE_URL", url)
        monkeypatch.setenv("INTELLIMOVE_ORACLE_TOKEN", "envtoken")
        oracle = HttpOracle()
        resp = oracle.rank([OFFICE], GoalQuery("mug"))
        assert resp.top_room == "office_1"
        assert _StubHandler.seen[0]["auth"] == "Bearer envtoken"

    def test_missing_url_is_config_error(self, monkeypatch):
        monkeypatch.delenv("INTELLIMOVE_ORACLE_URL", raising=False)
        with pytest.raises(ConfigError):
            HttpOracle()

    def test_concurrent_requests(self, stub_server):
        _, url = stub_server
        _StubHandler.payload = json.dumps(
            {"ranking": [{"id": "office_1", "confidence": 1.0}], "rationale": ""}
        ).encode()
        oracle = HttpOracle(url=url, timeout=5)
        def run(_):
            return oracle.rank([OFFICE], GoalQuery("mug")).top_room
        with ThreadPoolExecutor(max_workers=6) as pool:
            results = list(pool.map(run, range(12)))
        assert results == ["office_1"] * 12


def _probe(code: str) -> str:
    """Run code in a fresh interpreter that imports semnav from this tree; its stdout."""
    import semnav

    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(semnav.__file__))}
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_importing_the_cli_leaves_requests_unloaded():
    probe = (
        "import sys, semnav.cli\n"
        "print([m in sys.modules for m in ('requests', 'http.client', 'ssl')])"
    )
    assert _probe(probe) == "[False, False, False]"


def test_importing_the_cli_leaves_scipy_submodules_unloaded():
    # reading a map needs numpy only; segmentation and the metric search import scipy
    probe = (
        "import sys, semnav.cli\n"
        "print([m in sys.modules for m in ('scipy', 'scipy.ndimage', 'scipy.sparse')])"
    )
    assert _probe(probe) == "[False, False, False]"


def test_importing_the_package_root_loads_no_submodule():
    probe = (
        "import sys, semnav\n"
        "print(sorted(m for m in sys.modules if m.startswith('semnav.')), 'numpy' in sys.modules)"
    )
    assert _probe(probe) == "[] False"


def test_importing_the_cli_leaves_generation_build_and_bench_unloaded():
    # each of these is imported by the one command that runs it
    probe = (
        "import sys, semnav.cli\n"
        "print([m in sys.modules for m in ('semnav.envgen', 'semnav.builder', 'semnav.bench')])"
    )
    assert _probe(probe) == "[False, False, False]"


def test_http_oracle_runs_without_requests(stub_server):
    _, url = stub_server
    _StubHandler.payload = json.dumps(
        {"ranking": [{"id": "office_1", "confidence": 1.0}], "rationale": ""}
    ).encode()
    probe = (
        "import sys\n"
        "from semnav.discovery import HttpOracle, RoomContext\n"
        "from semnav.graph import GoalQuery\n"
        "room = RoomContext('office_1', 'office', ('desk',))\n"
        f"resp = HttpOracle(url={url!r}, timeout=5, retries=0).rank([room], GoalQuery('mug'))\n"
        "print(resp.top_room, [m in sys.modules for m in ('requests', 'urllib3')])"
    )
    assert _probe(probe) == "office_1 [False, False]"
