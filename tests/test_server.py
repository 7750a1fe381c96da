"""End-to-end tests for the online HTTP serving subsystem.

Every test here talks to a real ``ServingServer`` over a real TCP socket
(via ``http.client``), with the server running on a background event loop
(``serve_in_thread``).  Covered: the predict round-trip against
``Predictor.predict_table``, batch prediction, health and metrics
endpoints, the error-code contract (400/404/405/429/503), overload
behaviour under a flood, and graceful drain.
"""

from __future__ import annotations

import http.client
import json
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.serving import Predictor, serve_in_thread

TIMEOUT = 30


def _raw_request_status(port: int, raw: bytes, half_close: bool = False) -> int:
    """Send raw bytes over a socket; returns the HTTP status of the reply."""
    import socket

    with socket.create_connection(("127.0.0.1", port), timeout=TIMEOUT) as sock:
        sock.sendall(raw)
        if half_close:
            sock.shutdown(socket.SHUT_WR)  # body ends early: truncated request
        reply = b""
        while b"\r\n" not in reply:
            chunk = sock.recv(4096)
            if not chunk:
                break
            reply += chunk
    return int(reply.split()[1])


def request(port: int, method: str, path: str, payload: dict | None = None, body: bytes | None = None):
    """One HTTP request over a fresh connection; returns (status, json_body)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT)
    try:
        if body is None and payload is not None:
            body = json.dumps(payload).encode("utf-8")
        connection.request(
            method, path, body=body, headers={"Content-Type": "application/json"}
        )
        reply = connection.getresponse()
        return reply.status, json.loads(reply.read().decode("utf-8"))
    finally:
        connection.close()


@pytest.fixture(scope="module")
def predictor(trained_base):
    predictor = Predictor(trained_base, cache_size=1024)
    yield predictor
    predictor.close()


@pytest.fixture(scope="module")
def server(predictor):
    with serve_in_thread(predictor, port=0, max_batch_size=8, max_wait_ms=25.0) as handle:
        yield handle


class TestPredictEndpoint:
    def test_round_trip_matches_predict_table(self, server, predictor, serving_split):
        _, test = serving_split
        for table in test[:4]:
            status, payload = request(
                server.port, "POST", "/v1/predict", {"table": table.to_dict()}
            )
            assert status == 200
            assert payload["labels"] == predictor.predict_table(table)
            assert payload["n_columns"] == table.n_columns
            assert payload["table_id"] == table.table_id

    def test_predict_batch_matches_predict_tables(self, server, predictor, serving_split):
        _, test = serving_split
        tables = test[:3]
        status, payload = request(
            server.port,
            "POST",
            "/v1/predict_batch",
            {"tables": [table.to_dict() for table in tables]},
        )
        assert status == 200
        assert [r["labels"] for r in payload["results"]] == predictor.predict_tables(tables)

    def test_concurrent_requests_all_answered_and_coalesced(
        self, server, predictor, serving_split
    ):
        _, test = serving_split
        tables = (test * 4)[:12]
        with ThreadPoolExecutor(max_workers=12) as pool:
            replies = list(
                pool.map(
                    lambda table: request(
                        server.port, "POST", "/v1/predict", {"table": table.to_dict()}
                    ),
                    tables,
                )
            )
        assert all(status == 200 for status, _ in replies)
        expected = predictor.predict_tables(tables)
        assert [payload["labels"] for _, payload in replies] == expected
        # The micro-batcher must have put at least two tables in one batch.
        status, metrics = request(server.port, "GET", "/metrics")
        assert status == 200
        assert any(
            int(size) > 1 for size in metrics["batches"]["size_histogram"]
        ), metrics["batches"]


    def test_lone_surrogate_cell_is_served(self, server):
        # "\ud800" is valid JSON but not encodable as UTF-8.
        body = b'{"table": {"columns": [{"values": ["\\ud800"]}]}}'
        status, payload = request(server.port, "POST", "/v1/predict", body=body)
        assert status == 200 and len(payload["labels"]) == 1


class TestObservabilityEndpoints:
    def test_healthz(self, server):
        status, payload = request(server.port, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["draining"] is False
        assert payload["uptime_seconds"] > 0

    def test_metrics_shape(self, server, serving_split):
        _, test = serving_split
        request(server.port, "POST", "/v1/predict", {"table": test[0].to_dict()})
        status, payload = request(server.port, "GET", "/metrics")
        assert status == 200
        assert payload["requests"]["completed"] >= 1
        assert payload["requests"]["qps"] > 0
        assert payload["latency_ms"]["p50"] >= 0
        assert payload["latency_ms"]["p99"] >= payload["latency_ms"]["p50"]
        assert payload["columns"]["served"] >= test[0].n_columns
        assert payload["policy"] == {
            "max_batch_size": 8, "max_wait_ms": 25.0, "max_queue": 256,
        }
        cache = payload["cache"]
        assert 0.0 <= cache["hit_rate"] <= 1.0
        assert cache["hits"] + cache["misses"] >= test[0].n_columns
        assert payload["predictor"]["batches"] >= 1


class TestErrorContract:
    @pytest.mark.parametrize(
        "body",
        [
            b"not json",
            # Valid JSON that Python's json module still refuses to load.
            b'{"table": {"columns": [{"values": [' + b"7" * 5000 + b"]}]}}",
            # Deeper than the json scanner's recursion limit on every
            # supported interpreter (1000 up to 3.11, up to 10000 on 3.12+).
            b'{"table": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
        ],
        ids=["garbage", "5000-digit-integer", "nested-100000-deep"],
    )
    def test_400_not_json(self, server, body):
        status, payload = request(server.port, "POST", "/v1/predict", body=body)
        assert status == 400 and "JSON" in payload["error"]

    def test_400_missing_table_key(self, server):
        status, payload = request(server.port, "POST", "/v1/predict", {"nope": 1})
        assert status == 400 and "table" in payload["error"]

    def test_400_malformed_columns(self, server):
        status, payload = request(
            server.port, "POST", "/v1/predict", {"table": {"columns": [{"values": "x"}]}}
        )
        assert status == 400 and "values" in payload["error"]

    def test_400_empty_batch(self, server):
        status, _ = request(server.port, "POST", "/v1/predict_batch", {"tables": []})
        assert status == 400

    def test_404_unknown_path(self, server):
        status, _ = request(server.port, "GET", "/nope")
        assert status == 404

    def test_405_wrong_method(self, server):
        status, _ = request(server.port, "GET", "/v1/predict")
        assert status == 405
        status, _ = request(server.port, "POST", "/healthz")
        assert status == 405

    def test_400_bad_content_length_framing(self, server):
        for raw in (
            b"POST /v1/predict HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
            b"POST /v1/predict HTTP/1.1\r\nContent-Length: nope\r\n\r\n",
        ):
            status = _raw_request_status(server.port, raw)
            assert status == 400

    def test_400_truncated_body(self, server):
        raw = b"POST /v1/predict HTTP/1.1\r\nContent-Length: 500\r\n\r\n{\"tr"
        status = _raw_request_status(server.port, raw, half_close=True)
        assert status == 400

    def test_413_oversized_body_refused(self, server):
        raw = (
            b"POST /v1/predict HTTP/1.1\r\n"
            b"Content-Length: 999999999999\r\n\r\n"
        )
        status = _raw_request_status(server.port, raw)
        assert status == 413

    def test_400_tracked_in_metrics(self, server):
        before = request(server.port, "GET", "/metrics")[1]["requests"]["malformed"]
        request(server.port, "POST", "/v1/predict", body=b"broken")
        after = request(server.port, "GET", "/metrics")[1]["requests"]["malformed"]
        assert after == before + 1


class SlowPredictor:
    """Delegates to a real predictor after a delay: deterministic overload."""

    def __init__(self, predictor, delay: float):
        self._predictor = predictor
        self._delay = delay

    def predict_tables(self, tables):
        time.sleep(self._delay)
        return self._predictor.predict_tables(tables)


class TestOverload:
    def test_flood_returns_429s_drops_nothing_and_healthz_survives(
        self, predictor, serving_split
    ):
        _, test = serving_split
        table = test[0]
        n_requests = 24
        slow = SlowPredictor(predictor, delay=0.05)
        with serve_in_thread(
            slow, port=0, max_batch_size=1, max_wait_ms=0.0, max_queue=2
        ) as handle:
            with ThreadPoolExecutor(max_workers=n_requests) as pool:
                futures = [
                    pool.submit(
                        request,
                        handle.port,
                        "POST",
                        "/v1/predict",
                        {"table": table.to_dict()},
                    )
                    for _ in range(n_requests)
                ]
                # The server must stay observable *during* the flood: the
                # event loop is free while batches run on the dispatch thread.
                status, health = request(handle.port, "GET", "/healthz")
                assert status == 200 and health["status"] == "ok"
                replies = [future.result(timeout=TIMEOUT) for future in futures]

            # Every request got an answer: 200 with labels or an explicit 429.
            assert len(replies) == n_requests
            statuses = sorted({status for status, _ in replies})
            assert set(statuses) <= {200, 429}
            served = [payload for status, payload in replies if status == 200]
            rejected = [payload for status, payload in replies if status == 429]
            assert served and rejected
            expected = predictor.predict_table(table)
            assert all(payload["labels"] == expected for payload in served)
            assert all("queue" in payload["error"] for payload in rejected)

            # ... and still healthy after the flood, with honest accounting.
            status, health = request(handle.port, "GET", "/healthz")
            assert status == 200 and health["status"] == "ok"
            status, metrics = request(handle.port, "GET", "/metrics")
            assert metrics["requests"]["completed"] == len(served)
            assert metrics["requests"]["rejected_queue_full"] == len(rejected)


class TestGracefulDrain:
    def test_begin_drain_rejects_predicts_but_answers_healthz(
        self, predictor, serving_split
    ):
        _, test = serving_split
        with serve_in_thread(predictor, port=0) as handle:
            handle.begin_drain()
            status, health = request(handle.port, "GET", "/healthz")
            assert status == 200
            assert health["status"] == "draining" and health["draining"] is True
            status, payload = request(
                handle.port, "POST", "/v1/predict", {"table": test[0].to_dict()}
            )
            assert status == 503 and "draining" in payload["error"]
            status, _ = request(handle.port, "GET", "/metrics")
            assert status == 200

    def test_stop_refuses_new_connections(self, predictor):
        handle = serve_in_thread(predictor, port=0)
        port = handle.port
        status, _ = request(port, "GET", "/healthz")
        assert status == 200
        handle.stop()
        with pytest.raises(OSError):
            request(port, "GET", "/healthz")
