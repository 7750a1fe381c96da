"""Tests for the observability layer (``repro.obs``) and its serving wiring.

Units first — span nesting, cross-thread propagation, stage aggregates,
Prometheus rendering, structured logs, the profiling reducer — then two
end-to-end layers against real sockets: a single-process ``ServingServer``
(trace header, ``/metrics.prom``, queue-wait percentiles, JSON request
logs) and a two-worker prefork fleet, where one request must come back as
ONE trace whose worker-recorded spans were shipped over the pipe and
re-parented on the front end.  Worker crash (SIGKILL) mid-traffic must
never corrupt the front-end trace buffer, and spans recorded after the
supervisor restarts the worker must carry the new pid in their worker tag.
"""

from __future__ import annotations

import http.client
import io
import json
import os
import signal
import threading
import time

import pytest

from repro.obs import (
    COVERAGE_STAGES,
    RequestLogger,
    StageAggregates,
    Tracer,
    profile_predictor,
    render_flame,
    render_prometheus,
    get_tracer,
)
from repro.serving import Predictor, save_model, serve_in_thread
from repro.serving.fleet import ServingFleet
from repro.tables import Column, Table

TIMEOUT = 30


def request(port, method, path, payload=None):
    """One HTTP request; returns (status, json body, response headers)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT)
    try:
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        connection.request(
            method, path, body=body, headers={"Content-Type": "application/json"}
        )
        reply = connection.getresponse()
        raw = reply.read()
        content_type = reply.getheader("Content-Type", "")
        parsed = raw.decode("utf-8")
        if content_type.startswith("application/json"):
            parsed = json.loads(parsed)
        return reply.status, parsed, dict(reply.getheaders())
    finally:
        connection.close()


# ------------------------------------------------------------------ tracer


class TestTracer:
    def test_nesting_follows_the_code(self):
        tracer = Tracer()
        with tracer.span("request") as root:
            with tracer.span("featurize") as outer:
                with tracer.span("featurize.char") as inner:
                    pass
            with tracer.span("decode") as sibling:
                pass
        spans = {span.name: span for span in tracer.trace(root.trace_id)}
        assert set(spans) == {"request", "featurize", "featurize.char", "decode"}
        assert spans["featurize"].parent_id == root.span_id
        assert spans["featurize.char"].parent_id == outer.span_id
        assert spans["decode"].parent_id == root.span_id
        assert inner.trace_id == sibling.trace_id == root.trace_id
        assert root.duration >= outer.duration >= inner.duration >= 0.0

    def test_attach_carries_a_trace_across_threads(self):
        tracer = Tracer()
        recorded = {}

        def worker(context):
            token = tracer.attach(tuple(context))  # wire form: plain tuple
            try:
                with tracer.span("forward") as span:
                    recorded["span"] = span
            finally:
                tracer.detach(token)
            recorded["after"] = tracer.current()

        with tracer.span("request") as root:
            thread = threading.Thread(target=worker, args=(root.context(),))
            thread.start()
            thread.join()
        assert recorded["span"].trace_id == root.trace_id
        assert recorded["span"].parent_id == root.span_id
        assert recorded["after"] is None  # detach restored the blank context

    def test_take_removes_one_trace_and_adopt_restores_it(self):
        worker_side, front_side = Tracer(), Tracer()
        with worker_side.span("worker.batch") as batch:
            pass
        with worker_side.span("unrelated"):
            pass
        wire = worker_side.take(batch.trace_id)
        assert [w[3] for w in wire] == ["worker.batch"]
        assert worker_side.trace(batch.trace_id) == []  # shipped exactly once
        assert [s.name for s in worker_side.spans()] == ["unrelated"]

        adopted = front_side.adopt(wire, worker="w1:4242")
        assert [span.worker for span in adopted] == ["w1:4242"]
        merged = front_side.trace(batch.trace_id)
        assert [span.name for span in merged] == ["worker.batch"]
        assert merged[0].span_id == batch.span_id  # identity survives the wire

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("request") as handle:
            handle.meta = {"still": "writable"}  # the shared no-op handle
        assert tracer.spans() == []
        assert tracer.stages.snapshot() == {}

    def test_span_buffer_is_bounded(self):
        tracer = Tracer(max_spans=4)
        for i in range(10):
            with tracer.span(f"s{i}"):
                pass
        assert [span.name for span in tracer.spans()] == ["s6", "s7", "s8", "s9"]


class TestStageAggregates:
    def test_share_is_relative_to_the_request_root(self):
        stages = StageAggregates(window=8)
        for _ in range(4):
            stages.observe("request", 0.010)
            stages.observe("forward", 0.004)
        snap = stages.snapshot()
        assert snap["forward"]["share"] == pytest.approx(0.4)
        assert snap["request"]["share"] == pytest.approx(1.0)
        assert list(snap) == ["request", "forward"]  # sorted by total time

    def test_percentiles_track_the_bounded_window_only(self):
        stages = StageAggregates(window=4)
        for seconds in (1.0, 1.0, 1.0, 0.002, 0.002, 0.002, 0.002):
            stages.observe("decode", seconds)
        snap = stages.snapshot()["decode"]
        assert snap["count"] == 7  # cumulative count keeps everything
        assert snap["window"] == 4
        assert snap["p99_ms"] == pytest.approx(2.0)  # old 1s spikes evicted


# ------------------------------------------------- prometheus + request logs


class TestPrometheusRendering:
    def test_real_shape_renders_grouped_gauges(self):
        text = render_prometheus(
            {
                "uptime_seconds": 12.5,
                "requests": {"completed": 3, "rejected": 0},
                "draining": False,
                "model_version": "v0001",  # strings are skipped
                "stages": {
                    "request": {"count": 3, "p99_ms": 4.0},
                    "forward": {"count": 3, "p99_ms": 1.0},
                },
            }
        )
        lines = text.splitlines()
        assert "repro_uptime_seconds 12.5" in lines
        assert "repro_requests_completed 3.0" in lines
        assert "repro_draining 0" in lines
        assert 'repro_stage_p99_ms{stage="request"} 4.0' in lines
        assert 'repro_stage_p99_ms{stage="forward"} 1.0' in lines
        assert not any("v0001" in line for line in lines)
        # Both stage samples sit in one group directly under their TYPE line.
        start = lines.index("# TYPE repro_stage_p99_ms gauge")
        assert lines[start + 1].startswith("repro_stage_p99_ms{")
        assert lines[start + 2].startswith("repro_stage_p99_ms{")

    def test_label_values_are_escaped(self):
        text = render_prometheus({"stages": {'a"b\\c': {"count": 1}}})
        assert 'stage="a\\"b\\\\c"' in text


class TestRequestLogger:
    def test_one_json_line_per_event(self):
        buffer = io.StringIO()
        logger = RequestLogger(stream=buffer)
        logger.log("request", clock=lambda: 1.0, trace_id="t1", status=200)
        logger.log("request", clock=lambda: 2.0, trace_id="t2", status=400)
        records = [json.loads(line) for line in buffer.getvalue().splitlines()]
        assert [r["trace_id"] for r in records] == ["t1", "t2"]
        assert records[0]["ts"] == 1.0 and records[1]["status"] == 400

    def test_disabled_logger_writes_nothing(self):
        buffer = io.StringIO()
        RequestLogger(stream=buffer, enabled=False).log("request", status=200)
        assert buffer.getvalue() == ""

    def test_unserialisable_fields_degrade_to_repr(self):
        buffer = io.StringIO()
        RequestLogger(stream=buffer).log("request", weird={1, 2})
        assert json.loads(buffer.getvalue())["weird"] == repr({1, 2})


# ---------------------------------------------------------------- profiling


class _SleepyPredictor:
    """Deterministic stand-in: every stage sleeps a known amount.

    The stages sit at least 10 ms apart, so a scheduler oversleep on a
    loaded host cannot flip their order.
    """

    def predict_tables(self, tables):
        tracer = get_tracer()
        with tracer.span("featurize"):
            time.sleep(0.030)
        with tracer.span("forward"):
            time.sleep(0.015)
        with tracer.span("decode"):
            with tracer.span("decode.viterbi"):
                time.sleep(0.004)
        return [["name"] * table.n_columns for table in tables]


class TestProfileReport:
    def test_report_shape_shares_and_tree(self):
        table = Table(columns=[Column(values=["x", "y"]), Column(values=["z"])])
        report = profile_predictor(_SleepyPredictor(), [table] * 6, batch_size=2)
        assert report["n_tables"] == 6 and report["n_columns"] == 12
        assert set(report["stage_shares"]) <= set(COVERAGE_STAGES)
        # Sleeps dominate this fake, so the accounting must be near-total.
        assert report["coverage"] > 0.9
        shares = report["stage_shares"]
        assert shares["featurize"] > shares["forward"] > shares["decode"]
        tree = report["tree"]
        assert tree["request"] is None
        assert tree["featurize"] == "request"
        assert tree["decode.viterbi"] == "decode"

    def test_flame_table_renders_every_stage_row(self):
        table = Table(columns=[Column(values=["x"])])
        report = profile_predictor(_SleepyPredictor(), [table] * 2, batch_size=1)
        text = render_flame(report)
        lines = text.splitlines()
        assert lines[0].startswith("stage")
        assert lines[-1].startswith("coverage:")
        for name in ("request", "featurize", "forward", "decode.viterbi"):
            assert any(name in line for line in lines), text
        # Nesting shows as indentation: decode.viterbi sits under decode.
        viterbi = next(line for line in lines if "decode.viterbi" in line)
        decode = next(line for line in lines if line.lstrip().startswith("decode "))
        indent = lambda line: len(line) - len(line.lstrip())
        assert indent(viterbi) > indent(decode)


# ------------------------------------------------- single-process server e2e


@pytest.fixture(scope="module")
def obs_server(trained_base):
    predictor = Predictor(trained_base, cache_size=1024)
    with serve_in_thread(
        predictor, port=0, max_batch_size=8, max_wait_ms=5.0, log_format="json"
    ) as handle:
        yield handle
    predictor.close()


def _predict_body(path, table):
    """A one-table body for either predict endpoint (``table``: any JSON)."""
    if path == "/v1/predict_batch":
        return {"tables": [table]}
    return {"table": table}


class TestServerObservability:
    def test_predict_returns_trace_header_and_a_complete_trace(
        self, obs_server, serving_split
    ):
        self.check_complete_trace(obs_server, serving_split, "/v1/predict")

    def test_predict_batch_returns_trace_header_and_a_complete_trace(
        self, obs_server, serving_split
    ):
        self.check_complete_trace(obs_server, serving_split, "/v1/predict_batch")

    @staticmethod
    def check_complete_trace(obs_server, serving_split, path):
        _, test = serving_split
        status, _, headers = request(
            obs_server.port, "POST", path, _predict_body(path, test[0].to_dict())
        )
        assert status == 200
        trace_id = headers["X-Trace-Id"]
        names = {span.name for span in get_tracer().trace(trace_id)}
        # One trace covers admission to encode, through the dispatch thread.
        for stage in (
            "request",
            "request.parse",
            "batch.predict",
            "featurize",
            "forward",
            "decode",
            "encode.json",
        ):
            assert stage in names, (stage, sorted(names))

    def test_metrics_exposes_stage_aggregates_and_queue_waits(
        self, obs_server, serving_split
    ):
        _, test = serving_split
        request(obs_server.port, "POST", "/v1/predict", {"table": test[0].to_dict()})
        status, metrics, _ = request(obs_server.port, "GET", "/metrics")
        assert status == 200
        stages = metrics["stages"]
        assert stages["request"]["count"] >= 1
        assert stages["forward"]["p95_ms"] >= 0.0
        assert 0.0 < stages["forward"]["share"] <= 1.0
        waits = metrics["queue_wait_ms"]
        assert waits["window"] >= 1
        assert 0.0 <= waits["p50"] <= waits["p99"] <= metrics["latency_ms"]["p99"]

    def test_healthz_reports_uptime_and_wall_clock_start(self, obs_server):
        before = time.time()
        status, health, _ = request(obs_server.port, "GET", "/healthz")
        assert status == 200
        assert health["uptime_seconds"] > 0.0
        assert 0.0 < health["started_at"] <= before

    def test_metrics_prom_is_scrapable_text(self, obs_server, serving_split):
        _, test = serving_split
        request(obs_server.port, "POST", "/v1/predict", {"table": test[0].to_dict()})
        status, text, headers = request(obs_server.port, "GET", "/metrics.prom")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain")
        assert isinstance(text, str)
        lines = text.splitlines()
        assert any(line.startswith("repro_uptime_seconds ") for line in lines)
        assert any(line.startswith("repro_latency_ms_p99 ") for line in lines)
        assert any(line.startswith('repro_stage_p50_ms{stage="request"}') for line in lines)
        for line in lines:
            assert line.startswith("#") or line.startswith("repro_"), line

    def test_json_request_log_carries_trace_and_outcome(
        self, obs_server, serving_split
    ):
        ok = self.check_request_log(obs_server, serving_split, "/v1/predict")
        assert ok["batch_size"] >= 1

    def test_predict_batch_json_request_log_carries_trace_and_outcome(
        self, obs_server, serving_split
    ):
        ok = self.check_request_log(obs_server, serving_split, "/v1/predict_batch")
        assert ok["n_tables"] == 1

    @staticmethod
    def check_request_log(obs_server, serving_split, path):
        """Log one good and one malformed request; returns the ``ok`` record."""
        _, test = serving_split
        buffer = io.StringIO()
        obs_server.server.logger.stream = buffer
        try:
            status, _, headers = request(
                obs_server.port, "POST", path, _predict_body(path, test[0].to_dict())
            )
            request(obs_server.port, "POST", path, _predict_body(path, 3))
        finally:
            obs_server.server.logger.stream = io.StringIO()
        assert status == 200
        records = [json.loads(line) for line in buffer.getvalue().splitlines()]
        assert all("outcome" in record for record in records), records
        ok = next(r for r in records if r.get("outcome") == "ok")
        assert ok["trace_id"] == headers["X-Trace-Id"]
        assert ok["status"] == 200 and ok["method"] == "POST"
        assert ok["path"] == path
        assert ok["n_columns"] == test[0].n_columns and ok["duration_ms"] > 0.0
        bad = next(r for r in records if r.get("outcome") == "malformed")
        assert bad["status"] == 400
        return ok


# --------------------------------------------------------------- fleet e2e


@pytest.fixture(scope="module")
def obs_bundle(tmp_path_factory, trained_base):
    return save_model(trained_base, tmp_path_factory.mktemp("obs-fleet") / "bundle")


@pytest.fixture(scope="module")
def obs_fleet_server(obs_bundle):
    fleet = ServingFleet(2, bundle_path=obs_bundle, max_wait_ms=5.0, max_queue=64)
    with serve_in_thread(fleet, port=0, batcher=fleet) as handle:
        yield handle


def _worker_spans(trace_id):
    return [s for s in get_tracer().trace(trace_id) if s.worker is not None]


class TestFleetTraceAssembly:
    def test_one_request_yields_one_reassembled_trace(
        self, obs_fleet_server, serving_split
    ):
        _, test = serving_split
        status, _, headers = request(
            obs_fleet_server.port, "POST", "/v1/predict", {"table": test[0].to_dict()}
        )
        assert status == 200
        trace_id = headers["X-Trace-Id"]
        spans = get_tracer().trace(trace_id)
        by_name = {span.name: span for span in spans}
        # Front-end spans and worker-recorded spans, one trace ID.
        for stage in (
            "request",
            "route",
            "worker.batch",
            "featurize",
            "forward",
            "decode",
            "encode.json",
        ):
            assert stage in by_name, (stage, sorted(by_name))
        assert all(span.trace_id == trace_id for span in spans)
        # The worker half was re-parented under this request: worker.batch's
        # parent is the request span itself, and the pipeline stages hang
        # off worker.batch.
        assert by_name["worker.batch"].parent_id == by_name["request"].span_id
        assert by_name["featurize"].parent_id == by_name["worker.batch"].span_id
        # Adopted spans carry the wid:pid tag of a live fleet worker.
        _, health, _ = request(obs_fleet_server.port, "GET", "/healthz")
        live = {
            f"{worker['worker']}:{worker['pid']}"
            for worker in health["fleet"]["workers"]
        }
        tags = {span.worker for span in spans if span.worker is not None}
        assert tags and tags <= live

    def test_fleet_metrics_merge_worker_stage_aggregates(
        self, obs_fleet_server, serving_split
    ):
        _, test = serving_split
        for table in test[:3]:
            request(
                obs_fleet_server.port,
                "POST",
                "/v1/predict",
                {"table": table.to_dict()},
            )
        status, metrics, _ = request(obs_fleet_server.port, "GET", "/metrics")
        assert status == 200
        assert metrics["queue_wait_ms"]["window"] >= 1
        per_worker = [w["stages"] for w in metrics["fleet"]["workers"] if "stages" in w]
        assert per_worker and any("forward" in stages for stages in per_worker)

    def test_sigkill_mid_traffic_never_corrupts_front_end_traces(
        self, obs_fleet_server, serving_split
    ):
        _, test = serving_split
        status, _, headers = request(
            obs_fleet_server.port, "POST", "/v1/predict", {"table": test[0].to_dict()}
        )
        assert status == 200
        surviving_trace = headers["X-Trace-Id"]
        before = {s.span_id: s.name for s in get_tracer().trace(surviving_trace)}

        _, health, _ = request(obs_fleet_server.port, "GET", "/healthz")
        victim = health["fleet"]["workers"][0]["pid"]
        os.kill(victim, signal.SIGKILL)

        # Hammer requests across the crash + restart window: every reply is
        # either served (200) or honestly refused, never a broken trace.
        deadline = time.monotonic() + TIMEOUT
        recovered = False
        while time.monotonic() < deadline:
            status, _, headers = request(
                obs_fleet_server.port,
                "POST",
                "/v1/predict",
                {"table": test[1].to_dict()},
            )
            assert status in (200, 429, 500, 503)
            if status == 200:
                spans = get_tracer().trace(headers["X-Trace-Id"])
                assert {s.name for s in spans} >= {"request", "route"}
            _, health, _ = request(obs_fleet_server.port, "GET", "/healthz")
            fleet = health["fleet"]
            if fleet["alive"] == 2 and fleet["restarts"] >= 1 and status == 200:
                recovered = True
                break
            time.sleep(0.05)
        assert recovered
        # The pre-crash trace is byte-for-byte what it was: no span lost,
        # none re-written by the dying worker's half-shipped state.
        after = {s.span_id: s.name for s in get_tracer().trace(surviving_trace)}
        assert after == before

    def test_restarted_worker_spans_carry_the_new_pid(
        self, obs_fleet_server, serving_split
    ):
        # Runs after the SIGKILL test restarted a worker (module-scoped
        # fixture), but re-checks the restart invariant independently so
        # ordering only affects coverage, not correctness.
        _, test = serving_split
        _, health, _ = request(obs_fleet_server.port, "GET", "/healthz")
        live = {
            f"{worker['worker']}:{worker['pid']}"
            for worker in health["fleet"]["workers"]
        }
        dead_pids = set()
        for table in test[:4]:
            status, _, headers = request(
                obs_fleet_server.port,
                "POST",
                "/v1/predict",
                {"table": table.to_dict()},
            )
            if status != 200:
                continue
            for span in _worker_spans(headers["X-Trace-Id"]):
                assert span.worker in live
                dead_pids.add(span.worker)
        assert dead_pids  # at least one traced batch landed on a live worker
