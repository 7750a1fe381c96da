"""Asyncio HTTP front end for online serving (stdlib only).

:class:`ServingServer` exposes a :class:`~repro.serving.Predictor` over a
minimal HTTP/1.1 endpoint backed by the
:class:`~repro.serving.scheduler.MicroBatcher`:

* ``POST /v1/predict`` — one table in, per-column labels out,
* ``POST /v1/predict_batch`` — many tables in one request (each table is
  admitted to the micro-batch queue individually, so they coalesce with
  concurrent traffic),
* ``GET /healthz`` — liveness + drain state,
* ``GET /metrics`` — the :class:`~repro.serving.scheduler.ServingMetrics`
  snapshot plus the predictor's cache and batch counters,
* ``GET /v1/admin/status`` — serving model identity (name / version /
  fingerprint), uptime and hot-swap count,
* ``POST /v1/admin/reload`` — zero-downtime hot swap: load a model (from
  the registry in registry mode, or by re-reading the bundle directory)
  and swap it into the predictor while traffic keeps flowing,
* ``POST /v1/admin/shadow`` — start/stop mirroring a fraction of live
  traffic to a candidate registry version
  (:class:`~repro.registry.ShadowEvaluator`).

In **registry mode** the server is bound to a
:class:`~repro.registry.ModelRegistry` name instead of a fixed bundle: it
serves the promoted version, and (when a watch interval is set) polls the
registry's promotion pointer, hot-swapping automatically when an operator
promotes or rolls back.  Every response carries an ``X-Model-Version``
header; predict responses carry the version that *actually served them*,
captured under the predictor's swap lock, so during a swap clients can
attribute each answer to the right model.

Request/response schemas, curl examples and the error-code contract are
documented in ``docs/http_api.md``; tuning guidance lives in
``docs/operations.md``.  The server is deliberately hand-rolled on
``asyncio.start_server`` — one connection per request, ``Connection:
close`` — because the repo's no-new-dependencies rule rules out real web
frameworks, and the serving hot path is the model, not the socket.

Shutdown is two-phase so a load balancer can react: :meth:`begin_drain`
flips ``/healthz`` to ``draining`` and makes predict endpoints return
``503`` while in-flight work completes; :meth:`stop` then drains the
scheduler queue and closes the listener.  For tests, scripts and notebooks,
:func:`serve_in_thread` runs the whole server on a background event loop
and returns a handle with synchronous lifecycle methods.
"""

from __future__ import annotations

import asyncio
import json
import threading
from typing import Sequence

from repro.obs import RequestLogger, get_tracer, render_prometheus
from repro.serving.scheduler import (
    DEFAULT_MAX_BATCH_SIZE,
    DEFAULT_MAX_QUEUE,
    DEFAULT_MAX_WAIT_MS,
    DrainingError,
    MicroBatcher,
    QueueFullError,
    ServingMetrics,
)
from repro.tables import Table

__all__ = ["MalformedRequest", "ServerHandle", "ServingServer", "serve_in_thread"]

#: Largest accepted request body; bigger payloads are refused with 413.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Hard ceiling on reading one request (connect to end of body).  Idle or
#: drip-feeding connections are cut off with 400 instead of pinning a
#: connection-handler task forever.
READ_TIMEOUT_SECONDS = 30.0

#: Hard ceiling on header lines per request (no legitimate client is close).
MAX_HEADER_LINES = 128

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class MalformedRequest(ValueError):
    """A request body that cannot be turned into tables (HTTP 400)."""


class _PlainText(str):
    """Marker payload: already rendered, sent as ``text/plain`` verbatim."""


def _normalize_reply(reply) -> tuple[int, object, dict, dict]:
    """Expand a handler reply into ``(status, payload, headers, log fields)``.

    Handlers return 2-tuples (status, payload), 3-tuples adding response
    headers, or 4-tuples adding structured-log fields.
    """
    status, payload = reply[0], reply[1]
    headers = reply[2] if len(reply) > 2 else {}
    fields = reply[3] if len(reply) > 3 else {}
    return status, payload, headers, fields


def _parse_table(payload, where: str) -> Table:
    """Validate one JSON table object and build a :class:`Table` from it.

    Examples:
        >>> table = _parse_table({"columns": [{"values": ["a", "b"]}]}, "table")
        >>> table.n_columns
        1
        >>> try:
        ...     _parse_table({"columns": "nope"}, "table")
        ... except MalformedRequest as error:
        ...     print(error)
        table.columns must be a list
    """
    if not isinstance(payload, dict):
        raise MalformedRequest(f"{where} must be an object")
    columns = payload.get("columns")
    if not isinstance(columns, list):
        raise MalformedRequest(f"{where}.columns must be a list")
    for index, column in enumerate(columns):
        if not isinstance(column, dict):
            raise MalformedRequest(f"{where}.columns[{index}] must be an object")
        values = column.get("values")
        if not isinstance(values, list):
            raise MalformedRequest(
                f"{where}.columns[{index}].values must be a list of strings"
            )
        if not all(
            value is None or isinstance(value, (str, int, float))
            for value in values
        ):
            raise MalformedRequest(
                f"{where}.columns[{index}].values must hold strings or numbers"
            )
    try:
        return Table.from_dict(payload)
    except (TypeError, ValueError, AttributeError) as error:
        raise MalformedRequest(f"{where} is not a valid table: {error}") from error


def _predict_payload(body: bytes) -> Table:
    payload = _decode_json(body)
    if "table" not in payload:
        raise MalformedRequest('body must be {"table": {...}}')
    return _parse_table(payload["table"], "table")


def _predict_batch_payload(body: bytes) -> list[Table]:
    payload = _decode_json(body)
    tables = payload.get("tables")
    if not isinstance(tables, list) or not tables:
        raise MalformedRequest('body must be {"tables": [{...}, ...]} with >= 1 table')
    return [
        _parse_table(table, f"tables[{index}]") for index, table in enumerate(tables)
    ]


def _decode_json(body: bytes) -> dict:
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as error:
        # ValueError covers bad UTF-8, bad JSON and integers past Python's
        # digit limit; RecursionError covers nesting past the scanner's
        # recursion limit.
        raise MalformedRequest(f"body is not valid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise MalformedRequest("body must be a JSON object")
    return payload


def _table_result(
    table: Table, labels: Sequence[str], version: str | None = None
) -> dict:
    result = {
        "table_id": table.table_id,
        "labels": list(labels),
        "n_columns": table.n_columns,
    }
    if version is not None:
        result["model_version"] = version
    return result


class ServingServer:
    """Online serving endpoint: micro-batched predictions over HTTP.

    Parameters
    ----------
    predictor:
        A :class:`~repro.serving.Predictor` (or any object with
        ``predict_tables`` and, optionally, ``cache_info``/``predict_info``
        for ``/metrics``).
    host / port:
        Bind address.  ``port=0`` picks a free port (see :attr:`port`).
    max_batch_size / max_wait_ms / max_queue:
        Micro-batching policy, passed to
        :class:`~repro.serving.scheduler.MicroBatcher`.
    registry / model_name:
        Registry mode: a :class:`~repro.registry.ModelRegistry` plus the
        registered name this server serves.  Enables ``POST
        /v1/admin/reload`` by version, shadow evaluation, and (with
        ``watch_interval``) automatic hot-swap on promote/rollback.
    watch_interval:
        Seconds between promotion-pointer polls in registry mode; None
        disables watching (reloads remain available via the admin API).
    bundle_path:
        Bundle-mode reload source: ``POST /v1/admin/reload`` re-reads this
        directory (for in-place bundle updates without a registry).
    shadow:
        Optional pre-attached :class:`~repro.registry.ShadowEvaluator`;
        normally shadows are started through ``POST /v1/admin/shadow``.
    batcher:
        Optional pre-built scheduler to serve through instead of the
        default :class:`~repro.serving.scheduler.MicroBatcher` — anything
        with the same ``start``/``submit_traced``/``submit_many_versioned``/
        ``drain``/``pending`` surface.  This is how a
        :class:`~repro.serving.fleet.ServingFleet` plugs in: the fleet is
        passed as *both* ``predictor`` (model identity, hot-swap facade)
        and ``batcher`` (request scheduling across worker processes).  An
        injected batcher brings its own ``metrics``; reloads are delegated
        to its ``promote_version``/``reload_bundle`` when it has them, and
        ``/healthz`` + ``/metrics`` pick up its ``health()`` and
        ``fleet_metrics()`` when present.
    """

    def __init__(
        self,
        predictor,
        host: str = "127.0.0.1",
        port: int = 8080,
        max_batch_size: int = DEFAULT_MAX_BATCH_SIZE,
        max_wait_ms: float = DEFAULT_MAX_WAIT_MS,
        max_queue: int = DEFAULT_MAX_QUEUE,
        registry=None,
        model_name: str | None = None,
        watch_interval: float | None = None,
        bundle_path: str | None = None,
        shadow=None,
        batcher=None,
        log_format: str = "text",
    ) -> None:
        if registry is not None and model_name is None:
            raise ValueError("registry mode requires model_name")
        if log_format not in ("text", "json"):
            raise ValueError("log_format must be 'text' or 'json'")
        if watch_interval is not None and watch_interval <= 0:
            raise ValueError("watch_interval must be positive")
        self.predictor = predictor
        self.host = host
        self._requested_port = port
        if batcher is not None:
            self.batcher = batcher
            self.metrics = batcher.metrics
        else:
            self.metrics = ServingMetrics()
            self.batcher = MicroBatcher(
                predictor,
                max_batch_size=max_batch_size,
                max_wait_ms=max_wait_ms,
                max_queue=max_queue,
                metrics=self.metrics,
            )
        self.registry = registry
        self.model_name = model_name
        self.watch_interval = watch_interval
        self.bundle_path = bundle_path
        self.shadow = shadow
        # JSON request logs are opt-in (`serve --log-format json`); the
        # text default keeps the server quiet, as before.
        self.logger = RequestLogger(enabled=log_format == "json")
        self._server: asyncio.base_events.Server | None = None
        self._draining = False
        self._reload_lock: asyncio.Lock | None = None
        self._watch_task: asyncio.Task | None = None
        self._watcher = None
        self._swap_errors = 0

    # ------------------------------------------------------------- lifecycle

    @property
    def port(self) -> int:
        """The actually bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is None:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        """True once :meth:`begin_drain` (or :meth:`stop`) has been called."""
        return self._draining

    async def start(self) -> "ServingServer":
        """Bind the listener and start the micro-batch dispatch loop."""
        await self.batcher.start()
        self._reload_lock = asyncio.Lock()
        self._server = await asyncio.start_server(
            self._handle_connection, host=self.host, port=self._requested_port
        )
        if self.registry is not None and self.watch_interval is not None:
            self._watch_task = asyncio.get_running_loop().create_task(
                self._watch_registry()
            )
        return self

    async def serve_forever(self) -> None:
        """Serve until cancelled (the CLI wraps this with signal handling)."""
        if self._server is None:
            await self.start()
        await self._server.serve_forever()

    async def begin_drain(self) -> None:
        """Phase one of shutdown: refuse new predict work, stay observable.

        ``/healthz`` keeps answering (reporting ``draining``) so a load
        balancer can take the instance out of rotation; predict endpoints
        return ``503`` immediately.
        """
        self._draining = True

    async def stop(self) -> None:
        """Drain the queue, close the listener, release predictor resources."""
        await self.begin_drain()
        if self._watch_task is not None:
            self._watch_task.cancel()
            try:
                await self._watch_task
            except asyncio.CancelledError:
                pass
            self._watch_task = None
        await self.batcher.drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self.shadow is not None:
            shadow, self.shadow = self.shadow, None
            await asyncio.get_running_loop().run_in_executor(None, shadow.close)
        close = getattr(self.predictor, "close", None)
        if close is not None:
            close()

    # ------------------------------------------------------------- hot swap

    async def _watch_registry(self) -> None:
        """Poll the registry promotion pointer; hot-swap on change.

        Runs as a background task in registry-watch mode, driving a
        :class:`~repro.registry.RegistryWatcher`.  Before every poll the
        watcher's baseline is re-synced to the *predictor's live version*,
        so the server converges to the promoted version even when admin
        reloads moved the predictor somewhere else in between.  Errors (a
        swap that fails to load, a briefly unreadable registry) are
        counted and survived — the watcher must never take serving down.
        """
        from repro.registry import RegistryWatcher

        self._watcher = RegistryWatcher(self.registry, self.model_name)
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.watch_interval)
            self._watcher.resync(getattr(self.predictor, "model_version", None))
            promoted = await loop.run_in_executor(None, self._watcher.poll)
            if promoted is None:
                continue
            try:
                await self._swap_to_version(promoted)
            except Exception:
                self._swap_errors += 1

    async def _swap_to_version(self, version: str | None) -> dict:
        """Load a registry version and hot-swap it into the predictor.

        Loading (disk + integrity check) and the swap run in the default
        executor so the event loop keeps answering health checks; the
        reload lock serializes concurrent admin reloads and watcher swaps.
        A batcher that knows how to converge itself (a
        :class:`~repro.serving.fleet.ServingFleet`'s two-phase
        ``promote_version``) is delegated to instead — the fleet owns the
        swap protocol across its worker processes.
        """
        loop = asyncio.get_running_loop()
        async with self._reload_lock:
            promote = getattr(self.batcher, "promote_version", None)
            if promote is not None:
                return await promote(version)

            def load_and_swap() -> dict:
                model, info = self.registry.load(self.model_name, version)
                return self.predictor.swap_model(
                    model, model_name=info.name, model_version=info.version
                )

            return await loop.run_in_executor(None, load_and_swap)

    async def _reload_bundle(self) -> dict:
        """Bundle-mode reload: re-read the bundle directory and swap."""
        from repro.serving.bundle import load_model

        loop = asyncio.get_running_loop()
        async with self._reload_lock:
            reload_fleet = getattr(self.batcher, "reload_bundle", None)
            if reload_fleet is not None:
                return await reload_fleet()

            def load_and_swap() -> dict:
                model = load_model(self.bundle_path)
                return self.predictor.swap_model(model)

            return await loop.run_in_executor(None, load_and_swap)

    # ----------------------------------------------------------------- wire

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        tracer = get_tracer()
        # The request span is the trace root: minted at admission, it
        # covers read, routing (including the micro-batch queue wait and
        # the model batch, whose spans parent under it) and the response
        # encode.  Its trace ID is echoed in the X-Trace-Id header.
        with tracer.span("request") as request_span:
            try:
                reply = await self._handle_request(reader)
                status, payload, extra_headers, log_fields = _normalize_reply(reply)
            except Exception:  # defensive: a handler bug must not kill the server
                status, payload = 500, {"error": "internal server error"}
                extra_headers, log_fields = {}, {}
            # Every response names the serving model version; predict
            # handlers override this with the version that served them.
            if "X-Model-Version" not in extra_headers:
                version = getattr(self.predictor, "model_version", None)
                if version is not None:
                    extra_headers["X-Model-Version"] = str(version)
            if request_span.trace_id:
                extra_headers.setdefault("X-Trace-Id", request_span.trace_id)
            if isinstance(payload, _PlainText):
                body = str(payload).encode("utf-8")
                content_type = "text/plain; charset=utf-8"
            else:
                with tracer.span("encode.json"):
                    body = (json.dumps(payload) + "\n").encode("utf-8")
                content_type = "application/json"
        self.logger.log(
            "request",
            trace_id=request_span.trace_id or None,
            status=status,
            duration_ms=request_span.duration * 1e3,
            **log_fields,
        )
        extra = "".join(f"{name}: {value}\r\n" for name, value in extra_headers.items())
        headers = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"{extra}"
            "Connection: close\r\n"
            "\r\n"
        ).encode("ascii")
        try:
            writer.write(headers + body)
            await writer.drain()
        except (ConnectionError, BrokenPipeError):
            pass  # client went away; nothing to tell it
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass

    async def _handle_request(self, reader: asyncio.StreamReader):
        # Reading the request is bounded in time, header count and body
        # size; every framing problem is answered with an explicit 4xx
        # (500 is reserved for the model failing).  Routing — which
        # includes queueing for the model — is deliberately outside the
        # read timeout.
        try:
            parsed = await asyncio.wait_for(
                self._read_request(reader), timeout=READ_TIMEOUT_SECONDS
            )
        except asyncio.TimeoutError:
            return 400, {"error": "request read timed out"}
        except asyncio.IncompleteReadError:
            return 400, {"error": "body shorter than Content-Length"}
        except (ConnectionError, asyncio.LimitOverrunError, ValueError):
            # ValueError covers StreamReader's line-length limit overruns.
            return 400, {"error": "unreadable request"}
        if isinstance(parsed, tuple) and len(parsed) == 2:
            return parsed  # an error (status, payload) from the read phase
        method, path, body = parsed
        status, payload, headers, fields = _normalize_reply(
            await self._route(method, path, body)
        )
        fields.setdefault("method", method)
        fields.setdefault("path", path)
        return status, payload, headers, fields

    async def _read_request(self, reader: asyncio.StreamReader):
        """Read one request; returns (method, path, body) or (status, error)."""
        request_line = await reader.readline()
        parts = request_line.decode("latin-1").split()
        if len(parts) < 2:
            return 400, {"error": "malformed request line"}
        method, path = parts[0].upper(), parts[1].split("?", 1)[0]

        content_length = 0
        for _ in range(MAX_HEADER_LINES):
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return 400, {"error": "invalid Content-Length"}
                if content_length < 0:
                    return 400, {"error": "invalid Content-Length"}
        else:
            return 400, {"error": f"more than {MAX_HEADER_LINES} header lines"}
        if content_length > MAX_BODY_BYTES:
            return 413, {"error": f"body exceeds {MAX_BODY_BYTES} bytes"}
        body = await reader.readexactly(content_length) if content_length else b""
        return method, path, body

    # -------------------------------------------------------------- routing

    async def _route(self, method: str, path: str, body: bytes):
        if path == "/healthz":
            if method != "GET":
                return 405, {"error": "use GET"}
            return 200, self._health()
        if path == "/metrics":
            if method != "GET":
                return 405, {"error": "use GET"}
            return 200, await self._metrics()
        if path == "/metrics.prom":
            if method != "GET":
                return 405, {"error": "use GET"}
            return 200, _PlainText(render_prometheus(await self._metrics()))
        if path == "/v1/predict":
            if method != "POST":
                return 405, {"error": "use POST"}
            return await self._predict(body)
        if path == "/v1/predict_batch":
            if method != "POST":
                return 405, {"error": "use POST"}
            return await self._predict_batch(body)
        if path == "/v1/admin/status":
            if method != "GET":
                return 405, {"error": "use GET"}
            return 200, self._admin_status()
        if path == "/v1/admin/reload":
            if method != "POST":
                return 405, {"error": "use POST"}
            return await self._admin_reload(body)
        if path == "/v1/admin/shadow":
            if method != "POST":
                return 405, {"error": "use POST"}
            return await self._admin_shadow(body)
        return 404, {"error": f"unknown path {path}"}

    def _health(self) -> dict:
        snapshot = self.metrics.snapshot()
        health = {
            "status": "draining" if self._draining else "ok",
            "draining": self._draining,
            "pending": self.batcher.pending,
            "uptime_seconds": snapshot["uptime_seconds"],
            "started_at": snapshot["started_at"],
        }
        fleet_health = getattr(self.batcher, "health", None)
        if fleet_health is not None:
            fleet = fleet_health()
            health["fleet"] = fleet
            # A fleet with zero live workers cannot serve: a load balancer
            # should see that on /healthz, not discover it via 500s.
            if fleet.get("alive", 1) == 0 and not self._draining:
                health["status"] = "unhealthy"
        return health

    async def _metrics(self) -> dict:
        snapshot = self.metrics.snapshot()
        cache_info = getattr(self.predictor, "cache_info", None)
        if cache_info is not None:
            cache = cache_info()
            lookups = cache.get("hits", 0) + cache.get("misses", 0)
            cache["hit_rate"] = cache.get("hits", 0) / lookups if lookups else 0.0
            snapshot["cache"] = cache
        predict_info = getattr(self.predictor, "predict_info", None)
        if predict_info is not None:
            snapshot["predictor"] = predict_info()
        if self.shadow is not None:
            snapshot["shadow"] = self.shadow.snapshot()
        fleet_metrics = getattr(self.batcher, "fleet_metrics", None)
        if fleet_metrics is not None:
            snapshot["fleet"] = await fleet_metrics()
        # Always-on per-stage aggregates from the process tracer (for a
        # fleet these include worker spans re-parented on this front end).
        snapshot["stages"] = get_tracer().stages.snapshot()
        snapshot["policy"] = {
            "max_batch_size": self.batcher.max_batch_size,
            "max_wait_ms": self.batcher.max_wait_ms,
            "max_queue": self.batcher.max_queue,
        }
        return snapshot

    def _admin_status(self) -> dict:
        snapshot = self.metrics.snapshot()
        status = {
            "model": {
                "name": getattr(self.predictor, "model_name", None),
                "version": getattr(self.predictor, "model_version", None),
                "fingerprint": getattr(self.predictor, "fingerprint", None),
            },
            "uptime_seconds": snapshot["uptime_seconds"],
            "swap_count": getattr(self.predictor, "swap_count", 0),
            "draining": self._draining,
            "registry": None,
            "shadow": self.shadow.snapshot() if self.shadow is not None else None,
        }
        if self.registry is not None:
            poll_errors = self._watcher.errors if self._watcher is not None else 0
            status["registry"] = {
                "root": str(self.registry.root),
                "model_name": self.model_name,
                "watch_interval": self.watch_interval,
                "watching": self._watch_task is not None,
                "watch_errors": poll_errors + self._swap_errors,
            }
        return status

    async def _admin_reload(self, body: bytes) -> tuple[int, dict]:
        if self._draining:
            return 503, {"error": "server is draining"}
        try:
            payload = _decode_json(body) if body else {}
        except MalformedRequest as error:
            return 400, {"error": str(error)}
        version = payload.get("version")
        if version is not None and not isinstance(version, str):
            return 400, {"error": "version must be a string"}
        try:
            if self.registry is not None:
                result = await self._swap_to_version(version)
            elif self.bundle_path is not None:
                if version is not None:
                    return 400, {
                        "error": "version requires registry mode "
                        "(serve --registry/--model-name)"
                    }
                result = await self._reload_bundle()
            else:
                return 400, {
                    "error": "no reload source: server was started without "
                    "a registry or a bundle path"
                }
        except Exception as error:
            return 500, {"error": f"reload failed: {error}"}
        return 200, {"reloaded": True, **result}

    async def _admin_shadow(self, body: bytes) -> tuple[int, dict]:
        try:
            payload = _decode_json(body) if body else {}
        except MalformedRequest as error:
            return 400, {"error": str(error)}
        if payload.get("stop"):
            if self.shadow is not None:
                shadow, self.shadow = self.shadow, None
                loop = asyncio.get_running_loop()
                await loop.run_in_executor(None, shadow.close)
                return 200, {"shadow": None, "stopped": shadow.snapshot()}
            return 200, {"shadow": None, "stopped": None}
        if self.registry is None:
            return 400, {"error": "shadow evaluation requires registry mode"}
        version = payload.get("version")
        if not isinstance(version, str):
            return 400, {
                "error": 'body must be {"version": "vNNNN", ...} or {"stop": true}'
            }
        fraction = payload.get("fraction", 0.1)
        if not isinstance(fraction, (int, float)) or not 0.0 <= fraction <= 1.0:
            return 400, {"error": "fraction must be a number in [0, 1]"}
        from repro.registry import ShadowEvaluator
        from repro.serving.predictor import Predictor

        loop = asyncio.get_running_loop()
        try:
            candidate = await loop.run_in_executor(
                None,
                lambda: Predictor.from_registry(
                    self.registry, self.model_name, version=version
                ),
            )
        except Exception as error:
            return 400, {"error": f"cannot load candidate {version}: {error}"}
        new_shadow = ShadowEvaluator(
            candidate, fraction=float(fraction), version=version
        )
        old_shadow, self.shadow = self.shadow, new_shadow
        if old_shadow is not None:
            await loop.run_in_executor(None, old_shadow.close)
        return 200, {"shadow": new_shadow.snapshot()}

    def _mirror_to_shadow(self, table: Table, labels: Sequence[str]) -> None:
        """Hand one served request to the shadow evaluator (never raises)."""
        shadow = self.shadow
        if shadow is None:
            return
        try:
            shadow.submit(table, list(labels))
        except Exception:
            pass  # a broken shadow must never affect the serving path

    async def _predict(self, body: bytes):
        if self._draining:
            self.metrics.record_rejected_draining()
            return 503, {"error": "server is draining"}, {}, {"outcome": "draining"}
        try:
            with get_tracer().span("request.parse"):
                table = _predict_payload(body)
        except MalformedRequest as error:
            self.metrics.record_malformed()
            return 400, {"error": str(error)}, {}, {"outcome": "malformed"}
        try:
            labels, version, info = await self.batcher.submit_traced(table)
        except QueueFullError as error:
            return 429, {"error": str(error)}, {}, {"outcome": "queue_full"}
        except DrainingError as error:
            return 503, {"error": str(error)}, {}, {"outcome": "draining"}
        except Exception as error:
            return 500, {"error": f"prediction failed: {error}"}, {}, {
                "outcome": "error"
            }
        self._mirror_to_shadow(table, labels)
        headers = {"X-Model-Version": str(version)} if version is not None else {}
        fields = {
            "outcome": "ok",
            "model_version": version,
            "n_columns": table.n_columns,
            "batch_size": info["batch_size"],
            "queue_wait_ms": info["queue_wait"] * 1e3,
        }
        return 200, _table_result(table, labels, version), headers, fields

    async def _predict_batch(self, body: bytes):
        if self._draining:
            self.metrics.record_rejected_draining()
            return 503, {"error": "server is draining"}, {}, {"outcome": "draining"}
        try:
            with get_tracer().span("request.parse"):
                tables = _predict_batch_payload(body)
        except MalformedRequest as error:
            self.metrics.record_malformed()
            return 400, {"error": str(error)}, {}, {"outcome": "malformed"}
        try:
            results = await self.batcher.submit_many_versioned(tables)
        except QueueFullError as error:
            return 429, {"error": str(error)}, {}, {"outcome": "queue_full"}
        except DrainingError as error:
            return 503, {"error": str(error)}, {}, {"outcome": "draining"}
        except Exception as error:
            return 500, {"error": f"prediction failed: {error}"}, {}, {
                "outcome": "error"
            }
        for table, (labels, _version) in zip(tables, results):
            self._mirror_to_shadow(table, labels)
        # Tables of one batch request can straddle a hot swap (they are
        # admitted individually); the header reports the last version seen,
        # each result object carries its own.
        versions = [version for _labels, version in results if version is not None]
        headers = {"X-Model-Version": str(versions[-1])} if versions else {}
        fields = {
            "outcome": "ok",
            "model_version": versions[-1] if versions else None,
            "n_tables": len(tables),
            "n_columns": sum(table.n_columns for table in tables),
        }
        return 200, {
            "results": [
                _table_result(table, labels, version)
                for table, (labels, version) in zip(tables, results)
            ]
        }, headers, fields


class ServerHandle:
    """Synchronous handle to a :class:`ServingServer` on a background loop.

    Returned by :func:`serve_in_thread`; usable as a context manager so
    tests and scripts always shut the server down.
    """

    def __init__(
        self,
        server: ServingServer,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self.server = server
        self._loop = loop
        self._thread = thread

    @property
    def port(self) -> int:
        """The bound port."""
        return self.server.port

    @property
    def base_url(self) -> str:
        """``http://host:port`` of the running server."""
        return f"http://{self.server.host}:{self.server.port}"

    def _call(self, coroutine) -> None:
        asyncio.run_coroutine_threadsafe(coroutine, self._loop).result(timeout=60)

    def begin_drain(self) -> None:
        """Flip the server into draining mode (predicts 503, healthz alive)."""
        self._call(self.server.begin_drain())

    def stop(self) -> None:
        """Drain, close the listener, and stop the background loop."""
        if self._loop.is_closed():
            return
        self._call(self.server.stop())
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=60)
        self._loop.close()

    def __enter__(self) -> "ServerHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def serve_in_thread(
    predictor,
    host: str = "127.0.0.1",
    port: int = 0,
    max_batch_size: int = DEFAULT_MAX_BATCH_SIZE,
    max_wait_ms: float = DEFAULT_MAX_WAIT_MS,
    max_queue: int = DEFAULT_MAX_QUEUE,
    registry=None,
    model_name: str | None = None,
    watch_interval: float | None = None,
    bundle_path: str | None = None,
    shadow=None,
    batcher=None,
    log_format: str = "text",
) -> ServerHandle:
    """Start a :class:`ServingServer` on a background thread's event loop.

    The returned :class:`ServerHandle` exposes the bound port and
    synchronous ``begin_drain``/``stop`` methods, so plain-blocking code
    (tests, notebooks, load generators) can stand up a real socket server
    without touching asyncio.

    Examples:
        >>> class Echo:
        ...     def predict_tables(self, tables):
        ...         return [["t"] * table.n_columns for table in tables]
        >>> import json, urllib.request
        >>> with serve_in_thread(Echo(), port=0) as handle:
        ...     with urllib.request.urlopen(handle.base_url + "/healthz") as reply:
        ...         health = json.load(reply)
        >>> health["status"]
        'ok'
    """
    loop = asyncio.new_event_loop()
    thread = threading.Thread(
        target=loop.run_forever, name="repro-serving", daemon=True
    )
    thread.start()
    server = ServingServer(
        predictor,
        host=host,
        port=port,
        max_batch_size=max_batch_size,
        max_wait_ms=max_wait_ms,
        max_queue=max_queue,
        registry=registry,
        model_name=model_name,
        watch_interval=watch_interval,
        bundle_path=bundle_path,
        shadow=shadow,
        batcher=batcher,
        log_format=log_format,
    )
    try:
        asyncio.run_coroutine_threadsafe(server.start(), loop).result(timeout=60)
    except Exception:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=60)
        loop.close()
        raise
    return ServerHandle(server, loop, thread)
