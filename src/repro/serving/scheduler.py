"""Micro-batching request scheduler for online serving.

One HTTP request carries one table with a handful of columns, but the whole
inference stack — the vectorized featurization engine, the batched column
network forward pass, the masked batch Viterbi decode
(:mod:`repro.models.batched`) — is built around *large* batches.  Serving
each request alone wastes that machinery on per-call Python and NumPy
overhead.  :class:`MicroBatcher` closes the gap: concurrent requests are
coalesced into batches under a ``max_batch_size`` / ``max_wait_ms`` policy
and dispatched together through one shared
:class:`~repro.serving.Predictor` call — end-to-end batched execution, from
featurization through structured decode — so the per-call fixed costs are
amortised across every request that happened to arrive in the same window.

The scheduler also owns the properties an online system needs that a
library call does not:

* **admission control** — the pending queue is bounded (``max_queue``);
  requests beyond the bound fail fast with :class:`QueueFullError` (the
  HTTP layer maps this to ``429``) instead of building an unbounded backlog,
* **graceful drain** — :meth:`MicroBatcher.drain` stops admitting new work
  (:class:`DrainingError` → ``503``), serves everything already queued,
  then shuts the dispatch thread down, so a deploy never drops an accepted
  request,
* **failure isolation** — a batch whose model call raises is split and
  re-run, so one bad table fails only its own request.

Dispatch runs on a single worker thread (predictions are CPU-bound and the
:class:`~repro.serving.Predictor` caches are not thread-safe), which keeps
the asyncio event loop free to answer health checks and admit or reject
traffic while a batch is being served.  Everything after coalescing lives
in :func:`dispatch_batch`, which the fleet's worker processes share.
"""

from __future__ import annotations

import asyncio
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Sequence

from repro.obs import SpanContext, get_tracer
from repro.obs.trace import _percentile
from repro.tables import Table

__all__ = [
    "DEFAULT_MAX_BATCH_SIZE",
    "DEFAULT_MAX_QUEUE",
    "DEFAULT_MAX_WAIT_MS",
    "DrainingError",
    "MicroBatcher",
    "QueueFullError",
    "ServingMetrics",
]

#: The default micro-batching policy, shared by the scheduler, the fleet,
#: the CLI and the serving benchmarks so one edit retunes every entry point
#: consistently.
DEFAULT_MAX_BATCH_SIZE = 32
DEFAULT_MAX_WAIT_MS = 2.0
DEFAULT_MAX_QUEUE = 256


class QueueFullError(RuntimeError):
    """Raised when the pending-request queue is at its admission bound."""


class DrainingError(RuntimeError):
    """Raised when a request arrives while the scheduler is draining."""


def _latency_summary(sorted_values: list[float]) -> dict:
    """The standard window/percentile block for a sorted latency window."""
    return {
        "window": len(sorted_values),
        "p50": _percentile(sorted_values, 0.50) * 1e3,
        "p95": _percentile(sorted_values, 0.95) * 1e3,
        "p99": _percentile(sorted_values, 0.99) * 1e3,
        "mean": (
            (sum(sorted_values) / len(sorted_values) * 1e3) if sorted_values else 0.0
        ),
        "max": (sorted_values[-1] * 1e3) if sorted_values else 0.0,
    }


class ServingMetrics:
    """Counters and latency accounting for the online serving path.

    Request latencies (admission to response) are kept in a bounded window
    so percentiles reflect *recent* traffic; batch sizes are kept as a full
    histogram so the batching policy's behaviour is visible at a glance.
    All numbers are exposed as one JSON-friendly dictionary by
    :meth:`snapshot` — this is exactly what ``GET /metrics`` returns.

    Recording and snapshotting are thread-safe: :func:`dispatch_batch`
    records queue waits, batches, completions and errors from the dispatch
    thread while ``GET /metrics`` snapshots on the event loop, so every
    mutation runs under one internal lock (the contended section is a few
    counter bumps — far too small to show up next to a model forward pass).

    Examples:
        >>> metrics = ServingMetrics(window=4)
        >>> metrics.record_admitted()
        >>> metrics.record_batch(n_tables=1, n_columns=3, seconds=0.004)
        >>> metrics.record_request(latency_seconds=0.005)
        >>> metrics.record_rejected_queue_full()
        >>> snap = metrics.snapshot()
        >>> snap["requests"]["completed"], snap["requests"]["rejected_queue_full"]
        (1, 1)
        >>> snap["batches"]["size_histogram"]
        {'1': 1}
        >>> snap["columns"]["served"]
        3
    """

    def __init__(self, window: int = 1024) -> None:
        self.window = window
        self.started_at = time.monotonic()
        # Wall-clock start for restart detection from probes: monotonic
        # uptime resets silently on respawn, the epoch timestamp does not.
        self.started_at_unix = time.time()
        self.admitted = 0
        self.completed = 0
        self.errors = 0
        self.rejected_queue_full = 0
        self.rejected_draining = 0
        self.malformed = 0
        self.batches = 0
        self.tables_served = 0
        self.columns_served = 0
        self.batch_seconds = 0.0
        self.batch_size_histogram: dict[int, int] = {}
        self._latencies: deque[float] = deque(maxlen=window)
        self._queue_waits: deque[float] = deque(maxlen=window)
        self._lock = threading.Lock()

    # -------------------------------------------------------------- recording

    def record_admitted(self) -> None:
        """Count a request accepted into the pending queue."""
        with self._lock:
            self.admitted += 1

    def record_rejected_queue_full(self) -> None:
        """Count a request turned away at the admission bound (HTTP 429)."""
        with self._lock:
            self.rejected_queue_full += 1

    def record_rejected_draining(self) -> None:
        """Count a request turned away during graceful drain (HTTP 503)."""
        with self._lock:
            self.rejected_draining += 1

    def record_malformed(self) -> None:
        """Count a request rejected before admission (HTTP 400)."""
        with self._lock:
            self.malformed += 1

    def record_batch(self, n_tables: int, n_columns: int, seconds: float) -> None:
        """Account one dispatched batch (size, column volume, model time)."""
        with self._lock:
            self.batches += 1
            self.tables_served += n_tables
            self.columns_served += n_columns
            self.batch_seconds += seconds
            self.batch_size_histogram[n_tables] = (
                self.batch_size_histogram.get(n_tables, 0) + 1
            )

    def record_request(self, latency_seconds: float) -> None:
        """Account one completed request's admission-to-response latency."""
        with self._lock:
            self.completed += 1
            self._latencies.append(latency_seconds)

    def record_queue_wait(self, wait_seconds: float) -> None:
        """Account one request's admission-to-dispatch wait.

        Kept separate from total latency so queue pressure (batching
        linger, backlog) is distinguishable from model cost.
        """
        with self._lock:
            self._queue_waits.append(wait_seconds)

    def record_error(self) -> None:
        """Count a request that failed inside the model (HTTP 500)."""
        with self._lock:
            self.errors += 1

    # ------------------------------------------------------------- reporting

    def snapshot(self) -> dict:
        """One JSON-friendly dictionary of every tracked number."""
        with self._lock:
            uptime = max(time.monotonic() - self.started_at, 1e-9)
            latencies = sorted(self._latencies)
            queue_waits = sorted(self._queue_waits)
            mean_batch = self.tables_served / self.batches if self.batches else 0.0
            return {
                "uptime_seconds": uptime,
                "started_at": self.started_at_unix,
                "requests": {
                    "admitted": self.admitted,
                    "completed": self.completed,
                    "errors": self.errors,
                    "rejected_queue_full": self.rejected_queue_full,
                    "rejected_draining": self.rejected_draining,
                    "malformed": self.malformed,
                    "qps": self.completed / uptime,
                },
                "batches": {
                    "count": self.batches,
                    "mean_size": mean_batch,
                    "size_histogram": {
                        str(size): count
                        for size, count in sorted(self.batch_size_histogram.items())
                    },
                    "model_seconds_total": self.batch_seconds,
                },
                "latency_ms": _latency_summary(latencies),
                "queue_wait_ms": _latency_summary(queue_waits),
                "columns": {
                    "served": self.columns_served,
                    "tables": self.tables_served,
                    "columns_per_sec": self.columns_served / uptime,
                },
            }


@dataclass
class _Pending:
    """One admitted request waiting for its micro-batch."""

    table: Table
    #: Where the outcome goes: the request's future (:class:`MicroBatcher`)
    #: or its request id on the worker pipe (fleet worker).
    reply: object
    enqueued_at: float = field(default_factory=time.monotonic)
    #: Trace context of the submitting request, captured at enqueue so the
    #: dispatch can parent its batch span under the (first) request's span
    #: even though it runs off the event loop, or in another process.
    context: SpanContext | None = None


def dispatch_batch(
    predictor, batch: Sequence[_Pending], metrics: ServingMetrics, span_name: str
) -> tuple[list, SpanContext | None]:
    """Serve one coalesced batch: the core of every serving loop.

    Records each request's queue wait, runs the batch under a ``span_name``
    span anchored on the first traced request, and accounts the batch and
    every request in ``metrics``.  Returns one outcome per request, in
    order — ``(labels, version, info)`` or the exception that failed it —
    plus the anchor context the batch's spans were recorded under.

    Synchronous on purpose: :class:`MicroBatcher` runs it on its dispatch
    thread, a fleet worker straight off its pipe; the callers only deliver
    the outcomes.
    """
    tables = [pending.table for pending in batch]
    tracer = get_tracer()
    started = time.monotonic()
    waits = [started - pending.enqueued_at for pending in batch]
    for wait in waits:
        metrics.record_queue_wait(wait)
    anchor = next(
        (pending.context for pending in batch if pending.context is not None), None
    )
    token = tracer.attach(anchor)
    try:
        with tracer.span(span_name, batch_size=len(tables)):
            results = _predict_isolated(predictor, tables)
    finally:
        tracer.detach(token)
    finished = time.monotonic()
    outcomes: list = []
    served: list[Table] = []
    for pending, result, wait in zip(batch, results, waits):
        if isinstance(result, Exception):
            metrics.record_error()
            outcomes.append(result)
            continue
        served.append(pending.table)
        metrics.record_request(finished - pending.enqueued_at)
        labels, version = result
        outcomes.append(
            (labels, version, {"batch_size": len(batch), "queue_wait": wait})
        )
    # The batch is accounted by the tables it served, so the served counts
    # stay true when some of its tables fail.
    if served:
        metrics.record_batch(
            n_tables=len(served),
            n_columns=sum(table.n_columns for table in served),
            seconds=finished - started,
        )
    return outcomes, anchor


def _predict_isolated(predictor, tables: list[Table]) -> list:
    """``(labels, version)`` per table, or the exception that failed it.

    One ``predict_tables`` call serves the whole batch.  When it raises,
    each half is re-run on its own, down to single tables, so only the
    tables that fail alone fail; each outcome carries the version of the
    call that served it.
    """
    try:
        results = predictor.predict_tables(tables)
    except Exception as error:
        if len(tables) == 1:
            return [error]
        middle = len(tables) // 2
        head = _predict_isolated(predictor, tables[:middle])
        return head + _predict_isolated(predictor, tables[middle:])
    # predict_tables records the serving version under the predictor's swap
    # lock, and the dispatching thread is the predictor's only caller, so
    # reading it here is race-free even mid-hot-swap.
    version = getattr(predictor, "last_batch_version", None)
    return [(labels, version) for labels in results]


class MicroBatcher:
    """Coalesce concurrent predict requests into shared model batches.

    Parameters
    ----------
    predictor:
        Any object with a ``predict_tables(tables) -> list[list[str]]``
        method — normally a :class:`~repro.serving.Predictor`.
    max_batch_size:
        Largest number of tables dispatched in one model call.
    max_wait_ms:
        How long a newly arrived request may wait for companions before the
        partial batch is dispatched anyway.  This bounds the latency cost of
        batching: an isolated request is served after at most this delay.
        A request that arrived while a batch was being served waits at most
        this long after that batch finishes.
    max_queue:
        Admission bound on the pending queue.  ``submit`` calls beyond it
        raise :class:`QueueFullError` immediately (fail fast beats an
        unbounded backlog).
    metrics:
        Optional shared :class:`ServingMetrics`; one is created if omitted.

    The batcher must be started inside a running event loop — either with
    ``await batcher.start()`` / ``await batcher.drain()`` or as an async
    context manager.

    Examples:
        >>> import asyncio
        >>> from repro.tables import Column, Table
        >>> class Echo:
        ...     def predict_tables(self, tables):
        ...         return [["x"] * table.n_columns for table in tables]
        >>> async def demo():
        ...     table = Table(columns=[Column(values=["a"]), Column(values=["b"])])
        ...     async with MicroBatcher(Echo(), max_batch_size=8) as batcher:
        ...         labels = await asyncio.gather(*[
        ...             batcher.submit(table) for _ in range(3)
        ...         ])
        ...     return labels, batcher.metrics.completed
        >>> labels, completed = asyncio.run(demo())
        >>> labels == [["x", "x"]] * 3 and completed == 3
        True
    """

    def __init__(
        self,
        predictor,
        max_batch_size: int = DEFAULT_MAX_BATCH_SIZE,
        max_wait_ms: float = DEFAULT_MAX_WAIT_MS,
        max_queue: int = DEFAULT_MAX_QUEUE,
        metrics: ServingMetrics | None = None,
    ) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_wait_ms < 0:
            raise ValueError("max_wait_ms must be >= 0")
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        self.predictor = predictor
        self.max_batch_size = max_batch_size
        self.max_wait_ms = max_wait_ms
        self.max_queue = max_queue
        self.metrics = metrics if metrics is not None else ServingMetrics()
        self._queue: deque[_Pending] = deque()
        self._wake = asyncio.Event()
        self._draining = False
        self._task: asyncio.Task | None = None
        self._executor: ThreadPoolExecutor | None = None

    # ------------------------------------------------------------- lifecycle

    @property
    def draining(self) -> bool:
        """True once :meth:`drain` has been called."""
        return self._draining

    @property
    def pending(self) -> int:
        """Number of admitted requests not yet dispatched."""
        return len(self._queue)

    async def start(self) -> "MicroBatcher":
        """Start the dispatch loop (idempotent)."""
        if self._task is None:
            self._draining = False
            self._executor = ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="microbatch-dispatch"
            )
            self._task = asyncio.get_running_loop().create_task(self._run())
        return self

    async def drain(self) -> None:
        """Stop admitting work, serve the queue, then stop the loop.

        Every request admitted before the drain began still receives its
        response; requests submitted after it raise :class:`DrainingError`.
        """
        self._draining = True
        self._wake.set()
        if self._task is not None:
            try:
                await self._task
            except asyncio.CancelledError:
                # The dispatch loop was cancelled from outside (e.g. event
                # loop teardown); don't let queued futures hang forever.
                pass
            self._task = None
        while self._queue:  # only non-empty if the loop died mid-drain
            pending = self._queue.popleft()
            if not pending.reply.done():
                pending.reply.set_exception(
                    DrainingError("scheduler stopped before dispatch")
                )
            self.metrics.record_rejected_draining()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    async def __aenter__(self) -> "MicroBatcher":
        return await self.start()

    async def __aexit__(self, *exc_info) -> None:
        await self.drain()

    # ------------------------------------------------------------- admission

    def _admit(self, n_tables: int) -> None:
        """Check admission for ``n_tables`` more tables (raises on refusal).

        Synchronous on purpose: callers enqueue immediately after this
        check without any intervening ``await``, so check-plus-enqueue is
        atomic with respect to the event loop and a multi-table admission
        really is all-or-nothing.
        """
        if self._draining:
            self.metrics.record_rejected_draining()
            raise DrainingError("scheduler is draining")
        if len(self._queue) + n_tables > self.max_queue:
            self.metrics.record_rejected_queue_full()
            raise QueueFullError(
                f"pending queue cannot admit {n_tables} more table(s) "
                f"(bound {self.max_queue})"
            )
        if self._task is None:
            raise RuntimeError("MicroBatcher is not started")

    def _enqueue(self, table: Table) -> asyncio.Future:
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._queue.append(
            _Pending(table=table, reply=future, context=get_tracer().current())
        )
        self.metrics.record_admitted()
        self._wake.set()
        return future

    async def submit(self, table: Table) -> list[str]:
        """Submit one table; resolves to its per-column labels.

        Raises :class:`DrainingError` during shutdown and
        :class:`QueueFullError` when the pending queue is at its bound.
        """
        labels, _version, _info = await self.submit_traced(table)
        return labels

    async def submit_traced(self, table: Table) -> tuple[list[str], str | None, dict]:
        """Submit one table; resolves to ``(labels, version, info)``.

        ``version`` is the version tag of the model that actually served
        this request's batch (``predictor.last_batch_version``, set under
        the predictor's swap lock), or None for predictors without
        versioning.  During a hot swap this is how a response can honestly
        say which model produced it.  ``info`` carries per-request
        observability detail the HTTP layer logs and exposes: the size of
        the batch that served the request and its admission-to-dispatch
        ``queue_wait`` in seconds.
        """
        self._admit(1)
        return await self._enqueue(table)

    async def submit_many(self, tables: Sequence[Table]) -> list[list[str]]:
        """Submit several tables as one admission decision.

        Admission is all-or-nothing and atomic: either every table is
        enqueued (before this coroutine first yields to the event loop) or
        the call raises and none of them are.
        """
        results = await self.submit_many_versioned(tables)
        return [labels for labels, _version in results]

    async def submit_many_versioned(
        self, tables: Sequence[Table]
    ) -> list[tuple[list[str], str | None]]:
        """Like :meth:`submit_many`, resolving ``(labels, version)`` pairs."""
        tables = list(tables)
        self._admit(len(tables))
        futures = [self._enqueue(table) for table in tables]
        results = await asyncio.gather(*futures, return_exceptions=True)
        for result in results:
            if isinstance(result, BaseException):
                raise result
        return [(labels, version) for labels, version, _info in results]

    # -------------------------------------------------------------- dispatch

    async def _run(self) -> None:
        free_since = 0.0  # when the last dispatch finished
        while True:
            if not self._queue:
                if self._draining:
                    return
                self._wake.clear()
                await self._wake.wait()
                continue
            # One request in hand: linger for companions until max_wait_ms
            # after the *oldest* request's admission, or after the last
            # dispatch finished if it queued during it (skipped when the
            # batch is already full or we are draining).  So the callers
            # the last batch answered can join the requests that waited
            # through it, as in a fleet worker, which reads its pipe only
            # between batches; otherwise closed-loop callers can settle
            # into alternate batches, and batched topic inference costs
            # more per table in smaller ones.
            oldest = self._queue[0].enqueued_at
            deadline = max(oldest, free_since) + self.max_wait_ms / 1e3
            while not self._draining and len(self._queue) < self.max_batch_size:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._wake.clear()
                try:
                    await asyncio.wait_for(self._wake.wait(), timeout=remaining)
                except asyncio.TimeoutError:
                    break
            batch = [
                self._queue.popleft()
                for _ in range(min(self.max_batch_size, len(self._queue)))
            ]
            await self._dispatch(batch)
            free_since = time.monotonic()

    async def _dispatch(self, batch: list[_Pending]) -> None:
        # run_in_executor does not carry contextvars across the thread hop;
        # dispatch_batch re-attaches the anchor request's context itself.
        outcomes, _anchor = await asyncio.get_running_loop().run_in_executor(
            self._executor,
            dispatch_batch,
            self.predictor,
            batch,
            self.metrics,
            "batch.predict",
        )
        for pending, outcome in zip(batch, outcomes):
            if pending.reply.done():
                continue
            if isinstance(outcome, Exception):  # surfaced as HTTP 500
                pending.reply.set_exception(outcome)
            else:
                pending.reply.set_result(outcome)
