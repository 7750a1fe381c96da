"""Dependency-free tracing for the online serving path.

The serving stack is profiled at the *stage* level: the codepoint pass, the
embedding gather, the LDA topic inference, the column-network forward, the
batched Viterbi decode and the JSON encode each get a named span, so
``/metrics`` can answer which kernel actually dominates a request instead
of reporting one opaque end-to-end latency.  Everything here is stdlib
only and built for an always-on deployment:

* :class:`Tracer` hands out ``with tracer.span("featurize.char"):`` context
  managers timed on the monotonic performance counter.  Spans nest through
  a :mod:`contextvars` variable, so the parent/child structure follows the
  code — across ``await`` points on the event loop and, via
  :meth:`Tracer.attach`, across thread and process hops.
* Every finished span feeds :class:`StageAggregates`: bounded-window
  per-stage latency percentiles plus cumulative totals, cheap enough to
  leave on in production (the overhead contract is enforced by
  ``benchmarks/test_obs_overhead.py``).
* A bounded ring buffer keeps recently finished spans so tests, the
  profiling CLI and the fleet front-end can reassemble whole traces by
  trace ID.  Worker processes ship their spans back over the request pipe
  (:meth:`Span.to_wire`) and the front-end re-parents them with
  :meth:`Tracer.adopt`, so one trace covers the whole fleet round-trip.

Most call sites use the module-level helpers (:func:`span`,
:func:`get_tracer`) bound to one process-wide tracer:
instrumented layers deep inside the featurizer or the CRF never need a
tracer handle plumbed through their signatures.
"""

from __future__ import annotations

import contextvars
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

__all__ = [
    "Span",
    "SpanContext",
    "StageAggregates",
    "Tracer",
    "get_tracer",
    "new_span_id",
    "new_trace_id",
    "set_enabled",
    "span",
]


def new_trace_id() -> str:
    """A fresh 64-bit hex trace ID (collision-safe at window scale)."""
    return os.urandom(8).hex()


def new_span_id() -> str:
    """A fresh 32-bit hex span ID (unique within one trace)."""
    return os.urandom(4).hex()


class SpanContext(NamedTuple):
    """The propagatable part of a span: ``(trace_id, span_id)``.

    A plain tuple on purpose: it pickles through the fleet's request pipes
    and serialises into JSON logs without any adapter.
    """

    trace_id: str
    span_id: str


@dataclass
class Span:
    """One finished (or in-flight) timed operation.

    ``start`` is a ``time.perf_counter`` reading, meaningful only for
    ordering spans recorded by the same process; ``duration`` is wall
    seconds and is what every aggregate consumes.

    Examples:
        >>> span = Span("t" * 16, "s" * 8, None, "featurize", 0.0, 0.25)
        >>> span.to_wire()[3]
        'featurize'
        >>> Span.from_wire(span.to_wire()) == span
        True
    """

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    start: float
    duration: float
    worker: str | None = None
    meta: dict | None = None

    def context(self) -> SpanContext:
        """This span's propagatable context."""
        return SpanContext(self.trace_id, self.span_id)

    def to_wire(self) -> tuple:
        """Serialise to the plain tuple shipped over fleet worker pipes."""
        return (
            self.trace_id,
            self.span_id,
            self.parent_id,
            self.name,
            self.start,
            self.duration,
            self.worker,
            self.meta,
        )

    @classmethod
    def from_wire(cls, payload: Sequence) -> "Span":
        """Rebuild a span from its wire tuple."""
        return cls(*payload)

    def to_dict(self) -> dict:
        """JSON-friendly form (profiling reports, tests)."""
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "duration_ms": self.duration * 1e3,
            "worker": self.worker,
            "meta": self.meta,
        }


def _percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending list (0.0 for an empty one)."""
    if not sorted_values:
        return 0.0
    rank = round(fraction * (len(sorted_values) - 1))
    return sorted_values[min(len(sorted_values) - 1, max(0, rank))]


class _StageWindow:
    """Cumulative + bounded-window accounting for one stage name."""

    __slots__ = ("count", "total_seconds", "window")

    def __init__(self, window: int) -> None:
        self.count = 0
        self.total_seconds = 0.0
        self.window: deque[float] = deque(maxlen=window)


class StageAggregates:
    """Bounded-window per-stage latency aggregates (the ``stages`` metric).

    Each observed duration updates a cumulative count/total plus a bounded
    recent window, so :meth:`snapshot` reports both all-time stage shares
    and percentiles that reflect *recent* traffic.  Thread-safe: stages are
    recorded from the event loop, the dispatch thread and fleet pipe-reader
    callbacks concurrently.

    Examples:
        >>> stages = StageAggregates(window=16)
        >>> stages.observe("request", 0.010)
        >>> stages.observe("forward", 0.004)
        >>> snap = stages.snapshot()
        >>> snap["forward"]["count"], round(snap["forward"]["share"], 2)
        (1, 0.4)
        >>> round(snap["request"]["p50_ms"], 1)
        10.0
    """

    #: Stage whose cumulative time defines ``share`` (the per-request root).
    ROOT_STAGE = "request"

    def __init__(self, window: int = 512) -> None:
        self.window = window
        self._lock = threading.Lock()
        self._stages: dict[str, _StageWindow] = {}

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration for a stage."""
        with self._lock:
            stage = self._stages.get(name)
            if stage is None:
                stage = self._stages[name] = _StageWindow(self.window)
            stage.count += 1
            stage.total_seconds += seconds
            stage.window.append(seconds)

    def reset(self) -> None:
        """Drop every stage (tests and profiling runs start clean)."""
        with self._lock:
            self._stages.clear()

    def snapshot(self) -> dict:
        """Per-stage aggregates, JSON-friendly, sorted by cumulative time.

        ``share`` is the stage's cumulative seconds over the root stage's
        (``request``) cumulative seconds — the fraction of request time the
        stage accounts for.  Nested stages overlap their parents, so shares
        do not sum to 1 across the whole dictionary; compare siblings.
        When no root stage has been observed the share is computed against
        the largest stage total instead.
        """
        with self._lock:
            totals = {name: stage.total_seconds for name, stage in self._stages.items()}
            root_total = totals.get(self.ROOT_STAGE, 0.0)
            if root_total <= 0.0:
                root_total = max(totals.values(), default=0.0)
            out: dict[str, dict] = {}
            order = sorted(self._stages, key=lambda name: totals[name], reverse=True)
            for name in order:
                stage = self._stages[name]
                window = sorted(stage.window)
                out[name] = {
                    "count": stage.count,
                    "total_seconds": stage.total_seconds,
                    "share": (
                        stage.total_seconds / root_total if root_total else 0.0
                    ),
                    "p50_ms": _percentile(window, 0.50) * 1e3,
                    "p95_ms": _percentile(window, 0.95) * 1e3,
                    "p99_ms": _percentile(window, 0.99) * 1e3,
                    "window": len(window),
                }
            return out


#: The active span context of the calling task/thread.  One module-level
#: contextvar (not per-tracer): a context can only describe one position in
#: one trace at a time, whichever tracer recorded it.
_CURRENT: contextvars.ContextVar[SpanContext | None] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)

#: Shared placeholder yielded by disabled spans, so call sites can set
#: ``handle.meta``/``handle.worker`` unconditionally.
_DISABLED_SPAN = Span("", "", None, "disabled", 0.0, 0.0)


class Tracer:
    """Thread- and process-safe span recorder with always-on stage timers.

    Parameters
    ----------
    window:
        Bounded window per stage for percentile aggregates.
    max_spans:
        Ring-buffer capacity for finished spans (trace reassembly).
    enabled:
        When False, :meth:`span` yields a shared no-op handle and records
        nothing — the control arm of the overhead benchmark.

    Examples:
        >>> tracer = Tracer()
        >>> with tracer.span("request") as root:
        ...     with tracer.span("forward") as child:
        ...         pass
        >>> child.trace_id == root.trace_id
        True
        >>> child.parent_id == root.span_id
        True
        >>> [s.name for s in tracer.trace(root.trace_id)]
        ['forward', 'request']
        >>> sorted(tracer.stages.snapshot())
        ['forward', 'request']
    """

    def __init__(
        self, window: int = 512, max_spans: int = 4096, enabled: bool = True
    ) -> None:
        self.enabled = enabled
        self.stages = StageAggregates(window=window)
        self._spans: deque[Span] = deque(maxlen=max_spans)
        self._lock = threading.Lock()

    # ---------------------------------------------------------- propagation

    def current(self) -> SpanContext | None:
        """The active span context of this task/thread (None outside spans)."""
        return _CURRENT.get()

    def attach(self, context) -> contextvars.Token:
        """Adopt a foreign span context (cross-thread / cross-process hop).

        ``context`` is a :class:`SpanContext`, a plain ``(trace_id,
        span_id)`` tuple off the wire, or None.  Returns a token for
        :meth:`detach`; always pair the two (``try/finally``).
        """
        if context is not None and not isinstance(context, SpanContext):
            context = SpanContext(*context)
        return _CURRENT.set(context)

    def detach(self, token: contextvars.Token) -> None:
        """Restore the context active before the matching :meth:`attach`."""
        _CURRENT.reset(token)

    # -------------------------------------------------------------- spans

    @contextmanager
    def span(self, name: str, worker: str | None = None, **meta) -> Iterator[Span]:
        """Time a named stage; nests under the active span.

        Yields the live :class:`Span` so callers can annotate
        ``handle.meta`` mid-flight; the span is recorded (ring buffer +
        stage aggregates) when the block exits, whether or not it raised.
        """
        if not self.enabled:
            yield _DISABLED_SPAN
            return
        parent = _CURRENT.get()
        trace_id = parent.trace_id if parent is not None else new_trace_id()
        handle = Span(
            trace_id=trace_id,
            span_id=new_span_id(),
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            start=time.perf_counter(),
            duration=0.0,
            worker=worker,
            meta=meta or None,
        )
        token = _CURRENT.set(handle.context())
        try:
            yield handle
        finally:
            handle.duration = time.perf_counter() - handle.start
            _CURRENT.reset(token)
            self.record(handle)

    def record(self, span: Span) -> None:
        """Add one finished span to the buffer and the stage aggregates."""
        with self._lock:
            self._spans.append(span)
        self.stages.observe(span.name, span.duration)

    def adopt(self, wire_spans: Sequence, worker: str | None = None) -> list[Span]:
        """Re-parent spans shipped from a worker process into this tracer.

        The worker recorded them under the request's propagated context, so
        trace and parent IDs are already correct; adoption stamps the
        front-end's worker tag (``wid:pid`` — a restarted worker shows its
        new pid) and records them here so one trace covers the whole fleet
        round-trip.
        """
        adopted = []
        for payload in wire_spans:
            span = payload if isinstance(payload, Span) else Span.from_wire(payload)
            if worker is not None:
                span.worker = worker
            with self._lock:
                self._spans.append(span)
            adopted.append(span)
        return adopted

    # ----------------------------------------------------------- reporting

    def trace(self, trace_id: str) -> list[Span]:
        """Every buffered span of one trace (recording order)."""
        with self._lock:
            return [span for span in self._spans if span.trace_id == trace_id]

    def take(self, trace_id: str) -> list[tuple]:
        """Remove and return one trace's spans in wire form.

        Fleet workers call this after serving a batch to ship the batch's
        spans back to the front-end exactly once.
        """
        with self._lock:
            taken = [span for span in self._spans if span.trace_id == trace_id]
            if taken:
                kept = [span for span in self._spans if span.trace_id != trace_id]
                self._spans.clear()
                self._spans.extend(kept)
        return [span.to_wire() for span in taken]

    def spans(self) -> list[Span]:
        """Every buffered span (newest last)."""
        with self._lock:
            return list(self._spans)

    def reset(self) -> None:
        """Clear the span buffer and stage aggregates (tests, profiling)."""
        with self._lock:
            self._spans.clear()
        self.stages.reset()


#: One tracer per process: instrumented layers call the helpers below, so
#: span recording needs no handle threading through the serving stack.
#: Fleet workers are separate processes and therefore get their own.
_GLOBAL = Tracer(enabled=os.environ.get("REPRO_OBS_DISABLED", "") != "1")


def get_tracer() -> Tracer:
    """The process-wide tracer every instrumented layer records into."""
    return _GLOBAL


def span(name: str, worker: str | None = None, **meta):
    """Open a span on the process-wide tracer (see :meth:`Tracer.span`)."""
    return _GLOBAL.span(name, worker=worker, **meta)


def set_enabled(enabled: bool) -> None:
    """Toggle the process-wide tracer (the overhead benchmark's control)."""
    _GLOBAL.enabled = enabled
