"""Observability for the serving stack: tracing, telemetry, profiling.

Dependency-free (stdlib only).  Four pieces:

* :mod:`repro.obs.trace` — thread/process-safe :class:`Tracer` with
  nesting ``span()`` context managers, cross-process span shipping for the
  fleet, and always-on bounded-window per-stage aggregates.
* :mod:`repro.obs.prom` — Prometheus text exposition of the metrics
  snapshot (``GET /metrics.prom``).
* :mod:`repro.obs.logs` — structured JSON request logs
  (``serve --log-format json``).
* :mod:`repro.obs.profile` — corpus replay profiling behind
  ``repro-sato profile`` (flame table + coverage-checked JSON report).

See ``docs/observability.md`` for the span taxonomy and runbooks.
"""

from repro.obs.logs import RequestLogger
from repro.obs.profile import COVERAGE_STAGES, profile_predictor, render_flame
from repro.obs.prom import render_prometheus
from repro.obs.trace import (
    Span,
    SpanContext,
    StageAggregates,
    Tracer,
    get_tracer,
    new_span_id,
    new_trace_id,
    set_enabled,
    span,
)

__all__ = [
    "COVERAGE_STAGES",
    "RequestLogger",
    "Span",
    "SpanContext",
    "StageAggregates",
    "Tracer",
    "get_tracer",
    "new_span_id",
    "new_trace_id",
    "profile_predictor",
    "render_flame",
    "render_prometheus",
    "set_enabled",
    "span",
]
