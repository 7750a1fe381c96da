"""What each workload traces, and the per-layer metrics computed from it.

Layers are the program's modules.  Every entry point below is a public
method of its layer, wrapped from outside by
:func:`perfbench.trace.install`, with two exceptions in the server layer:
its per-connection handler, the only per-request boundary
``repro.serving.server`` has, and asyncio's accept path, which the server
delegates connection set-up to.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from perfbench.stats import percentile
from perfbench.trace import EntryPoint, Span, exclusive_times, roots

#: Layer name -> the module it stands for.
LAYERS = {
    "topic": "repro.topic",
    "features": "repro.features",
    "predictor": "repro.serving.predictor",
    "scheduler": "repro.serving.scheduler",
    "server": "repro.serving.server",
    "models": "repro.models",
    "crf": "repro.crf",
    "ingest": "repro.ingest",
}


def _count(key: str):
    """Meta: the length of the call's first argument."""
    return lambda args, kwargs, result: {key: len(args[1])}


def _one(key: str):
    return lambda args, kwargs, result: {key: 1}


def _batch(args, kwargs, result):
    tables = args[1]
    return {"tables": len(tables), "columns": sum(t.n_columns for t in tables)}


SUBMITS = ("MicroBatcher.submit_traced", "MicroBatcher.submit_many_versioned")

LDA_TRANSFORM = EntryPoint(
    "repro.topic.lda", "LatentDirichletAllocation.transform", "topic", "infer",
    meta=lambda args, kwargs, result: {"tables": 1, "tokens": len(args[1])},
)

SERVE = (
    # ServingServer hands connection set-up to asyncio.start_server: these
    # two calls accept a connection and build its transport before the
    # server's handler runs, and are the server's share of every request.
    EntryPoint("asyncio.selector_events", "BaseSelectorEventLoop._accept_connection",
               "server", "accept"),
    EntryPoint("asyncio.selector_events", "BaseSelectorEventLoop._accept_connection2",
               "server", "accept"),
    EntryPoint("repro.serving.server", "ServingServer._handle_connection",
               "server", "request"),
    EntryPoint("repro.serving.server", "ServingServer._handle_request",
               "server", "route",
               meta=lambda args, kwargs, result: {"status": result[0]}),
    EntryPoint("repro.serving.scheduler", "MicroBatcher.submit_traced",
               "scheduler", "submit", meta=_one("tables")),
    EntryPoint("repro.serving.scheduler", "MicroBatcher.submit_many_versioned",
               "scheduler", "submit", meta=_count("tables")),
    EntryPoint("repro.serving.predictor", "Predictor.predict_tables",
               "predictor", "batch", meta=_batch, adopt=SUBMITS),
    EntryPoint("repro.features.featurizer", "ColumnFeaturizer.transform_columns",
               "features", "transform", meta=_count("columns")),
    EntryPoint("repro.topic.intent", "TableIntentEstimator.topic_vector",
               "topic", "infer"),
    LDA_TRANSFORM,
    EntryPoint("repro.models.topic_aware", "TopicAwareModel.predict_proba_matrix",
               "models", "forward", meta=_count("columns")),
    EntryPoint("repro.models.sato", "SatoModel.labels_from_proba_batch",
               "crf", "decode", meta=_count("tables")),
)

ANNOTATE = (
    EntryPoint("repro.features.accumulators", "ColumnAccumulator.partial_fit",
               "features", "accumulate"),
    EntryPoint("repro.features.featurizer", "ColumnFeaturizer.finalize_columns",
               "features", "finalize", meta=_count("columns")),
    EntryPoint("repro.topic.intent", "TableIntentEstimator.topic_vector_from_tokens",
               "topic", "infer"),
    LDA_TRANSFORM,
    EntryPoint("repro.models.topic_aware", "TopicAwareModel.predict_proba_matrix",
               "models", "forward", meta=_count("columns")),
    EntryPoint("repro.models.sato", "SatoModel.marginals_from_proba",
               "crf", "decode"),
    EntryPoint("repro.models.sato", "SatoModel.labels_from_proba",
               "crf", "decode", meta=_one("tables")),
)

TRAIN = (
    EntryPoint("repro.features.featurizer", "ColumnFeaturizer.fit",
               "features", "fit"),
    EntryPoint("repro.features.featurizer", "ColumnFeaturizer.transform_columns",
               "features", "transform", meta=_count("columns")),
    EntryPoint("repro.topic.intent", "TableIntentEstimator.fit", "topic", "fit"),
    EntryPoint("repro.topic.intent", "TableIntentEstimator.topic_vector",
               "topic", "infer"),
    LDA_TRANSFORM,
    EntryPoint("repro.models.column_network", "NetworkTrainer.fit", "models", "fit"),
    EntryPoint("repro.models.topic_aware",
               "TopicAwareModel.predict_proba_from_features",
               "models", "forward", meta=_count("columns")),
    EntryPoint("repro.crf.trainer", "CRFTrainer.fit", "crf", "fit"),
)

#: The name the annotate workload gives the adapter's chunk-iteration spans.
INGEST_READ = "TableStream.chunks"


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: Iterable[Span],
    background: Iterable[Span] = (),
    counters: dict | None = None,
) -> dict[str, float]:
    """Every per-layer metric from one traced window.

    ``spans`` are the program's spans, already clipped to the window;
    ``background`` are the benchmark's own operation intervals, which only
    keep the time no program span covers.  ``counters`` carries what the
    program reports itself: cache hits and misses, queue wait.
    """
    spans = list(spans)
    background = list(background)
    counters = counters or {}
    exclusive = exclusive_times(spans + background, {span.id for span in background})
    uncovered = sum(exclusive.get(span.id, 0.0) for span in background)

    by_layer: dict[str, float] = defaultdict(float)
    by_kind: dict[tuple[str, str], float] = defaultdict(float)
    meta_sum: dict[tuple[str, str, str], float] = defaultdict(float)
    calls: dict[tuple[str, str], int] = defaultdict(int)
    for span in spans:
        seconds = exclusive.get(span.id, 0.0)
        by_layer[span.layer] += seconds
        by_kind[span.layer, span.kind] += seconds
        calls[span.layer, span.kind] += 1
        for key, value in span.meta.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                meta_sum[span.layer, span.kind, key] += value
    busy = sum(by_layer.values())

    topic_tables = meta_sum["topic", "infer", "tables"]
    infer_s = by_kind["topic", "infer"]
    feature_columns = (
        meta_sum["features", "transform", "columns"]
        + meta_sum["features", "finalize", "columns"]
    )
    feature_s = sum(
        by_kind["features", kind] for kind in ("transform", "accumulate", "finalize")
    )
    ingest_rows = meta_sum["ingest", "read", "rows"]
    batches = calls["predictor", "batch"]
    batch_tables = meta_sum["predictor", "batch", "tables"]

    request_root = roots(spans)
    server_self: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.layer == "server":
            server_self[request_root[span.id]] += exclusive.get(span.id, 0.0)
    failed = sum(
        1 for span in spans
        if span.kind == "route" and (span.meta.get("status") != 200)
    )

    metrics = {
        "topic.tables": topic_tables,
        "topic.tokens_per_table": _ratio(meta_sum["topic", "infer", "tokens"], topic_tables),
        "topic.ms_per_table": _ratio(infer_s * 1e3, topic_tables),
        "topic.fit_s": by_kind["topic", "fit"],
        "topic.infer_s": infer_s,
        "features.columns": feature_columns,
        "features.ms_per_column": _ratio(feature_s * 1e3, feature_columns),
        "features.accumulate_ms_per_krow": _ratio(
            by_kind["features", "accumulate"] * 1e3, ingest_rows / 1e3
        ),
        "features.finalize_ms_per_column": _ratio(
            by_kind["features", "finalize"] * 1e3,
            meta_sum["features", "finalize", "columns"],
        ),
        "features.fit_s": by_kind["features", "fit"],
        "predictor.feature_hit_ratio": counters.get("feature_hit_ratio", 0.0),
        "predictor.topic_hit_ratio": counters.get("topic_hit_ratio", 0.0),
        "predictor.self_ms_per_table": _ratio(by_layer["predictor"] * 1e3, batch_tables),
        "scheduler.batches": batches,
        "scheduler.batch_tables_mean": _ratio(batch_tables, batches),
        "scheduler.queue_wait_ms_p50": counters.get("queue_wait_ms_p50", 0.0),
        "server.requests": calls["server", "request"],
        "server.failed": failed,
        "server.self_ms_p50": (
            percentile(list(server_self.values()), 0.5) * 1e3 if server_self else 0.0
        ),
        "models.forward_ms_per_column": _ratio(
            by_kind["models", "forward"] * 1e3, meta_sum["models", "forward", "columns"]
        ),
        "models.fit_s": by_kind["models", "fit"],
        "crf.decode_ms_per_table": _ratio(
            by_kind["crf", "decode"] * 1e3, meta_sum["crf", "decode", "tables"]
        ),
        "crf.fit_s": by_kind["crf", "fit"],
        "ingest.rows": ingest_rows,
        "ingest.read_ms_per_krow": _ratio(by_layer["ingest"] * 1e3, ingest_rows / 1e3),
    }
    for layer in LAYERS:
        metrics[f"{layer}.share"] = _ratio(by_layer[layer], busy)
    metrics["trace.coverage"] = _ratio(busy, busy + uncovered)
    return metrics


#: Units of the per-layer metrics (``trace.overhead`` is added by the run).
UNITS = {
    "tables": "count", "tokens_per_table": "tokens", "ms_per_table": "ms",
    "fit_s": "s", "infer_s": "s", "columns": "count", "ms_per_column": "ms",
    "accumulate_ms_per_krow": "ms", "finalize_ms_per_column": "ms",
    "feature_hit_ratio": "ratio", "topic_hit_ratio": "ratio",
    "self_ms_per_table": "ms", "batches": "count", "batch_tables_mean": "tables",
    "queue_wait_ms_p50": "ms", "requests": "count", "failed": "count",
    "self_ms_p50": "ms", "forward_ms_per_column": "ms",
    "decode_ms_per_table": "ms", "rows": "count", "read_ms_per_krow": "ms",
    "share": "ratio", "coverage": "ratio", "overhead": "ratio",
}


def unit(metric: str) -> str:
    return UNITS[metric.split(".", 1)[1]]
