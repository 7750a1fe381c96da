"""Model-core inference throughput: per-table loop vs batched.

The structured-prediction stage (column-network forward + CRF Viterbi, the
paper's Table 2 efficiency story) is served batched; the per-table loop is
its parity oracle:

* ``loop`` — ``SatoModel.predict_table`` on each table: featurize, forward
  and Viterbi-decode one table at a time (what a coalesced micro-batch paid
  before batching),
* ``batched`` — ``SatoModel.predict_tables``: one featurization call, one
  column-network forward pass (a single matmul per layer over every column
  of every table) and one masked ``viterbi_batch`` recurrence over the
  whole batch.

This benchmark measures tables/sec for both end to end, isolates the
Viterbi decode (per-chain loop vs one padded/masked batch decode), and
checks the decode through a warm serving :class:`~repro.serving.Predictor`
(features cached — exactly what a micro-batch dispatch pays per request),
against per-table ``labels_from_proba`` over that predictor's column-wise
scores.

The model core is benchmarked on the ``SatoNoTopic`` variant (CRF on,
topic off), so its cells measure featurization, forward and decode alone.
LDA topic inference gets its own cell: the ``Sato`` variant's intent
estimator infers the same tables once per table through
``LatentDirichletAllocation.transform`` and once in serving-sized batches
of 8 through ``TableIntentEstimator.topic_vectors`` (the one ragged EM
fold-in pass the Predictor runs on every micro-batch's cache misses).  The
two must give bit-identical vectors.  Parity across *all four* variants,
topic-aware included, is covered by ``tests/test_batched_model.py``.

Every cell is persisted to ``benchmarks/results/model_inference_throughput``
as both a report and a tracked JSON (uploaded as the
``model-inference-throughput`` CI artifact and gated by
``benchmarks/check_trend.py``).
"""

from __future__ import annotations

import time

import numpy as np

from conftest import emit, emit_json, run_once

from repro.experiments.pipeline import build_corpus, make_model_factories
from repro.models.batched import pad_unaries
from repro.serving import Predictor

#: The tentpole acceptance bar: batched inference must serve at least this
#: many times the tables/sec of the per-table loop on the same batch.
MIN_BATCHED_SPEEDUP = 2.0

#: Batched LDA fold-in over 8-table batches must beat one fold-in per table
#: by at least this factor: a pass's fixed per-iteration cost is shared by
#: its tables, which is what the Predictor's batching still buys.
MIN_TOPIC_BATCHED_SPEEDUP = 1.3

#: Replicate the corpus so every timing covers a serving-sized batch.
MIN_TABLES = 300

#: Tables per batched topic-inference call, the size of a coalesced serving
#: micro-batch under first-contact traffic.
TOPIC_BATCH = 8


def _timed(function, repeats: int = 1):
    """Best-of-``repeats`` wall time (sub-10ms cells need noise shielding)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = function()
        best = min(best, time.perf_counter() - started)
    return best, result


def _throughput_comparison(config) -> dict:
    tables = build_corpus(config).tables
    multi = [t for t in tables if t.n_columns > 1]
    model = make_model_factories(config)["SatoNoTopic"]()
    model.fit(multi)

    replicas = max(1, -(-MIN_TABLES // max(1, len(tables))))
    serve = (tables * replicas)[:MIN_TABLES]
    n_tables = len(serve)
    n_columns = sum(t.n_columns for t in serve)

    # --- end to end: loop vs batched (the CI-gated cells) --------------
    loop_seconds, loop_labels = _timed(
        lambda: [model.predict_table(table) for table in serve], repeats=3
    )
    batched_seconds, batched_labels = _timed(
        lambda: model.predict_tables(serve), repeats=3
    )
    assert batched_labels == loop_labels  # bit-exact decoded-label parity

    # --- decode only: per-chain Viterbi vs one masked batch decode -----
    probabilities = model.column_model.predict_proba_tables(serve)
    chains = [p for p in probabilities if p.shape[0] > 1]
    unaries, lengths = pad_unaries(chains, model.crf.n_states)
    viterbi_loop_seconds, decoded_loop = _timed(
        lambda: [
            model.crf.viterbi(unary[:length])
            for unary, length in zip(unaries, lengths)
        ],
        repeats=3,
    )
    viterbi_batch_seconds, decoded_batch = _timed(
        lambda: model.crf.viterbi_batch(unaries, lengths), repeats=3
    )
    # The batched Viterbi must be bit-identical to the per-table oracle.
    assert all(np.array_equal(a, b) for a, b in zip(decoded_loop, decoded_batch))

    # --- warm serving path: decode cost behind a feature-cached Predictor
    predictor = Predictor(model)
    predictor.predict_tables(serve)  # warm the feature cache
    warm_loop_seconds, warm_loop = _timed(
        lambda: [
            model.labels_from_proba(proba)
            for proba in predictor._columnwise_proba(serve)
        ],
        repeats=3,
    )
    warm_batched_seconds, warm_batched = _timed(
        lambda: predictor.predict_tables(serve), repeats=3
    )
    assert warm_loop == warm_batched == loop_labels

    # --- topic inference: per-table fold-in vs 8-table batches ----------
    intent = make_model_factories(config)["Sato"]().column_model.intent_estimator
    intent.fit([t.without_headers() for t in multi])
    topic_loop_seconds, topic_loop = _timed(
        lambda: [intent.lda.transform(intent.table_document(t)) for t in serve],
        repeats=3,
    )
    topic_batched_seconds, topic_batched = _timed(
        lambda: np.concatenate(
            [
                intent.topic_vectors(serve[start : start + TOPIC_BATCH])
                for start in range(0, n_tables, TOPIC_BATCH)
            ]
        ),
        repeats=3,
    )
    assert np.array_equal(topic_batched, np.stack(topic_loop))

    def tables_per_sec(seconds: float) -> float:
        return n_tables / max(seconds, 1e-9)

    def chains_per_sec(seconds: float) -> float:
        return len(chains) / max(seconds, 1e-9)

    viterbi_speedup = viterbi_loop_seconds / max(viterbi_batch_seconds, 1e-9)
    warm_speedup = warm_loop_seconds / max(warm_batched_seconds, 1e-9)
    topic_speedup = topic_loop_seconds / max(topic_batched_seconds, 1e-9)
    return {
        "variant": model.name,
        "n_tables": n_tables,
        "n_columns": n_columns,
        "n_crf_chains": len(chains),
        "max_cols": int(lengths.max()) if len(chains) else 0,
        "model_loop": {
            "seconds": loop_seconds,
            "tables_per_sec": tables_per_sec(loop_seconds),
        },
        "model_batched": {
            "seconds": batched_seconds,
            "tables_per_sec": tables_per_sec(batched_seconds),
        },
        "viterbi_loop": {
            "seconds": viterbi_loop_seconds,
            "chains_per_sec": chains_per_sec(viterbi_loop_seconds),
        },
        "viterbi_batch": {
            "seconds": viterbi_batch_seconds,
            "chains_per_sec": chains_per_sec(viterbi_batch_seconds),
        },
        "predictor_warm_loop": {
            "seconds": warm_loop_seconds,
            "tables_per_sec": tables_per_sec(warm_loop_seconds),
        },
        "predictor_warm_batched": {
            "seconds": warm_batched_seconds,
            "tables_per_sec": tables_per_sec(warm_batched_seconds),
        },
        "topic_loop": {
            "seconds": topic_loop_seconds,
            "tables_per_sec": tables_per_sec(topic_loop_seconds),
        },
        "topic_batched": {
            "seconds": topic_batched_seconds,
            "tables_per_sec": tables_per_sec(topic_batched_seconds),
        },
        "n_topics": intent.n_topics,
        "speedup_batched": loop_seconds / max(batched_seconds, 1e-9),
        "speedup_viterbi_batch": viterbi_speedup,
        "speedup_predictor_warm": warm_speedup,
        "speedup_topic_batched": topic_speedup,
    }


def test_model_inference_throughput(benchmark, config):
    result = run_once(benchmark, _throughput_comparison, config)

    def line(name: str, cell: dict, unit: str) -> str:
        rate = cell[unit]
        return f"  {name:<22s}: {cell['seconds']:7.3f}s ({rate:>10,.0f} {unit})"

    lines = [
        "Model-core inference throughput: loop vs batched "
        f"({result['variant']}, {result['n_tables']} tables / "
        f"{result['n_columns']} columns, {result['n_crf_chains']} CRF chains)",
        line("model loop", result["model_loop"], "tables_per_sec"),
        line("model batched", result["model_batched"], "tables_per_sec"),
        line("viterbi loop", result["viterbi_loop"], "chains_per_sec"),
        line("viterbi batch", result["viterbi_batch"], "chains_per_sec"),
        line("predictor warm loop", result["predictor_warm_loop"], "tables_per_sec"),
        line(
            "predictor warm batched",
            result["predictor_warm_batched"],
            "tables_per_sec",
        ),
        line("topic per table", result["topic_loop"], "tables_per_sec"),
        line("topic batched (8)", result["topic_batched"], "tables_per_sec"),
        f"  speedup               : {result['speedup_batched']:.1f}x end-to-end, "
        f"{result['speedup_viterbi_batch']:.1f}x decode, "
        f"{result['speedup_predictor_warm']:.1f}x warm predictor, "
        f"{result['speedup_topic_batched']:.1f}x topic inference "
        f"({result['n_topics']} topics)",
    ]
    emit("model_inference_throughput", "\n".join(lines))
    emit_json("model_inference_throughput", result)

    # The tentpole acceptance bar: batched end-to-end model inference.
    assert result["speedup_batched"] >= MIN_BATCHED_SPEEDUP
    assert result["speedup_topic_batched"] >= MIN_TOPIC_BATCHED_SPEEDUP
