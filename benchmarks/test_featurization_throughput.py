"""Featurization throughput: loop vs vectorized, cold and warm.

Per-column featurization is the serving bottleneck (Table 2 of the paper),
so its throughput is a tracked number, not a claim: this benchmark measures
columns/sec for

* the ``loop`` oracle (per-value Python,
  ``ColumnFeaturizer.reference_transform_columns``),
* the ``vectorized`` engine behind ``transform_columns``, cold (fresh
  engine, empty codepoint/token memos) and warm (steady-state serving),

verifies loop/vectorized parity on the same batch, and persists both a
human-readable report and a machine-readable JSON (uploaded as a CI
artifact) under ``benchmarks/results/``.
"""

from __future__ import annotations

import time

import numpy as np

from conftest import emit, emit_json, run_once

from repro.experiments.pipeline import build_corpus
from repro.features import ColumnFeaturizer

#: The tentpole acceptance bar: warm vectorized throughput must be at least
#: this many times the loop oracle's on the synthetic corpus.
MIN_VECTORIZED_SPEEDUP = 3.0

#: Replicate the corpus columns so every timing covers a serving-sized batch.
MIN_COLUMNS = 2000


def _timed(transform, columns) -> tuple[float, np.ndarray]:
    started = time.perf_counter()
    matrix = transform(columns)
    return time.perf_counter() - started, matrix


def _throughput_comparison(config) -> dict:
    tables = build_corpus(config).tables
    columns = [column for table in tables for column in table.columns]
    replicas = max(1, -(-MIN_COLUMNS // max(1, len(columns))))
    columns = columns * replicas
    n_columns = len(columns)

    featurizer = ColumnFeaturizer(
        word_dim=config.word_dim,
        para_dim=config.para_dim,
        seed=config.seed,
    )
    featurizer.fit(tables)

    loop_seconds, loop_matrix = _timed(featurizer.reference_transform_columns, columns)
    cold_seconds, vectorized_matrix = _timed(featurizer.transform_columns, columns)
    warm_seconds, _ = _timed(featurizer.transform_columns, columns)

    assert np.allclose(vectorized_matrix, loop_matrix, rtol=1e-6, atol=1e-9)

    def rate(seconds: float) -> float:
        return n_columns / max(seconds, 1e-9)

    return {
        "n_columns": n_columns,
        "n_features": featurizer.n_features,
        "loop": {"seconds": loop_seconds, "columns_per_sec": rate(loop_seconds)},
        "vectorized_cold": {
            "seconds": cold_seconds,
            "columns_per_sec": rate(cold_seconds),
        },
        "vectorized_warm": {
            "seconds": warm_seconds,
            "columns_per_sec": rate(warm_seconds),
        },
        "speedup_vectorized_cold": loop_seconds / max(cold_seconds, 1e-9),
        "speedup_vectorized_warm": loop_seconds / max(warm_seconds, 1e-9),
    }


def test_featurization_throughput(benchmark, config):
    result = run_once(benchmark, _throughput_comparison, config)

    def line(name: str, cell: dict) -> str:
        return (
            f"  {name:<16s}: {cell['seconds']:7.3f}s "
            f"({cell['columns_per_sec']:>10,.0f} columns/sec)"
        )

    lines = [
        "Featurization throughput: loop vs vectorized "
        f"({result['n_columns']} columns x {result['n_features']} features)",
        line("loop", result["loop"]),
        line("vectorized cold", result["vectorized_cold"]),
        line("vectorized warm", result["vectorized_warm"]),
        f"  speedup (warm)  : {result['speedup_vectorized_warm']:.1f}x vectorized",
    ]
    emit("featurization_throughput", "\n".join(lines))
    emit_json("featurization_throughput", result)

    # The acceptance bar for the vectorized engine, on steady-state traffic.
    assert result["speedup_vectorized_warm"] >= MIN_VECTORIZED_SPEEDUP
    # A fresh engine must already beat the loop clearly, memos empty and all.
    assert result["speedup_vectorized_cold"] > 1.5
