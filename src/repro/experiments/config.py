"""Experiment configuration presets.

The paper's full setting (80K tables, 400 topics, 100 epochs, 5 folds) is
far beyond what an offline CI run should attempt, so the default
configuration is scaled down while keeping every pipeline stage intact.
``ExperimentConfig.paper()`` documents the full-scale parameters;
``ExperimentConfig.tiny()`` is what unit tests use.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.registry.gates import (
    DEFAULT_GATE_MIN_AGREEMENT,
    DEFAULT_GATE_MIN_F1,
    DEFAULT_SUITE_REGRESSION_TOLERANCE,
)
from repro.registry.watch import DEFAULT_WATCH_INTERVAL
from repro.serving.scheduler import (
    DEFAULT_MAX_BATCH_SIZE,
    DEFAULT_MAX_QUEUE,
    DEFAULT_MAX_WAIT_MS,
)

__all__ = ["ExperimentConfig"]


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of one experiment run (hashable so results can be cached)."""

    # Corpus
    n_tables: int = 300
    min_rows: int = 4
    max_rows: int = 18
    singleton_rate: float = 0.3
    corpus_seed: int = 13

    # Evaluation protocol
    k_folds: int = 3
    split_seed: int = 0

    # Featurizer
    word_dim: int = 24
    para_dim: int = 16
    feature_backend: str = "vectorized"

    # Batch inference (structured decode backend; see docs/performance.md)
    model_backend: str = "batched"

    # Bulk ingestion (streaming chunked annotate; see docs/ingest.md)
    ingest_chunk_rows: int = 4096
    # Persistent column-sketch store for incremental re-annotation
    # (directory path or None = off; see docs/performance.md).  The
    # sample dial bounds featurization of store misses to each column's
    # first N values; fingerprints always cover the full content.
    sketch_store: str | None = None
    sketch_sample_rows: int | None = None

    # Online serving (micro-batching policy; see docs/operations.md)
    serve_max_batch_size: int = DEFAULT_MAX_BATCH_SIZE
    serve_max_wait_ms: float = DEFAULT_MAX_WAIT_MS
    serve_max_queue: int = DEFAULT_MAX_QUEUE
    # Prefork worker fleet over a shared-memory bundle (0 = single process)
    serve_fleet_workers: int = 0

    # Model lifecycle (registry hot-swap + shadow/canary; see docs/registry.md)
    registry_watch_interval: float = DEFAULT_WATCH_INTERVAL
    serve_shadow_fraction: float = 0.1
    gate_min_macro_f1: float = DEFAULT_GATE_MIN_F1
    gate_min_agreement: float = DEFAULT_GATE_MIN_AGREEMENT
    # Per-suite promotion criteria (hard-case eval suites; docs/corpus_spec.md).
    # Empty tuple = no suite gates; names match specs/<name>.json.
    gate_suites: tuple = ()
    gate_suite_preset: str = "tiny"
    gate_suite_tolerance: float = DEFAULT_SUITE_REGRESSION_TOLERANCE

    # Topic model
    n_topics: int = 24
    lda_iterations: int = 15
    lda_infer_iterations: int = 16

    # Column network
    nn_epochs: int = 30
    learning_rate: float = 3e-3
    weight_decay: float = 1e-4
    batch_size: int = 64
    subnet_dim: int = 32
    hidden_dim: int = 64
    dropout: float = 0.2

    # CRF
    crf_epochs: int = 6
    crf_learning_rate: float = 1e-2
    crf_batch_size: int = 10

    seed: int = 7

    @classmethod
    def tiny(cls) -> "ExperimentConfig":
        """Smallest configuration that still exercises every component."""
        return cls(
            n_tables=70,
            max_rows=10,
            k_folds=2,
            word_dim=16,
            para_dim=12,
            n_topics=8,
            lda_iterations=6,
            lda_infer_iterations=6,
            nn_epochs=6,
            subnet_dim=16,
            hidden_dim=32,
            crf_epochs=3,
        )

    @classmethod
    def fast(cls) -> "ExperimentConfig":
        """Default benchmark configuration (minutes, not hours)."""
        return cls()

    @classmethod
    def large(cls) -> "ExperimentConfig":
        """A larger offline run for closer-to-paper behaviour."""
        return cls(
            n_tables=1500,
            k_folds=5,
            n_topics=64,
            nn_epochs=50,
            learning_rate=1e-3,
            hidden_dim=128,
            subnet_dim=64,
            word_dim=48,
            para_dim=32,
            crf_epochs=10,
        )

    @classmethod
    def paper(cls) -> "ExperimentConfig":
        """The paper's own setting, documented for reference.

        Running this offline is possible but slow: 80K tables, 400 LDA
        topics, 100 training epochs, 5-fold cross-validation.
        """
        return cls(
            n_tables=80000,
            k_folds=5,
            n_topics=400,
            nn_epochs=100,
            learning_rate=1e-4,
            hidden_dim=256,
            subnet_dim=128,
            word_dim=200,
            para_dim=400,
            crf_epochs=15,
        )
