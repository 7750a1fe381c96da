"""Experiment configuration presets.

The paper's full setting (80K tables, 400 topics, 100 epochs, 5 folds) is
far beyond what an offline CI run should attempt, so the default
configuration is scaled down while keeping every pipeline stage intact.
``ExperimentConfig.paper()`` documents the full-scale parameters;
``ExperimentConfig.tiny()`` is what unit tests use.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    # Bulk ingestion (streaming chunked annotate; see docs/ingest.md)
    ingest_chunk_rows: int = 4096

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
