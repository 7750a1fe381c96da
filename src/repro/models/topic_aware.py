"""The topic-aware column model (global context).

Extends the Base model with an additional Topic subnetwork whose input is
the table's topic vector from the pre-trained LDA intent estimator.  Every
column of a table shares the same topic vector, so the model learns how
column types correlate with table-level context (Section 3.2).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.features import ColumnFeaturizer
from repro.models.base import TrainingConfig
from repro.models.column_network import GroupSpec, NetworkTrainer
from repro.models.sherlock import SherlockModel
from repro.tables import Table
from repro.topic import TableIntentEstimator
from repro.types import NUM_TYPES

__all__ = ["TopicAwareModel"]


class TopicAwareModel(SherlockModel):
    """Single-column model augmented with the table topic vector."""

    name = "TopicAware"

    def __init__(
        self,
        featurizer: ColumnFeaturizer | None = None,
        intent_estimator: TableIntentEstimator | None = None,
        config: TrainingConfig | None = None,
        n_classes: int = NUM_TYPES,
        n_topics: int = 64,
        compress_topic: bool = True,
    ) -> None:
        super().__init__(featurizer=featurizer, config=config, n_classes=n_classes)
        self.intent_estimator = intent_estimator or TableIntentEstimator(
            n_topics=n_topics, seed=self.config.seed
        )
        self.n_topics = self.intent_estimator.n_topics
        #: Whether the topic vector goes through its own compression
        #: subnetwork (the paper's architecture) or is concatenated directly.
        #: Direct concatenation can work better for small topic dimensions.
        self.compress_topic = compress_topic

    # ------------------------------------------------------------- training

    def fit(self, tables: Sequence[Table]) -> "TopicAwareModel":
        """Fit featurizer, intent estimator and network on labelled tables."""
        tables = list(tables)
        if not self.featurizer.is_fitted:
            self.featurizer.fit(tables)
        if not self.intent_estimator.is_fitted:
            # The LDA model is unsupervised: it sees values only (no labels).
            self.intent_estimator.fit([t.without_headers() for t in tables])

        features, targets, keep = self._labeled_training_arrays(tables)
        topics = self._column_topic_matrix(tables)[keep]

        topic_group = GroupSpec(
            name="topic", input_dim=self.n_topics, compress=self.compress_topic
        )
        self.network = self.build_network(extra_groups=[topic_group])
        self.trainer = NetworkTrainer(
            self.network,
            learning_rate=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
            batch_size=self.config.batch_size,
            n_epochs=self.config.n_epochs,
            class_weights=self._class_weights(targets),
            seed=self.config.seed,
        )
        inputs = self.split_features(features)
        inputs["topic"] = topics
        self.trainer.fit(inputs, targets)
        return self

    def _column_topic_matrix(self, tables: Sequence[Table]) -> np.ndarray:
        """Topic vector per *column* (columns of one table share the vector)."""
        tables = [table for table in tables if table.n_columns]
        vectors = self.intent_estimator.topic_vectors(tables)
        return np.repeat(vectors, [table.n_columns for table in tables], axis=0)

    # ------------------------------------------------------------ inference

    def predict_proba_from_features(
        self, features: np.ndarray, topics: np.ndarray | None = None
    ) -> np.ndarray:
        """Class probabilities from pre-computed features and topic vectors."""
        if self.network is None:
            raise RuntimeError("model is not fitted")
        features = np.atleast_2d(features)
        if topics is None:
            topics = np.full(
                (features.shape[0], self.n_topics), 1.0 / self.n_topics
            )
        inputs = self.split_features(features)
        inputs["topic"] = np.atleast_2d(topics)
        return self.network.predict_proba(inputs)

    def predict_proba_matrix(
        self, features: np.ndarray, topics: np.ndarray | None = None
    ) -> np.ndarray:
        """Uniform batched-inference entry point (uses the topic matrix)."""
        return self.predict_proba_from_features(features, topics)

    def predict_proba_table(self, table: Table) -> np.ndarray:
        if self.network is None:
            raise RuntimeError("model is not fitted")
        if not table.columns:
            return np.zeros((0, self.n_classes))
        features = self.featurizer.transform_table(table)
        topic = self.intent_estimator.topic_vector(table)
        topics = np.tile(topic, (features.shape[0], 1))
        return self.predict_proba_from_features(features, topics)

    def _batch_topic_rows(self, tables: Sequence[Table]) -> np.ndarray:
        """One topic row per column: each table's vector tiled over its columns."""
        return self._column_topic_matrix(tables)

    def column_embeddings(self, table: Table) -> np.ndarray:
        """Final hidden-layer activations per column (topic-aware)."""
        if self.network is None:
            raise RuntimeError("model is not fitted")
        features = self.featurizer.transform_table(table)
        topic = self.intent_estimator.topic_vector(table)
        inputs = self.split_features(features)
        inputs["topic"] = np.tile(topic, (features.shape[0], 1))
        return self.network.penultimate(inputs)

    # -------------------------------------------------------- serialisation

    def _extra_group_specs(self) -> list[GroupSpec]:
        return [
            GroupSpec(
                name="topic", input_dim=self.n_topics, compress=self.compress_topic
            )
        ]

    def _stateful_components(self) -> list[tuple[str, object]]:
        return super()._stateful_components() + [("intent", self.intent_estimator)]

    def config_dict(self) -> dict:
        config = super().config_dict()
        config["n_topics"] = self.n_topics
        config["compress_topic"] = self.compress_topic
        config["intent"] = self.intent_estimator.config_dict()
        return config
