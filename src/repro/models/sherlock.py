"""The single-column Base model (Sherlock re-implementation).

A multi-input feed-forward network over the Char / Word / Para / Stat
feature groups of a single column.  This is the paper's ``Base`` baseline
and the foundation the topic-aware model extends.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Sequence

import numpy as np

from repro.features import ColumnFeaturizer
from repro.models.base import ColumnModel, TrainingConfig
from repro.models.batched import split_by_table
from repro.models.column_network import GroupSpec, MultiInputClassifier, NetworkTrainer
from repro.tables import Table
from repro.types import NUM_TYPES, TYPE_TO_INDEX

__all__ = ["SherlockModel"]


class SherlockModel(ColumnModel):
    """Single-column semantic type classifier (the Base model)."""

    name = "Base"

    def __init__(
        self,
        featurizer: ColumnFeaturizer | None = None,
        config: TrainingConfig | None = None,
        n_classes: int = NUM_TYPES,
    ) -> None:
        self.featurizer = featurizer or ColumnFeaturizer()
        self.config = config or TrainingConfig()
        self.n_classes = n_classes
        self.network: MultiInputClassifier | None = None
        self.trainer: NetworkTrainer | None = None

    # ------------------------------------------------------------- plumbing

    def _group_specs(self) -> list[GroupSpec]:
        specs = []
        for group in self.featurizer.groups:
            specs.append(
                GroupSpec(
                    name=group.name,
                    input_dim=group.size,
                    compress=group.name != "stat",
                )
            )
        return specs

    def split_features(self, features: np.ndarray) -> dict[str, np.ndarray]:
        """Split a full feature matrix into per-group inputs."""
        features = np.atleast_2d(features)
        return {
            group.name: features[:, group.slice]
            for group in self.featurizer.groups
        }

    def _class_weights(self, targets: np.ndarray) -> np.ndarray | None:
        if not self.config.use_class_weights:
            return None
        counts = np.bincount(targets, minlength=self.n_classes).astype(np.float64)
        weights = np.zeros(self.n_classes, dtype=np.float64)
        seen = counts > 0
        weights[seen] = counts[seen].sum() / (seen.sum() * counts[seen])
        # Clip so that extremely rare classes do not dominate the loss.
        return np.clip(weights, 0.1, 10.0)

    def _labeled_training_arrays(
        self, tables: Sequence[Table]
    ) -> tuple[np.ndarray, np.ndarray, list[int]]:
        feature_matrix = self.featurizer.transform_tables(list(tables))
        keep = [
            i
            for i, label in enumerate(feature_matrix.labels)
            if label in TYPE_TO_INDEX
        ]
        features = feature_matrix.matrix[keep]
        targets = np.array(
            [TYPE_TO_INDEX[feature_matrix.labels[i]] for i in keep], dtype=np.int64
        )
        return features, targets, keep

    # ------------------------------------------------------------- training

    def build_network(self, extra_groups: list[GroupSpec] | None = None) -> MultiInputClassifier:
        """Construct the multi-input network (optionally with extra groups)."""
        specs = self._group_specs()
        if extra_groups:
            specs = specs + list(extra_groups)
        return MultiInputClassifier(
            groups=specs,
            n_classes=self.n_classes,
            subnet_dim=self.config.subnet_dim,
            hidden_dim=self.config.hidden_dim,
            dropout=self.config.dropout,
            seed=self.config.seed,
        )

    def fit(self, tables: Sequence[Table]) -> "SherlockModel":
        """Fit the featurizer and train the network on labelled tables."""
        tables = list(tables)
        if not self.featurizer.is_fitted:
            self.featurizer.fit(tables)
        features, targets, _ = self._labeled_training_arrays(tables)
        self.network = self.build_network()
        self.trainer = NetworkTrainer(
            self.network,
            learning_rate=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
            batch_size=self.config.batch_size,
            n_epochs=self.config.n_epochs,
            class_weights=self._class_weights(targets),
            seed=self.config.seed,
        )
        self.trainer.fit(self.split_features(features), targets)
        return self

    # ------------------------------------------------------------ inference

    def predict_proba_from_features(self, features: np.ndarray) -> np.ndarray:
        """Class probabilities from pre-computed column features."""
        if self.network is None:
            raise RuntimeError("model is not fitted")
        return self.network.predict_proba(self.split_features(features))

    def predict_proba_matrix(
        self, features: np.ndarray, topics: np.ndarray | None = None
    ) -> np.ndarray:
        """Uniform batched-inference entry point.

        Accepts the features of any number of columns (possibly spanning many
        tables) plus an optional per-column topic matrix, which the base
        model ignores.  Subclasses with extra input groups override this.
        """
        return self.predict_proba_from_features(features)

    def predict_proba_table(self, table: Table) -> np.ndarray:
        if self.network is None:
            raise RuntimeError("model is not fitted")
        if not table.columns:
            return np.zeros((0, self.n_classes))
        features = self.featurizer.transform_table(table)
        return self.predict_proba_from_features(features)

    def _batch_topic_rows(self, tables: Sequence[Table]) -> np.ndarray | None:
        """Per-column topic rows for a batch (None for topic-free models)."""
        return None

    def predict_proba_tables(self, tables: Sequence[Table]) -> list[np.ndarray]:
        """Column-wise class scores for many tables from one forward pass.

        Every column of every table is featurized in one batched call and
        pushed through the network as a single matrix (one matmul per
        layer); the stacked score matrix is then split back per table.
        """
        if self.network is None:
            raise RuntimeError("model is not fitted")
        tables = list(tables)
        columns = [column for table in tables for column in table.columns]
        if not columns:
            return [np.zeros((0, self.n_classes)) for _ in tables]
        features = self.featurizer.transform_columns(columns)
        probabilities = self.predict_proba_matrix(
            features, self._batch_topic_rows(tables)
        )
        return split_by_table(probabilities, tables)

    def column_embeddings(self, table: Table) -> np.ndarray:
        """Final hidden-layer activations per column."""
        if self.network is None:
            raise RuntimeError("model is not fitted")
        features = self.featurizer.transform_table(table)
        return self.network.penultimate(self.split_features(features))

    # -------------------------------------------------------- serialisation

    def _extra_group_specs(self) -> list[GroupSpec]:
        """Input groups beyond the featurizer's (none for the base model)."""
        return []

    def _stateful_components(self) -> list[tuple[str, object]]:
        """Named sub-components persisted alongside the network."""
        return [("featurizer", self.featurizer)]

    def config_dict(self) -> dict:
        """JSON-serialisable configuration of the whole column model.

        The network architecture entry is informational (the loader rebuilds
        the network from the featurizer's group layout), but it makes the
        manifest self-describing for inspection and debugging.
        """
        config = {
            "type": type(self).__name__,
            "n_classes": self.n_classes,
            "training": asdict(self.config),
            "featurizer": self.featurizer.config_dict(),
        }
        if self.network is not None:
            config["network"] = self.network.config_dict()
        return config

    def state_dict(self) -> dict[str, np.ndarray]:
        """Serialisable fitted state: sub-components + network weights."""
        if self.network is None:
            raise RuntimeError("model is not fitted")
        state: dict[str, np.ndarray] = {}
        for name, component in self._stateful_components():
            for key, value in component.state_dict().items():
                state[f"{name}.{key}"] = value
        for key, value in self.network.state_dict().items():
            state[f"network.{key}"] = value
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore a fitted model without retraining.

        Sub-components are restored first, then the network is rebuilt from
        the (restored) featurizer's group layout and its weights loaded.
        """
        for name, component in self._stateful_components():
            prefix = f"{name}."
            component.load_state_dict(
                {k[len(prefix):]: v for k, v in state.items() if k.startswith(prefix)}
            )
        self.network = self.build_network(extra_groups=self._extra_group_specs())
        self.network.load_state_dict(
            {k[len("network."):]: v for k, v in state.items() if k.startswith("network.")}
        )
