"""Permutation feature importance (Figure 9).

For each fitted model and feature group, the group's features are shuffled
*across tables* (columns keep their other features), predictions are re-run
and the drop in macro / support-weighted F1 is recorded.  Shuffling a
crucial group breaks the input-output relationship and causes a large drop;
the normalised drop is the importance score.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.evaluation.metrics import classification_report
from repro.models.sato import SatoModel
from repro.models.sherlock import SherlockModel
from repro.models.topic_aware import TopicAwareModel
from repro.tables import Table
from repro.types import INDEX_TO_TYPE

__all__ = ["GroupImportance", "permutation_importance"]

_LOG_EPS = 1e-12


@dataclass
class GroupImportance:
    """Importance of one feature group: normalised drop in F1."""

    group: str
    macro_drop: float
    weighted_drop: float


def _resolve_models(model) -> tuple[SherlockModel, SatoModel | None]:
    """Return (column-wise model, optional Sato wrapper with CRF)."""
    if isinstance(model, SatoModel):
        return model.column_model, model
    if isinstance(model, SherlockModel):
        return model, None
    raise TypeError(f"unsupported model type {type(model)!r}")


def _predict(
    column_model: SherlockModel,
    sato: SatoModel | None,
    table_features: list[np.ndarray],
    table_topics: list[np.ndarray | None],
) -> list[list[str]]:
    predictions: list[list[str]] = []
    use_struct = sato is not None and sato.config.use_struct and sato.crf is not None
    for features, topics in zip(table_features, table_topics):
        if isinstance(column_model, TopicAwareModel):
            probabilities = column_model.predict_proba_from_features(features, topics)
        else:
            probabilities = column_model.predict_proba_from_features(features)
        if use_struct and probabilities.shape[0] > 1:
            unary = np.log(probabilities + _LOG_EPS)
            indices = sato.crf.viterbi(unary)
        else:
            indices = probabilities.argmax(axis=1)
        predictions.append([INDEX_TO_TYPE[int(i)] for i in indices])
    return predictions


def _score(tables: Sequence[Table], predictions: list[list[str]]) -> tuple[float, float]:
    y_true: list[str] = []
    y_pred: list[str] = []
    for table, predicted in zip(tables, predictions):
        for column, label in zip(table.columns, predicted):
            if column.semantic_type is not None:
                y_true.append(column.semantic_type)
                y_pred.append(label)
    report = classification_report(y_true, y_pred)
    return report.macro_f1, report.weighted_f1


def permutation_importance(
    model,
    tables: Sequence[Table],
    groups: Sequence[str] | None = None,
    n_repeats: int = 3,
    seed: int = 0,
    normalize: bool = True,
) -> dict[str, GroupImportance]:
    """Permutation importance of feature groups for a fitted model.

    Parameters
    ----------
    model:
        A fitted :class:`SherlockModel`, :class:`TopicAwareModel` or
        :class:`SatoModel`.
    tables:
        Evaluation tables (typically a test fold).
    groups:
        Feature groups to evaluate.  Defaults to the model's column feature
        groups plus ``"topic"`` when the model is topic-aware.
    n_repeats:
        Number of random shuffles per group (the drop is averaged).
    normalize:
        Report drops relative to the baseline score (as percentages of the
        baseline), matching the "normalised drop" of the paper.
    """
    column_model, sato = _resolve_models(model)
    tables = [t for t in tables if t.n_columns > 0]
    rng = np.random.default_rng(seed)

    table_features = [column_model.featurizer.transform_table(t) for t in tables]
    is_topic_aware = isinstance(column_model, TopicAwareModel)
    if is_topic_aware:
        vectors = column_model.intent_estimator.topic_vectors(tables)
        table_topics: list[np.ndarray | None] = [
            np.tile(vector, (features.shape[0], 1))
            for vector, features in zip(vectors, table_features)
        ]
    else:
        table_topics = [None] * len(tables)

    if groups is None:
        groups = [g.name for g in column_model.featurizer.groups]
        if is_topic_aware:
            groups = ["topic"] + groups

    baseline_macro, baseline_weighted = _score(
        tables, _predict(column_model, sato, table_features, table_topics)
    )

    importances: dict[str, GroupImportance] = {}
    column_counts = [f.shape[0] for f in table_features]
    total_columns = int(sum(column_counts))
    for group_name in groups:
        macro_drops: list[float] = []
        weighted_drops: list[float] = []
        for _ in range(n_repeats):
            if group_name == "topic":
                if not is_topic_aware:
                    continue
                order = rng.permutation(len(tables))
                shuffled_topics = []
                for i, count in enumerate(column_counts):
                    source = table_topics[order[i]]
                    row = source[0] if source is not None and len(source) else np.zeros(
                        column_model.n_topics
                    )
                    shuffled_topics.append(np.tile(row, (count, 1)))
                predictions = _predict(
                    column_model, sato, table_features, shuffled_topics
                )
            else:
                group = column_model.featurizer.groups[
                    [g.name for g in column_model.featurizer.groups].index(group_name)
                ]
                stacked = np.concatenate(table_features, axis=0)
                permuted = stacked.copy()
                permutation = rng.permutation(total_columns)
                permuted[:, group.slice] = stacked[permutation][:, group.slice]
                shuffled_features = []
                offset = 0
                for count in column_counts:
                    shuffled_features.append(permuted[offset: offset + count])
                    offset += count
                predictions = _predict(
                    column_model, sato, shuffled_features, table_topics
                )
            macro, weighted = _score(tables, predictions)
            macro_drops.append(baseline_macro - macro)
            weighted_drops.append(baseline_weighted - weighted)
        if not macro_drops:
            continue
        macro_drop = float(np.mean(macro_drops))
        weighted_drop = float(np.mean(weighted_drops))
        if normalize:
            # Guard the denominator: with a near-zero baseline the normalised
            # drop would explode and stop being interpretable.
            macro_drop = macro_drop / max(baseline_macro, 0.05) * 100.0
            weighted_drop = weighted_drop / max(baseline_weighted, 0.05) * 100.0
        importances[group_name] = GroupImportance(
            group=group_name, macro_drop=macro_drop, weighted_drop=weighted_drop
        )
    return importances
