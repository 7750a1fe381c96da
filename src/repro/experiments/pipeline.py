"""Shared experiment pipeline: corpus, model factories, Table 1 runs.

``run_main_results`` is the workhorse behind Table 1 and Figures 7-8: it
cross-validates Base, Sato, SatoNoStruct and SatoNoTopic on both Dmult and D
and caches the result per configuration so that multiple benchmarks reuse
one round of training.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable

from repro.corpus import CorpusConfig, CorpusGenerator, Dataset
from repro.evaluation.cross_validation import CrossValidationResult, evaluate_model_cv
from repro.experiments.config import ExperimentConfig
from repro.features import ColumnFeaturizer
from repro.models import SatoConfig, SatoModel, TrainingConfig

__all__ = ["MainResults", "build_corpus", "make_model_factories", "run_main_results"]

#: The four model variants evaluated in Table 1, in the paper's order.
MODEL_VARIANTS: tuple[str, ...] = ("Base", "Sato", "SatoNoStruct", "SatoNoTopic")


@dataclass
class MainResults:
    """Cross-validation results per dataset (Dmult, D) and model variant."""

    config: ExperimentConfig
    results: dict[str, dict[str, CrossValidationResult]] = field(default_factory=dict)

    def result(self, dataset: str, model: str) -> CrossValidationResult:
        """Result of one (dataset, model) cell of Table 1."""
        return self.results[dataset][model]

    def relative_improvement(self, dataset: str, model: str, metric: str = "macro") -> float:
        """Relative improvement of a model over Base in percent."""
        base = self.result(dataset, "Base")
        other = self.result(dataset, model)
        if metric == "macro":
            reference, value = base.macro_f1, other.macro_f1
        else:
            reference, value = base.weighted_f1, other.weighted_f1
        if reference <= 0:
            return 0.0
        return (value - reference) / reference * 100.0


def build_corpus(config: ExperimentConfig) -> Dataset:
    """Generate the synthetic corpus D for an experiment configuration."""
    corpus_config = CorpusConfig(
        n_tables=config.n_tables,
        min_rows=config.min_rows,
        max_rows=config.max_rows,
        singleton_rate=config.singleton_rate,
        seed=config.corpus_seed,
    )
    generator = CorpusGenerator(corpus_config)
    return Dataset(tables=generator.generate(), name="D")


def _training_config(config: ExperimentConfig) -> TrainingConfig:
    return TrainingConfig(
        n_epochs=config.nn_epochs,
        learning_rate=config.learning_rate,
        weight_decay=config.weight_decay,
        batch_size=config.batch_size,
        subnet_dim=config.subnet_dim,
        hidden_dim=config.hidden_dim,
        dropout=config.dropout,
        seed=config.seed,
    )


def _featurizer(config: ExperimentConfig) -> ColumnFeaturizer:
    return ColumnFeaturizer(
        word_dim=config.word_dim,
        para_dim=config.para_dim,
        seed=config.seed,
    )


def make_model_factories(
    config: ExperimentConfig,
) -> dict[str, Callable[[], SatoModel]]:
    """Factories building fresh instances of the four Table 1 variants."""

    def sato_config(use_topic: bool, use_struct: bool) -> SatoConfig:
        return SatoConfig(
            use_topic=use_topic,
            use_struct=use_struct,
            n_topics=config.n_topics,
            training=_training_config(config),
            crf_learning_rate=config.crf_learning_rate,
            crf_epochs=config.crf_epochs,
            crf_batch_size=config.crf_batch_size,
            seed=config.seed,
        )

    def factory(use_topic: bool, use_struct: bool) -> Callable[[], SatoModel]:
        def build() -> SatoModel:
            model = SatoModel(
                config=sato_config(use_topic, use_struct),
                featurizer=_featurizer(config),
            )
            if use_topic:
                # Keep the LDA budget under experiment control.
                model.column_model.intent_estimator.lda.n_iterations = config.lda_iterations
                model.column_model.intent_estimator.lda.infer_iterations = (
                    config.lda_infer_iterations
                )
            return model

        return build

    return {
        "Base": factory(False, False),
        "Sato": factory(True, True),
        "SatoNoStruct": factory(True, False),
        "SatoNoTopic": factory(False, True),
    }


@lru_cache(maxsize=4)
def run_main_results(config: ExperimentConfig) -> MainResults:
    """Cross-validate all four variants on Dmult and D (Table 1).

    Results are cached per configuration: Figures 7-9 and Table 4 reuse the
    same training rounds rather than re-fitting models.
    """
    dataset = build_corpus(config)
    dmult = dataset.multi_column()
    factories = make_model_factories(config)
    results: dict[str, dict[str, CrossValidationResult]] = {}
    for dataset_name, tables in (("Dmult", dmult.tables), ("D", dataset.tables)):
        results[dataset_name] = {}
        for model_name in MODEL_VARIANTS:
            results[dataset_name][model_name] = evaluate_model_cv(
                factories[model_name],
                tables,
                k=config.k_folds,
                seed=config.split_seed,
                model_name=model_name,
            )
    return MainResults(config=config, results=results)
