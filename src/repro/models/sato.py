"""The full Sato model and its ablation variants.

Sato = a column-wise model (topic-aware by default) providing unary
potentials + a linear-chain CRF over the columns of each table providing the
local context.  The four paper configurations are:

============== =========== ================
variant        topic-aware structured (CRF)
============== =========== ================
``Base``       no          no
``SatoNoTopic``no          yes
``SatoNoStruct``yes        no
``Sato``       yes         yes
============== =========== ================
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Sequence

import numpy as np

from repro.corpus.statistics import adjacent_cooccurrence_matrix
from repro.crf import CRFTrainer, CRFTrainingExample, LinearChainCRF
from repro.features import ColumnFeaturizer
from repro.models.base import ColumnModel, TrainingConfig
from repro.models.batched import _LOG_EPS, pad_unaries
from repro.models.sherlock import SherlockModel
from repro.models.topic_aware import TopicAwareModel
from repro.obs import span
from repro.tables import Table
from repro.types import INDEX_TO_TYPE, NUM_TYPES, TYPE_TO_INDEX

__all__ = ["SatoConfig", "SatoModel"]


@dataclass
class SatoConfig:
    """Configuration of the full Sato pipeline."""

    #: Include the topic-aware (global context) module.
    use_topic: bool = True
    #: Include the structured-prediction (CRF / local context) module.
    use_struct: bool = True
    #: Topic-vector dimensionality (paper default: 400).
    n_topics: int = 64
    #: Column-network training hyper-parameters.
    training: TrainingConfig = field(default_factory=TrainingConfig)
    #: CRF training hyper-parameters (paper: lr 1e-2, 15 epochs, batch 10).
    crf_learning_rate: float = 1e-2
    crf_epochs: int = 15
    crf_batch_size: int = 10
    #: Initialise CRF pairwise potentials from adjacent co-occurrence counts.
    crf_cooccurrence_init: bool = True
    seed: int = 0


class SatoModel(ColumnModel):
    """Hybrid semantic type detection model (topic-aware + CRF)."""

    def __init__(
        self,
        config: SatoConfig | None = None,
        featurizer: ColumnFeaturizer | None = None,
        column_model: SherlockModel | None = None,
    ) -> None:
        self.config = config or SatoConfig()
        if column_model is not None:
            self.column_model = column_model
        elif self.config.use_topic:
            self.column_model = TopicAwareModel(
                featurizer=featurizer,
                config=self.config.training,
                n_topics=self.config.n_topics,
            )
        else:
            self.column_model = SherlockModel(
                featurizer=featurizer, config=self.config.training
            )
        self.crf: LinearChainCRF | None = None
        self.name = self._variant_name()

    def _variant_name(self) -> str:
        if self.config.use_topic and self.config.use_struct:
            return "Sato"
        if self.config.use_topic:
            return "SatoNoStruct"
        if self.config.use_struct:
            return "SatoNoTopic"
        return "Base"

    # ------------------------------------------------------------ variants

    @classmethod
    def full(cls, **kwargs) -> "SatoModel":
        """The complete Sato model (topic + CRF)."""
        return cls(config=SatoConfig(use_topic=True, use_struct=True, **kwargs))

    @classmethod
    def no_topic(cls, **kwargs) -> "SatoModel":
        """Ablation: CRF over Base outputs, no topic features."""
        return cls(config=SatoConfig(use_topic=False, use_struct=True, **kwargs))

    @classmethod
    def no_struct(cls, **kwargs) -> "SatoModel":
        """Ablation: topic-aware prediction only, no CRF."""
        return cls(config=SatoConfig(use_topic=True, use_struct=False, **kwargs))

    @classmethod
    def base(cls, **kwargs) -> "SatoModel":
        """The single-column Base model wrapped in the Sato interface."""
        return cls(config=SatoConfig(use_topic=False, use_struct=False, **kwargs))

    # ------------------------------------------------------------- training

    def fit(self, tables: Sequence[Table]) -> "SatoModel":
        """Train the column-wise model, then (optionally) the CRF layer."""
        tables = list(tables)
        self.column_model.fit(tables)
        if self.config.use_struct:
            self._fit_crf(tables)
        return self

    def fit_structured(self, tables: Sequence[Table]) -> "SatoModel":
        """Train only the CRF layer, assuming the column model is already fitted.

        Useful when plugging in an externally trained column model (the
        Section 6 extensibility scenario) where only the structured layer
        still needs training.
        """
        if not self.config.use_struct:
            raise ValueError("fit_structured requires use_struct=True")
        self._fit_crf(list(tables))
        return self

    def _fit_crf(self, tables: Sequence[Table]) -> None:
        multi = [t for t in tables if t.n_columns > 1 and t.is_fully_labeled]
        if self.config.crf_cooccurrence_init and multi:
            cooccurrence = adjacent_cooccurrence_matrix(multi)
            self.crf = LinearChainCRF.from_cooccurrence(cooccurrence, scale=0.5)
        else:
            self.crf = LinearChainCRF(n_states=NUM_TYPES)
        # Column-wise scores for every example, from one batched call.
        scores = self.column_model.predict_proba_tables(multi)
        examples = []
        for table, probabilities in zip(multi, scores):
            unary = np.log(probabilities + _LOG_EPS)
            labels = np.array(
                [TYPE_TO_INDEX[c.semantic_type] for c in table.columns], dtype=np.int64
            )
            examples.append(CRFTrainingExample(unary=unary, labels=labels))
        trainer = CRFTrainer(
            self.crf,
            learning_rate=self.config.crf_learning_rate,
            n_epochs=self.config.crf_epochs,
            batch_size=self.config.crf_batch_size,
            seed=self.config.seed,
        )
        trainer.fit(examples)

    # ------------------------------------------------------------ inference

    def _crf_active(self, probabilities: np.ndarray) -> bool:
        return (
            self.config.use_struct
            and self.crf is not None
            and probabilities.shape[0] > 1
        )

    def marginals_from_proba(self, probabilities: np.ndarray) -> np.ndarray:
        """Structured per-column distributions given column-wise scores.

        With the CRF enabled and more than one column these are the CRF
        posterior marginals; otherwise the scores pass through unchanged.
        The batched serving path computes column-wise scores for many tables
        in one forward pass and then calls this per table.
        """
        if self._crf_active(probabilities):
            assert self.crf is not None
            unary = np.log(probabilities + _LOG_EPS)
            return self.crf.marginals(unary)
        return probabilities

    def labels_from_proba(self, probabilities: np.ndarray) -> list[str]:
        """Decoded semantic types given column-wise scores (Viterbi when on)."""
        if self._crf_active(probabilities):
            assert self.crf is not None
            unary = np.log(probabilities + _LOG_EPS)
            indices = self.crf.viterbi(unary)
        else:
            indices = probabilities.argmax(axis=1)
        return [INDEX_TO_TYPE[int(i)] for i in indices]

    def labels_from_proba_batch(
        self, probabilities: Sequence[np.ndarray]
    ) -> list[list[str]]:
        """Batched structured decode given per-table column-wise scores.

        Tables the CRF applies to (structured variant, fitted CRF, more
        than one column) are packed into one padded unary tensor and
        decoded together by one masked
        :meth:`~repro.crf.LinearChainCRF.viterbi_batch` recurrence; all
        remaining columns are decoded by one ``argmax`` over their
        concatenation.  Decoded labels are bit-identical to calling
        :meth:`labels_from_proba` per table.  This is the serving hot path.
        """
        probabilities = list(probabilities)
        results: list[list[str] | None] = [None] * len(probabilities)
        structured = [
            i for i, proba in enumerate(probabilities) if self._crf_active(proba)
        ]
        structured_set = set(structured)
        independent = [i for i in range(len(probabilities)) if i not in structured_set]

        if independent:
            with span("decode.argmax", n_tables=len(independent)):
                matrices = [probabilities[i] for i in independent]
                lengths = [matrix.shape[0] for matrix in matrices]
                if sum(lengths):
                    flat = np.argmax(np.concatenate(matrices, axis=0), axis=1)
                else:
                    flat = np.zeros(0, dtype=np.int64)
                offset = 0
                for i, length in zip(independent, lengths):
                    results[i] = [
                        INDEX_TO_TYPE[int(k)] for k in flat[offset : offset + length]
                    ]
                    offset += length

        if structured:
            assert self.crf is not None
            unaries, lengths = pad_unaries(
                [probabilities[i] for i in structured], self.crf.n_states
            )
            decoded_chains = self.crf.viterbi_batch(unaries, lengths)
            for i, decoded in zip(structured, decoded_chains):
                results[i] = [INDEX_TO_TYPE[int(k)] for k in decoded]

        return results  # type: ignore[return-value]

    def predict_proba_table(self, table: Table) -> np.ndarray:
        """Per-column type distributions.

        With the CRF enabled and a multi-column table, these are the CRF
        posterior marginals; otherwise they are the column-wise scores.
        """
        return self.marginals_from_proba(self.column_model.predict_proba_table(table))

    def predict_table(self, table: Table) -> list[str]:
        """Predicted semantic type per column (Viterbi when the CRF is on).

        One table at a time: the parity oracle of :meth:`predict_tables`.
        """
        return self.labels_from_proba(self.column_model.predict_proba_table(table))

    def predict_tables(self, tables: Sequence[Table]) -> list[list[str]]:
        """Predicted types for a batch of tables.

        One featurization call, one column-network forward pass and one
        masked Viterbi over the whole batch; the labels equal
        :meth:`predict_table` run on each table.
        """
        return self.labels_from_proba_batch(
            self.column_model.predict_proba_tables(tables)
        )

    def predict_proba_tables(self, tables: Sequence[Table]) -> list[np.ndarray]:
        """Structured per-column distributions for a batch of tables.

        Featurization and the forward pass are batched; the CRF *marginal*
        decode (unlike Viterbi) still runs per table — posterior marginals
        need a full forward-backward per chain and are off the
        label-serving hot path.
        """
        return [
            self.marginals_from_proba(proba)
            for proba in self.column_model.predict_proba_tables(tables)
        ]

    def column_embeddings(self, table: Table) -> np.ndarray:
        """Column embeddings from the column-wise model (before the CRF)."""
        return self.column_model.column_embeddings(table)

    # -------------------------------------------------------- serialisation

    def config_dict(self) -> dict:
        """JSON-serialisable configuration of the whole pipeline."""
        config = asdict(self.config)
        return {
            "variant": self.name,
            "sato": config,
            "column_model": self.column_model.config_dict(),
            "crf": self.crf.config_dict() if self.crf is not None else None,
        }

    def state_dict(self) -> dict[str, np.ndarray]:
        """Serialisable fitted state: column model + optional CRF."""
        state = {
            f"column_model.{key}": value
            for key, value in self.column_model.state_dict().items()
        }
        if self.crf is not None:
            for key, value in self.crf.state_dict().items():
                state[f"crf.{key}"] = value
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore a fitted model (column model + CRF) without retraining."""
        self.column_model.load_state_dict(
            {
                k[len("column_model."):]: v
                for k, v in state.items()
                if k.startswith("column_model.")
            }
        )
        crf_state = {
            k[len("crf."):]: v for k, v in state.items() if k.startswith("crf.")
        }
        if crf_state:
            self.crf = LinearChainCRF(n_states=NUM_TYPES)
            self.crf.load_state_dict(crf_state)
        else:
            self.crf = None

    def save(self, path) -> None:
        """Persist this fitted model as an artifact bundle directory."""
        from repro.serving import save_model

        save_model(self, path)

    @classmethod
    def load(cls, path) -> "SatoModel":
        """Load a fitted model from an artifact bundle directory."""
        from repro.serving import load_model

        return load_model(path)
