"""The combined column featurizer.

Produces one fixed-length feature vector per column, organised into the
Sherlock feature groups (Char / Word / Para / Stat).  The featurizer is
*fitted* on training tables (to train the word and paragraph embedding
substrate and the feature standardiser) and then applied to any column.

The per-group index slices are exposed so that

* the models can route each group through its own subnetwork, and
* the permutation-importance analysis (Figure 9) can shuffle one group at a
  time across tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.embeddings import ParagraphEmbedder, WordEmbeddingModel, tokenize_values
from repro.features.char_features import CHAR_FEATURE_NAMES, char_features
from repro.features.stats_features import STAT_FEATURE_NAMES, column_statistics
from repro.tables import Column, Table

__all__ = ["FeatureGroup", "FeatureMatrix", "ColumnFeaturizer"]


@dataclass(frozen=True)
class FeatureGroup:
    """Name and index range of one feature group inside the full vector."""

    name: str
    start: int
    stop: int

    @property
    def size(self) -> int:
        """Number of features in the group."""
        return self.stop - self.start

    @property
    def slice(self) -> slice:
        """The slice selecting this group from a feature vector."""
        return slice(self.start, self.stop)


@dataclass
class FeatureMatrix:
    """Features for a set of columns, with group metadata and labels."""

    matrix: np.ndarray
    groups: tuple[FeatureGroup, ...]
    labels: list[str | None]
    table_ids: list[str | None]
    column_positions: list[int]

    def __len__(self) -> int:
        return self.matrix.shape[0]

    def group(self, name: str) -> FeatureGroup:
        """Return a group by name."""
        for group in self.groups:
            if group.name == name:
                return group
        raise KeyError(f"unknown feature group {name!r}")


class ColumnFeaturizer:
    """Extracts Char / Word / Para / Stat features for table columns.

    Parameters
    ----------
    word_dim:
        Dimensionality of the Word embedding features.
    para_dim:
        Dimensionality of the Para(graph) embedding features.
    max_tokens_per_column:
        Token budget per column when computing embedding features (keeps the
        cost of very long columns bounded).
    standardize:
        Whether to z-score features using statistics from :meth:`fit`.

    Columns are featurized by batched NumPy array ops
    (:class:`~repro.features.engine.VectorizedEngine`);
    :meth:`reference_transform_columns` is the per-value Python loop they
    are tested against.
    """

    def __init__(
        self,
        word_dim: int = 48,
        para_dim: int = 32,
        max_tokens_per_column: int = 256,
        standardize: bool = True,
        min_token_count: int = 2,
        seed: int = 0,
    ) -> None:
        self.word_dim = word_dim
        self.para_dim = para_dim
        self.max_tokens_per_column = max_tokens_per_column
        self.standardize = standardize
        self.min_token_count = min_token_count
        self.seed = seed
        self.word_model = WordEmbeddingModel(
            dim=word_dim, min_count=min_token_count, seed=seed
        )
        self.paragraph_embedder = ParagraphEmbedder(
            self.word_model, dim=para_dim, seed=seed
        )
        self._mean: np.ndarray | None = None
        self._std: np.ndarray | None = None
        self._groups: tuple[FeatureGroup, ...] | None = None
        self._engine = None
        self._fitted = False

    # ------------------------------------------------------------------ fit

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has completed."""
        return self._fitted

    @property
    def groups(self) -> tuple[FeatureGroup, ...]:
        """Per-group slices of the full feature vector."""
        if self._groups is None:
            char_size = len(CHAR_FEATURE_NAMES)
            stat_size = len(STAT_FEATURE_NAMES)
            boundaries = [
                ("char", char_size),
                ("word", self.word_dim),
                ("para", self.para_dim),
                ("stat", stat_size),
            ]
            groups = []
            start = 0
            for name, size in boundaries:
                groups.append(FeatureGroup(name=name, start=start, stop=start + size))
                start += size
            self._groups = tuple(groups)
        return self._groups

    @property
    def n_features(self) -> int:
        """Total feature dimensionality."""
        return self.groups[-1].stop

    def fit(self, tables: Iterable[Table]) -> "ColumnFeaturizer":
        """Fit the embedding substrate and the standardiser on training tables.

        Delegates to :meth:`fit_stream` over whole-table single-chunk
        streams, so the in-memory path and the streamed path are one code
        path (and therefore bit-identical for any chunk size).
        """
        from repro.tables.chunks import stream_tables

        return self.fit_stream(stream_tables(list(tables)))

    def fit_stream(self, streams) -> "ColumnFeaturizer":
        """Fit from an iterable of :class:`~repro.tables.TableStream`.

        Each stream's chunks are folded into one
        :class:`~repro.features.accumulators.ColumnAccumulator` per
        column, so memory is proportional to the number of columns (plus
        distinct values per column), never the row count.  The result is
        bit-identical to :meth:`fit` on the materialized tables.
        """
        self._engine = None
        accumulators = [
            accumulator
            for stream in streams
            for accumulator in self._accumulate(stream)
        ]
        documents = [
            accumulator.token_list()[: self.max_tokens_per_column]
            for accumulator in accumulators
        ]
        self.word_model.fit(documents)
        self.paragraph_embedder.fit(documents)
        # The embedding substrate is fitted, which is everything transform
        # needs; flip the flag now so the standardiser pass below can run.
        self._mean = None
        self._std = None
        self._fitted = True
        if self.standardize and accumulators:
            try:
                raw = np.stack([self._raw_from_accumulator(a) for a in accumulators])
            except BaseException:
                # A failed standardiser pass must not leave a "fitted"
                # featurizer that silently serves unstandardized features.
                self._fitted = False
                raise
            self._mean = raw.mean(axis=0)
            self._std = raw.std(axis=0)
            self._std[self._std < 1e-8] = 1.0
        return self

    # ------------------------------------------------------------ transform

    @property
    def engine(self):
        """The vectorized featurization engine (built lazily, reset on refit)."""
        if self._engine is None:
            from repro.features.engine import VectorizedEngine

            self._engine = VectorizedEngine(self)
        return self._engine

    # ------------------------------------------------------------ streaming

    def column_accumulator(self, max_tokens: int | None = None):
        """A fresh per-column accumulator for the streaming path.

        ``max_tokens`` defaults to the featurizer's own token budget;
        callers that also need the table-level topic document (the
        streaming annotator) pass a larger cap and
        :meth:`finalize_columns` re-slices to the per-column budget.
        """
        from repro.features.accumulators import ColumnAccumulator

        if max_tokens is None:
            max_tokens = self.max_tokens_per_column
        elif max_tokens < self.max_tokens_per_column:
            raise ValueError(
                "max_tokens must cover the featurizer's max_tokens_per_column"
            )
        return ColumnAccumulator(max_tokens)

    def _accumulate(self, stream) -> list:
        """One accumulator per column of ``stream``, folded over its chunks.

        A chunk whose column count differs from the stream's raises
        ``ValueError`` instead of silently truncating.
        """
        accumulators = [self.column_accumulator() for _ in range(stream.n_columns)]
        for chunk in stream.chunks:
            if chunk.n_columns != len(accumulators):
                raise ValueError(
                    f"chunk has {chunk.n_columns} columns, stream "
                    f"declared {len(accumulators)}"
                )
            for accumulator, values in zip(accumulators, chunk.columns):
                accumulator.partial_fit(values)
        return accumulators

    def _raw_from_accumulator(self, accumulator) -> np.ndarray:
        """Raw features from accumulated state.

        Bit-identical to :meth:`reference_transform_columns`' raw row for
        the same values: the Char/Stat accumulators ARE the loop
        implementation, and the token prefix grows in row order to the
        exact capped prefix the loop path tokenizes.
        """
        tokens = accumulator.token_list()[: self.max_tokens_per_column]
        char_vector = accumulator.char.finalize()
        word_vector = self.word_model.mean_vector(tokens)
        para_vector = self.paragraph_embedder.embed(tokens)
        stat_vector = accumulator.stat.finalize()
        return np.concatenate([char_vector, word_vector, para_vector, stat_vector])

    def raw_from_accumulator(self, accumulator) -> np.ndarray:
        """Public raw-row finalization for one accumulator (unstandardized).

        The building block the sketch store persists: pair with
        :meth:`standardize_matrix` to reproduce :meth:`finalize_columns`
        bit-for-bit on any mix of fresh and stored rows.
        """
        if not self._fitted:
            raise RuntimeError("featurizer must be fitted before transform")
        return self._raw_from_accumulator(accumulator)

    def standardize_matrix(self, raw: np.ndarray) -> np.ndarray:
        """Apply the fitted standardiser to a raw feature matrix.

        Elementwise (per-row independent), so standardising raw rows
        ``annotate`` serves from the sketch store is bit-identical to
        standardising them inside the batch that originally computed them.
        """
        if self.standardize and self._mean is not None and self._std is not None:
            return (raw - self._mean) / self._std
        return raw

    def finalize_columns(self, accumulators) -> np.ndarray:
        """Finalize a batch of column accumulators into feature vectors.

        The streaming counterpart of :meth:`transform_columns`: same
        standardisation, same output shape, bit-identical to the loop
        full-scan path for any chunking of the inputs.
        """
        accumulators = list(accumulators)
        if not accumulators:
            return np.zeros((0, self.n_features), dtype=np.float64)
        if not self._fitted:
            raise RuntimeError("featurizer must be fitted before transform")
        raw = np.stack([self._raw_from_accumulator(a) for a in accumulators])
        return self.standardize_matrix(raw)

    def transform_stream(self, stream) -> np.ndarray:
        """Featurize one :class:`~repro.tables.TableStream` in bounded memory."""
        return self.finalize_columns(self._accumulate(stream))

    def transform_column(self, column: Column) -> np.ndarray:
        """Featurize one column."""
        return self.transform_columns([column])[0]

    def transform_table(self, table: Table) -> np.ndarray:
        """Featurize all columns of a table, returning an (m, n_features) matrix."""
        return self.transform_columns(table.columns)

    def transform_columns(self, columns: Sequence[Column]) -> np.ndarray:
        """Featurize a batch of columns into an (m, n_features) matrix.

        Raw features are computed for the whole batch at once by the
        vectorized engine and standardised in one vectorised operation;
        this is the building block of both the training path and the
        batched serving path.
        """
        if not columns:
            return np.zeros((0, self.n_features), dtype=np.float64)
        if not self._fitted:
            raise RuntimeError("featurizer must be fitted before transform")
        return self.standardize_matrix(self.engine.transform(columns))

    def reference_transform_columns(self, columns: Sequence[Column]) -> np.ndarray:
        """:meth:`transform_columns` by the per-value Python loop.

        The reference the engine is tested against: same standardisation,
        same output shape, equal to :meth:`transform_columns` to
        floating-point round-off.
        """
        if not columns:
            return np.zeros((0, self.n_features), dtype=np.float64)
        if not self._fitted:
            raise RuntimeError("featurizer must be fitted before transform")
        rows = []
        for column in columns:
            tokens = tokenize_values(column.values)[: self.max_tokens_per_column]
            char_vector = char_features(column.values)
            word_vector = self.word_model.mean_vector(tokens)
            para_vector = self.paragraph_embedder.embed(tokens)
            stat_vector = column_statistics(column.values)
            rows.append(
                np.concatenate([char_vector, word_vector, para_vector, stat_vector])
            )
        return self.standardize_matrix(np.stack(rows))

    def transform_tables(self, tables: Sequence[Table]) -> FeatureMatrix:
        """Featurize every column of every table into one feature matrix.

        All columns of all tables are featurized in a single batched
        :meth:`transform_columns` call, so the training path goes through
        the same vectorized code as serving.
        """
        columns: list[Column] = []
        labels: list[str | None] = []
        table_ids: list[str | None] = []
        positions: list[int] = []
        for table in tables:
            for position, column in enumerate(table.columns):
                columns.append(column)
                labels.append(column.semantic_type)
                table_ids.append(table.table_id)
                positions.append(position)
        matrix = self.transform_columns(columns)
        return FeatureMatrix(
            matrix=matrix,
            groups=self.groups,
            labels=labels,
            table_ids=table_ids,
            column_positions=positions,
        )

    # -------------------------------------------------------- serialisation

    def config_dict(self) -> dict:
        """JSON-serialisable constructor configuration."""
        return {
            "word_dim": self.word_dim,
            "para_dim": self.para_dim,
            "max_tokens_per_column": self.max_tokens_per_column,
            "standardize": self.standardize,
            "min_token_count": self.min_token_count,
            "seed": self.seed,
        }

    def state_dict(self) -> dict[str, np.ndarray]:
        """Serialisable fitted state: embedding substrate + standardiser."""
        if not self._fitted:
            raise RuntimeError("featurizer is not fitted")
        state: dict[str, np.ndarray] = {}
        for key, value in self.word_model.state_dict().items():
            state[f"word.{key}"] = value
        for key, value in self.paragraph_embedder.state_dict().items():
            state[f"para.{key}"] = value
        if self._mean is not None and self._std is not None:
            state["mean"] = self._mean.copy()
            state["std"] = self._std.copy()
        return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore state produced by :meth:`state_dict`."""
        self._engine = None
        self.word_model.load_state_dict(
            {k[len("word."):]: v for k, v in state.items() if k.startswith("word.")}
        )
        self.paragraph_embedder.load_state_dict(
            {k[len("para."):]: v for k, v in state.items() if k.startswith("para.")}
        )
        if "mean" in state and "std" in state:
            # Zero-copy: standardisation only reads these (shared-memory
            # serving hands in non-writeable views).
            self._mean = np.asarray(state["mean"], dtype=np.float64)
            self._std = np.asarray(state["std"], dtype=np.float64)
        else:
            self._mean = None
            self._std = None
        self._fitted = True

    def feature_names(self) -> list[str]:
        """Human-readable names of every feature dimension."""
        names = list(CHAR_FEATURE_NAMES)
        names.extend(f"word_emb[{i}]" for i in range(self.word_dim))
        names.extend(f"para_emb[{i}]" for i in range(self.para_dim))
        names.extend(STAT_FEATURE_NAMES)
        return names
