"""Table intent estimation (the "global context" of Sato).

The estimator treats all values of a table as one document, runs it through a
pre-trained LDA model, and returns the fixed-length topic vector every column
of the table shares.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.embeddings.tokenizer import tokenize
from repro.tables import Table
from repro.topic.dictionary import Dictionary
from repro.topic.lda import LatentDirichletAllocation

__all__ = ["TableIntentEstimator"]


class TableIntentEstimator:
    """Maps a table to a topic vector describing its intent.

    Parameters
    ----------
    n_topics:
        Topic-vector dimensionality (the paper uses 400).
    max_tokens_per_table:
        Token budget per table document, bounding LDA cost on huge tables.
    """

    def __init__(
        self,
        n_topics: int = 400,
        max_tokens_per_table: int = 512,
        n_iterations: int = 30,
        infer_iterations: int = 15,
        seed: int = 0,
    ) -> None:
        self.n_topics = n_topics
        self.max_tokens_per_table = max_tokens_per_table
        self.lda = LatentDirichletAllocation(
            n_topics=n_topics,
            n_iterations=n_iterations,
            infer_iterations=infer_iterations,
            seed=seed,
        )
        self._fitted = False

    @property
    def is_fitted(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self._fitted

    def table_document(self, table: Table) -> list[str]:
        """Tokenise a table's values into one document (headers ignored).

        The document is the first ``max_tokens_per_table`` tokens of the
        values, column by column, and tokenizing stops once it has them.
        Missing (empty or whitespace-only) cells tokenize to nothing.
        """
        cap = self.max_tokens_per_table
        document: list[str] = []
        for column in table.columns:
            for value in column.values:
                if len(document) >= cap:
                    return document[:cap]
                document.extend(tokenize(value))
        return document[:cap]

    def fit(self, tables: Iterable[Table]) -> "TableIntentEstimator":
        """Pre-train the LDA model on an unlabelled table corpus."""
        documents = [self.table_document(t) for t in tables]
        # Drop tokens present in >70% of tables: they carry no intent signal.
        dictionary = Dictionary(no_below=2, no_above=0.7).fit(documents)
        self.lda.fit(documents, dictionary=dictionary)
        self._fitted = True
        return self

    # -------------------------------------------------------- serialisation

    def config_dict(self) -> dict:
        """JSON-serialisable configuration, including the nested LDA config."""
        return {
            "n_topics": self.n_topics,
            "max_tokens_per_table": self.max_tokens_per_table,
            "lda": self.lda.config_dict(),
        }

    def state_dict(self) -> dict[str, np.ndarray]:
        """Serialisable fitted state (the trained LDA model)."""
        if not self._fitted:
            raise RuntimeError("intent estimator is not fitted")
        return {f"lda.{key}": value for key, value in self.lda.state_dict().items()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore state produced by :meth:`state_dict`."""
        self.lda.load_state_dict(
            {k[len("lda."):]: v for k, v in state.items() if k.startswith("lda.")}
        )
        self._fitted = True

    def topic_vector(self, table: Table) -> np.ndarray:
        """Infer the topic vector of one table."""
        if not self._fitted:
            raise RuntimeError("intent estimator is not fitted")
        return self.lda.transform(self.table_document(table))

    def topic_vector_from_tokens(self, tokens: Sequence[str]) -> np.ndarray:
        """Infer the topic vector from a pre-assembled table document.

        The streaming counterpart of :meth:`topic_vector`: the caller
        hands in the table's token prefix (its columns' token streams
        concatenated column by column, as :meth:`table_document` builds
        it), so a chunked ingest path produces bit-identical vectors to
        the in-memory path without materializing the table.
        """
        if not self._fitted:
            raise RuntimeError("intent estimator is not fitted")
        return self.lda.transform(list(tokens)[: self.max_tokens_per_table])

    def topic_vectors(self, tables: Sequence[Table]) -> np.ndarray:
        """Infer topic vectors for a sequence of tables in one batched call.

        The tables are folded into the LDA model together, by one
        deterministic EM pass over all their tokens, and row ``i`` is
        bit-identical to ``topic_vector(tables[i])`` (see
        :meth:`LatentDirichletAllocation.transform_many`).
        """
        if not self._fitted:
            raise RuntimeError("intent estimator is not fitted")
        return self.lda.transform_many([self.table_document(t) for t in tables])
