"""Streaming bulk annotation: typed schemas out of chunked sources.

:class:`StreamingAnnotator` drives a fitted
:class:`~repro.models.SatoModel` over :class:`~repro.tables.TableStream`
sources in bounded memory: each column folds into one
:class:`~repro.features.ColumnAccumulator` as chunks arrive, and only the
*finalized* per-column features (plus the capped table-document token
prefix for the topic model) ever exist at once.  The resulting
predictions are bit-identical to loading the whole table in memory and
predicting through the per-value reference featurizer
(``ColumnFeaturizer.reference_transform_columns``) — enforced by the
streaming parity tests.

With a :class:`~repro.features.sketchstore.SketchStore` attached, the
annotator becomes *incremental*: every column is fingerprinted as its
chunks stream through, and columns whose fingerprint + featurizer config
hit the store skip featurization entirely — their stored raw row and
token prefix are bit-identical to what a recomputation would produce, so
the parity contract is unchanged.  Table-topic vectors are cached the
same way, keyed by the table fingerprint, which removes LDA inference
(the most expensive per-table step) from repeat traffic.
"""

from __future__ import annotations

import numpy as np

from repro.ingest.base import DEFAULT_CHUNK_ROWS, IngestError, open_source
from repro.tables import TableStream, combine_fingerprints
from repro.types import TYPE_TO_INDEX

__all__ = ["StreamingAnnotator"]


class StreamingAnnotator:
    """Annotates chunked table streams with predicted semantic types.

    Parameters
    ----------
    model:
        A fitted :class:`~repro.models.SatoModel` (any variant).  Topic
        variants reconstruct the table-intent document from the per-column
        token accumulators, so no variant needs the materialized table.
    sketch_store:
        Optional :class:`~repro.features.sketchstore.SketchStore` (or a
        store directory path) of persisted column sketches.  Hits skip
        featurization and topic inference with bit-identical output;
        misses are computed and written back, warming the store for the
        next run.
    sample_rows:
        Bounded-sample dial: featurize store misses from each column's
        first N values only.  Fingerprints always cover the full
        content, so sampled and unsampled sketches never mix.  This
        trades accuracy for speed on huge columns; the sketch benchmark
        reports the measured trade-off.
    """

    def __init__(
        self, model, sketch_store=None, sample_rows: int | None = None
    ) -> None:
        if model.column_model.network is None:
            raise RuntimeError("StreamingAnnotator requires a fitted model")
        if sample_rows is not None and sample_rows < 1:
            raise ValueError("sample_rows must be >= 1")
        self.model = model
        self.featurizer = model.column_model.featurizer
        self.intent = getattr(model.column_model, "intent_estimator", None)
        token_cap = self.featurizer.max_tokens_per_column
        if self.intent is not None:
            token_cap = max(token_cap, self.intent.max_tokens_per_table)
        self._token_cap = token_cap
        self.sample_rows = sample_rows
        from repro.features.sketchstore import open_store

        self.sketch_store, self._owns_store = open_store(sketch_store)
        self._column_section: str | None = None
        self._topic_section: str | None = None

    def close(self) -> None:
        """Close the sketch store if this annotator opened it from a path."""
        if self._owns_store and self.sketch_store is not None:
            self.sketch_store.close()

    # -------------------------------------------------------- sketch plumbing

    def _sections(self) -> tuple[str, str | None]:
        """Resolve (lazily, once) the store sections this model writes."""
        from repro.features import sketchstore

        if self._column_section is None:
            self._column_section = self.sketch_store.section(
                sketchstore.column_section_config(
                    self.featurizer,
                    producer="accumulator",
                    token_cap=self._token_cap,
                    sample_rows=self.sample_rows,
                )
            )
            if self.intent is not None:
                self._topic_section = self.sketch_store.section(
                    sketchstore.topic_section_config(
                        self.intent, sample_rows=self.sample_rows
                    )
                )
        return self._column_section, self._topic_section

    # --------------------------------------------------------------- annotate

    def annotate_stream(self, stream: TableStream) -> dict:
        """Consume one stream and return its typed-schema record.

        The record is JSON-serialisable: table identity, row/column
        counts, and per column the header, predicted semantic type and
        the model's (structured, when the CRF is active) confidence.
        """
        if self.sketch_store is None and self.sample_rows is None:
            return self._annotate_stream_eager(stream)
        return self._annotate_stream_sketched(stream)

    def _annotate_stream_eager(self, stream: TableStream) -> dict:
        accumulators = [
            self.featurizer.column_accumulator(self._token_cap)
            for _ in range(stream.n_columns)
        ]
        n_rows = 0
        for chunk in stream.chunks:
            if chunk.n_columns != len(accumulators):
                raise IngestError(
                    f"chunk has {chunk.n_columns} columns, stream declared "
                    f"{len(accumulators)}",
                    source=stream.metadata.get("source"),
                )
            row_span = chunk.n_rows
            for accumulator, values in zip(accumulators, chunk.columns):
                accumulator.partial_fit(
                    values, start_row=chunk.start_row, row_span=row_span
                )
            n_rows = max(n_rows, chunk.start_row + row_span)

        record = self._record_header(stream, n_rows, len(accumulators))
        if not accumulators:
            return record

        features = self.featurizer.finalize_columns(accumulators)
        topics = None
        if self.intent is not None:
            document = self._document(
                accumulator.token_list() for accumulator in accumulators
            )
            vector = self.intent.topic_vector_from_tokens(document)
            topics = np.tile(vector, (features.shape[0], 1))
        return self._finish_record(record, stream, features, topics)

    def _annotate_stream_sketched(self, stream: TableStream) -> dict:
        from repro.features import sketchstore

        sketcher = sketchstore.StreamSketcher(
            self.featurizer,
            stream.n_columns,
            token_cap=self._token_cap,
            sample_rows=self.sample_rows,
        )
        for chunk in stream.chunks:
            if chunk.n_columns != sketcher.n_columns:
                raise IngestError(
                    f"chunk has {chunk.n_columns} columns, stream declared "
                    f"{sketcher.n_columns}",
                    source=stream.metadata.get("source"),
                )
            sketcher.feed(chunk)

        record = self._record_header(stream, sketcher.n_rows, stream.n_columns)
        if not stream.n_columns:
            return record

        store = self.sketch_store
        column_section = topic_section = None
        if store is not None:
            column_section, topic_section = self._sections()
        fingerprints = sketcher.fingerprints()
        raw_rows: list[np.ndarray] = []
        column_tokens: list[list[str]] = []
        for index, fingerprint in enumerate(fingerprints):
            row = tokens = None
            if store is not None and not sketcher.flushed:
                sketch = store.get(column_section, fingerprint)
                n_features = self.featurizer.n_features
                row = sketchstore.sketch_vector(sketch, "row", n_features)
                tokens = sketchstore.sketch_tokens(sketch)
            if row is None or tokens is None:
                accumulator = sketcher.accumulator(index)
                row = self.featurizer.raw_from_accumulator(accumulator)
                tokens = accumulator.token_list()
                if store is not None:
                    store.put(
                        column_section,
                        fingerprint,
                        sketchstore.column_sketch(
                            self.featurizer,
                            accumulator,
                            sketcher.n_rows,
                            row=row,
                        ),
                    )
            raw_rows.append(row)
            column_tokens.append(tokens)

        features = self.featurizer.standardize_matrix(np.stack(raw_rows))
        topics = None
        if self.intent is not None:
            vector = None
            table_key = None
            if store is not None:
                table_key = combine_fingerprints(fingerprints)
                vector = sketchstore.sketch_vector(
                    store.get(topic_section, table_key), "topic", self.intent.n_topics
                )
            if vector is None:
                document = self._document(column_tokens)
                vector = self.intent.topic_vector_from_tokens(document)
                if store is not None:
                    store.put(topic_section, table_key, {"topic": vector.tolist()})
            topics = np.tile(vector, (features.shape[0], 1))
        return self._finish_record(record, stream, features, topics)

    # -------------------------------------------------------------- record io

    @staticmethod
    def _record_header(stream: TableStream, n_rows: int, n_columns: int) -> dict:
        return {
            "table_id": stream.table_id,
            "source": stream.metadata.get("source"),
            "n_rows": n_rows,
            "n_columns": n_columns,
            "columns": [],
        }

    def _document(self, per_column_tokens) -> list[str]:
        """Assemble the capped table document from per-column token prefixes."""
        document: list[str] = []
        for tokens in per_column_tokens:
            document.extend(tokens)
            if len(document) >= self.intent.max_tokens_per_table:
                break
        return document

    def _finish_record(self, record, stream, features, topics) -> dict:
        probabilities = self.model.column_model.predict_proba_matrix(features, topics)
        marginals = self.model.marginals_from_proba(probabilities)
        labels = self.model.labels_from_proba(probabilities)
        for index, label in enumerate(labels):
            confidence = float(marginals[index, TYPE_TO_INDEX[label]])
            record["columns"].append(
                {
                    "index": index,
                    "header": stream.headers[index],
                    "predicted_type": label,
                    "confidence": round(confidence, 6),
                }
            )
        return record

    def annotate_source(
        self,
        path,
        chunk_rows: int = DEFAULT_CHUNK_ROWS,
        format: str | None = None,
    ):
        """Yield one record per table stream under a file or directory."""
        for stream in open_source(path, chunk_rows, format):
            yield self.annotate_stream(stream)
