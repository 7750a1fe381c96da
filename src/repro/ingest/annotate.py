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
from repeat traffic.  So is each table's typed output (per column, the
predicted type and its rounded confidence), in a section that hashes the
whole fitted model: an unchanged table under an unchanged model skips
the model as well, and a re-annotation run costs little more than
hashing its input plus the work on what changed.
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
        token prefixes, so no variant needs the materialized table.
    sketch_store:
        Optional :class:`~repro.features.sketchstore.SketchStore` (or a
        store directory path) of persisted column sketches.  Hits skip
        featurization, topic inference and, for a table whose content is
        unchanged, the model itself, with bit-identical output; misses
        are computed and written back, warming the store for the next
        run.
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
        self._sections_resolved: tuple[str, str, str | None] | None = None

    def close(self) -> None:
        """Close the sketch store if this annotator opened it from a path."""
        if self._owns_store and self.sketch_store is not None:
            self.sketch_store.close()

    # -------------------------------------------------------- sketch plumbing

    def _sections(self) -> tuple[str, str, str | None]:
        """Resolve (lazily, once) the record, column and topic sections."""
        from repro.features import sketchstore

        if self._sections_resolved is None:
            store = self.sketch_store
            record_section = store.section(
                sketchstore.record_section_config(
                    self.model, sample_rows=self.sample_rows
                )
            )
            column_section = store.section(
                sketchstore.column_section_config(
                    self.featurizer,
                    producer="accumulator",
                    token_cap=self._token_cap,
                    sample_rows=self.sample_rows,
                )
            )
            topic_section = None
            if self.intent is not None:
                topic_section = store.section(
                    sketchstore.topic_section_config(
                        self.intent, sample_rows=self.sample_rows
                    )
                )
            self._sections_resolved = (record_section, column_section, topic_section)
        return self._sections_resolved

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
            for accumulator, values in zip(accumulators, chunk.columns):
                accumulator.partial_fit(values)
            n_rows += chunk.n_rows

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
        return self._fill_record(record, stream, *self._predict(features, topics))

    def _annotate_stream_sketched(self, stream: TableStream) -> dict:
        from repro.features import sketchstore

        sketcher = sketchstore.StreamSketcher(
            self.featurizer,
            stream.n_columns,
            token_cap=self._token_cap,
            sample_rows=self.sample_rows,
        )
        n_rows = 0
        for chunk in stream.chunks:
            if chunk.n_columns != sketcher.n_columns:
                raise IngestError(
                    f"chunk has {chunk.n_columns} columns, stream declared "
                    f"{sketcher.n_columns}",
                    source=stream.metadata.get("source"),
                )
            sketcher.feed(chunk)
            n_rows += chunk.n_rows

        record = self._record_header(stream, n_rows, stream.n_columns)
        if not stream.n_columns:
            return record

        store = self.sketch_store
        fingerprints = sketcher.fingerprints()
        table_key = combine_fingerprints(fingerprints)
        record_section = column_section = topic_section = None
        if store is not None:
            record_section, column_section, topic_section = self._sections()
            typed = sketchstore.sketch_types(
                store.get(record_section, table_key), stream.n_columns
            )
            if typed is not None:
                return self._fill_record(record, stream, *typed)
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
                        sketchstore.column_sketch(tokens, row),
                    )
            raw_rows.append(row)
            column_tokens.append(tokens)

        features = self.featurizer.standardize_matrix(np.stack(raw_rows))
        topics = None
        if self.intent is not None:
            vector = None
            if store is not None:
                vector = sketchstore.sketch_vector(
                    store.get(topic_section, table_key), "topic", self.intent.n_topics
                )
            if vector is None:
                document = self._document(column_tokens)
                vector = self.intent.topic_vector_from_tokens(document)
                if store is not None:
                    store.put(
                        topic_section,
                        table_key,
                        {"topic": sketchstore.pack_vector(vector)},
                    )
            topics = np.tile(vector, (features.shape[0], 1))
        labels, confidences = self._predict(features, topics)
        if store is not None:
            store.put(
                record_section,
                table_key,
                sketchstore.record_sketch(labels, confidences),
            )
        return self._fill_record(record, stream, labels, confidences)

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

    def _predict(self, features, topics) -> tuple[list[str], list[float]]:
        """Each column's predicted type and its confidence, rounded to 6 places."""
        probabilities = self.model.column_model.predict_proba_matrix(features, topics)
        marginals = self.model.marginals_from_proba(probabilities)
        labels = self.model.labels_from_proba(probabilities)
        confidences = [
            round(float(marginals[index, TYPE_TO_INDEX[label]]), 6)
            for index, label in enumerate(labels)
        ]
        return labels, confidences

    @staticmethod
    def _fill_record(record, stream, labels, confidences) -> dict:
        for index, (label, confidence) in enumerate(zip(labels, confidences)):
            record["columns"].append(
                {
                    "index": index,
                    "header": stream.headers[index],
                    "predicted_type": label,
                    "confidence": confidence,
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
