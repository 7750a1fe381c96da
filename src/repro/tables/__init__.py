"""Table data model and I/O.

The :class:`~repro.tables.table.Table` and :class:`~repro.tables.table.Column`
classes are the fundamental objects flowing through the library: the corpus
generator produces them, feature extractors consume them, and the models
predict one semantic type per column.  For bounded-memory processing of
large sources, :mod:`repro.tables.chunks` provides the chunk-iterable view
(:class:`TableChunk` / :class:`TableStream`) consumed by the streaming
featurization path and the ingest adapters.  :mod:`repro.tables.fingerprint`
holds the content fingerprint every cache keys on.
"""

from repro.tables.fingerprint import (
    ColumnFingerprinter,
    combine_fingerprints,
    values_fingerprint,
)
from repro.tables.table import Column, Table
from repro.tables.chunks import (
    TableChunk,
    TableStream,
    iter_table_chunks,
    stream_tables,
    table_stream,
)
from repro.tables.io import (
    table_to_csv,
    tables_from_jsonl,
    tables_to_jsonl,
)

__all__ = [
    "Column",
    "Table",
    "ColumnFingerprinter",
    "combine_fingerprints",
    "values_fingerprint",
    "TableChunk",
    "TableStream",
    "iter_table_chunks",
    "stream_tables",
    "table_stream",
    "table_to_csv",
    "tables_from_jsonl",
    "tables_to_jsonl",
]
