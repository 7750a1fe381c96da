"""Core table data model.

A :class:`Table` is an ordered collection of :class:`Column` objects.  Cell
values are always stored as strings (numbers are stringified), mirroring how
WebTables data arrives: headers are untrusted metadata used only to derive
ground-truth labels, never as model input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from repro.tables.fingerprint import combine_fingerprints, values_fingerprint
from repro.types import canonicalize_header, is_semantic_type

__all__ = ["Column", "Table"]


@dataclass
class Column:
    """A single table column.

    Parameters
    ----------
    values:
        Cell values, stored as strings.  Missing cells are empty strings.
    header:
        The raw header text, if any.  Headers are never used as model input;
        they only provide ground-truth semantic type labels.
    semantic_type:
        The ground-truth semantic type label (canonical form), when known.
    """

    values: list[str]
    header: str | None = None
    semantic_type: str | None = None

    def __post_init__(self) -> None:
        self.values = ["" if v is None else str(v) for v in self.values]
        if self.semantic_type is None and self.header is not None:
            canonical = canonicalize_header(self.header)
            if is_semantic_type(canonical):
                self.semantic_type = canonical

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self) -> Iterator[str]:
        return iter(self.values)

    @property
    def has_label(self) -> bool:
        """Whether a ground-truth semantic type is attached."""
        return self.semantic_type is not None

    @cached_property
    def fingerprint(self) -> str:
        """Content hash of the values (:func:`values_fingerprint`).

        The column identity every cache keys on.  It is hashed once per
        column object and kept in the instance ``__dict__``, so a pickled
        column (a fleet frame) carries it along.  Caching it is safe
        because nothing changes ``values`` after construction: only
        ``__post_init__`` assigns it.
        """
        return values_fingerprint(self.values)

    def head(self, n: int = 5) -> list[str]:
        """Return the first ``n`` values."""
        return self.values[:n]

    def to_dict(self) -> dict:
        """Serialise to a plain dictionary (for JSON)."""
        return {
            "values": list(self.values),
            "header": self.header,
            "semantic_type": self.semantic_type,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Column":
        """Deserialise from :meth:`to_dict` output."""
        return cls(
            values=list(payload.get("values", [])),
            header=payload.get("header"),
            semantic_type=payload.get("semantic_type"),
        )


@dataclass
class Table:
    """An ordered collection of columns with an optional identifier."""

    columns: list[Column]
    table_id: str | None = None
    metadata: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[Column]:
        return iter(self.columns)

    def __getitem__(self, index: int) -> Column:
        return self.columns[index]

    @property
    def n_columns(self) -> int:
        """Number of columns."""
        return len(self.columns)

    @property
    def n_rows(self) -> int:
        """Number of rows (length of the longest column)."""
        if not self.columns:
            return 0
        return max(len(column) for column in self.columns)

    @property
    def is_singleton(self) -> bool:
        """True when the table has a single column (no table context)."""
        return len(self.columns) == 1

    @property
    def fingerprint(self) -> str:
        """Content hash of the table: its column fingerprints, combined.

        Keys the topic cache and the topic store section, and routes fleet
        traffic.  Headers and the table id never enter it.
        """
        return combine_fingerprints([column.fingerprint for column in self.columns])

    @property
    def labels(self) -> list[str | None]:
        """Ground-truth semantic types of the columns, in order."""
        return [column.semantic_type for column in self.columns]

    @property
    def is_fully_labeled(self) -> bool:
        """True when every column carries a ground-truth semantic type."""
        return bool(self.columns) and all(c.has_label for c in self.columns)

    def rows(self) -> list[list[str]]:
        """Return the table in row-major order, padding ragged columns."""
        n_rows = self.n_rows
        return [
            [
                column.values[r] if r < len(column.values) else ""
                for column in self.columns
            ]
            for r in range(n_rows)
        ]

    def iter_chunks(self, chunk_rows: int = 4096):
        """Yield the table as row-ordered, column-major value chunks.

        See :func:`repro.tables.chunks.iter_table_chunks`.
        """
        from repro.tables.chunks import iter_table_chunks

        return iter_table_chunks(self, chunk_rows)

    def as_stream(self, chunk_rows: int | None = None):
        """Wrap the table as a single-use :class:`~repro.tables.TableStream`.

        With ``chunk_rows=None`` the whole table arrives as one chunk.
        """
        from repro.tables.chunks import table_stream

        return table_stream(self, chunk_rows)

    def without_headers(self) -> "Table":
        """Return a copy with header and label metadata removed.

        Used to build the unsupervised LDA training set: topic models must be
        trained on values only (Section 4.2).
        """
        return Table(
            columns=[Column(values=list(c.values)) for c in self.columns],
            table_id=self.table_id,
            metadata=dict(self.metadata),
        )

    def to_dict(self) -> dict:
        """Serialise to a plain dictionary (for JSON)."""
        return {
            "table_id": self.table_id,
            "metadata": dict(self.metadata),
            "columns": [column.to_dict() for column in self.columns],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Table":
        """Deserialise from :meth:`to_dict` output."""
        return cls(
            columns=[Column.from_dict(c) for c in payload.get("columns", [])],
            table_id=payload.get("table_id"),
            metadata=dict(payload.get("metadata", {})),
        )

    @classmethod
    def from_rows(
        cls,
        rows: Sequence[Sequence[str]],
        headers: Sequence[str] | None = None,
        table_id: str | None = None,
    ) -> "Table":
        """Build a table from row-major data."""
        if not rows:
            columns = [Column(values=[], header=h) for h in (headers or [])]
            return cls(columns=columns, table_id=table_id)
        n_cols = max(len(row) for row in rows)
        columns = []
        for j in range(n_cols):
            values = [str(row[j]) if j < len(row) else "" for row in rows]
            header = headers[j] if headers is not None and j < len(headers) else None
            columns.append(Column(values=values, header=header))
        return cls(columns=columns, table_id=table_id)

    @classmethod
    def from_columns(
        cls,
        value_lists: Iterable[Sequence[str]],
        headers: Sequence[str] | None = None,
        table_id: str | None = None,
    ) -> "Table":
        """Build a table from column-major data."""
        columns = []
        for j, values in enumerate(value_lists):
            header = headers[j] if headers is not None and j < len(headers) else None
            columns.append(Column(values=[str(v) for v in values], header=header))
        return cls(columns=columns, table_id=table_id)
