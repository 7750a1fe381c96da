"""CSV and JSONL persistence for tables.

JSONL (one table per line) is the corpus interchange format: it is compact,
streamable and keeps ground-truth labels alongside values.  CSV writes a
single table the way a user would hand one to the model; the ingest
``CsvAdapter`` (:mod:`repro.ingest.csv_source`) reads it back.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Iterable, Iterator

from repro.tables.table import Table

__all__ = [
    "table_to_csv",
    "tables_from_jsonl",
    "tables_to_jsonl",
    "iter_tables_from_jsonl",
]


def table_to_csv(table: Table, path: str | Path, write_header: bool = True) -> None:
    """Write a table to CSV, optionally with its headers as the first row."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        if write_header:
            writer.writerow(
                [c.header or c.semantic_type or f"col{i}" for i, c in enumerate(table.columns)]
            )
        for row in table.rows():
            writer.writerow(row)


def tables_to_jsonl(tables: Iterable[Table], path: str | Path) -> int:
    """Write tables as JSON lines.  Returns the number of tables written."""
    path = Path(path)
    count = 0
    with path.open("w", encoding="utf-8") as handle:
        for table in tables:
            handle.write(json.dumps(table.to_dict(), ensure_ascii=False))
            handle.write("\n")
            count += 1
    return count


def iter_tables_from_jsonl(path: str | Path) -> Iterator[Table]:
    """Lazily iterate over tables stored as JSON lines."""
    path = Path(path)
    with path.open(encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            yield Table.from_dict(json.loads(line))


def tables_from_jsonl(path: str | Path) -> list[Table]:
    """Load all tables from a JSONL file into memory."""
    return list(iter_tables_from_jsonl(path))
