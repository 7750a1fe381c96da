"""Tests for JSONL table persistence.

CSV is read by the ingest ``CsvAdapter``; its tests live in
``tests/test_ingest_adapters.py``.
"""

from repro.tables import Column, Table, tables_from_jsonl, tables_to_jsonl
from repro.tables.io import iter_tables_from_jsonl


def _sample_table():
    return Table(
        columns=[
            Column(values=["Alice", "Bob"], header="name", semantic_type="name"),
            Column(values=["Paris", "Rome"], header="city", semantic_type="city"),
        ],
        table_id="sample",
    )


class TestJsonl:
    def test_round_trip(self, tmp_path, corpus_small):
        path = tmp_path / "corpus.jsonl"
        written = tables_to_jsonl(corpus_small[:20], path)
        assert written == 20
        loaded = tables_from_jsonl(path)
        assert len(loaded) == 20
        assert loaded[0].labels == corpus_small[0].labels
        assert [c.values for c in loaded[3].columns] == [
            c.values for c in corpus_small[3].columns
        ]

    def test_iter_is_lazy_and_skips_blank_lines(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        tables_to_jsonl([_sample_table()], path)
        with path.open("a", encoding="utf-8") as handle:
            handle.write("\n")
        assert len(list(iter_tables_from_jsonl(path))) == 1

    def test_metadata_preserved(self, tmp_path):
        table = _sample_table()
        table.metadata["intent"] = "people"
        path = tmp_path / "one.jsonl"
        tables_to_jsonl([table], path)
        assert tables_from_jsonl(path)[0].metadata == {"intent": "people"}
