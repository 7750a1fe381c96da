"""Ingestion adapter fidelity and failure modes.

Every adapter must round-trip a known :class:`~repro.tables.Table`
(``write_fixture`` -> ``streams`` -> ``materialize``) value-exact, and
every malformed input must surface a clear :class:`IngestError` naming
the offending file — never a raw traceback from ``csv``/``json``/
``sqlite3``.
"""

from __future__ import annotations

import sqlite3
import unicodedata

import pytest

from repro.ingest import (
    IngestError,
    adapter_for,
    discover_sources,
    open_source,
    registered_adapters,
)
from repro.tables import Column, Table

#: NFD-normalised "café" — the combining acute must survive byte-for-byte.
NFD_CAFE = unicodedata.normalize("NFD", "café")

ROUND_TRIP_ADAPTERS = ["csv", "ndjson", "sqlite", "tables-jsonl"]

SUFFIX_FOR = {
    "csv": ".csv",
    "ndjson": ".ndjson",
    "sqlite": ".sqlite",
    "tables-jsonl": ".jsonl",
}


def tricky_table() -> Table:
    """Rectangular table stressing quoting, unicode and numeric text."""
    return Table(
        columns=(
            Column(
                values=('say "hi"', "a,b", "line1\nline2", NFD_CAFE),
                header="text",
            ),
            Column(values=("1", "-2.5", "1,200", ""), header="amount"),
            Column(values=("東京", "Zürich", "מוסקבה", "Oslo"), header="city"),
        )
    )


class TestRegistry:
    def test_all_adapters_registered(self):
        assert sorted(registered_adapters()) == [
            "csv",
            "ndjson",
            "parquet",
            "sqlite",
            "tables-jsonl",
        ]

    def test_adapter_for_unknown_format(self, tmp_path):
        with pytest.raises(IngestError, match="unknown format"):
            adapter_for(tmp_path / "x.csv", format="nope")

    def test_adapter_for_unknown_suffix(self, tmp_path):
        path = tmp_path / "data.xyz"
        path.write_text("x")
        with pytest.raises(IngestError, match=r"\.xyz"):
            adapter_for(path)


class TestRoundTrip:
    @pytest.mark.parametrize("name", ROUND_TRIP_ADAPTERS)
    def test_values_and_headers_survive(self, name, tmp_path):
        adapter = registered_adapters()[name]
        table = tricky_table()
        path = adapter.write_fixture(table, tmp_path / f"fixture{SUFFIX_FOR[name]}")
        streams = list(adapter.streams(path, chunk_rows=2))
        assert len(streams) == 1
        restored = streams[0].materialize()
        assert [c.header for c in restored.columns] == ["text", "amount", "city"]
        for original, loaded in zip(table.columns, restored.columns):
            assert tuple(loaded.values) == tuple(original.values)

    @pytest.mark.parametrize("name", ROUND_TRIP_ADAPTERS)
    def test_chunking_never_changes_values(self, name, tmp_path):
        adapter = registered_adapters()[name]
        path = adapter.write_fixture(
            tricky_table(), tmp_path / f"fixture{SUFFIX_FOR[name]}"
        )
        whole = next(iter(adapter.streams(path, chunk_rows=1000))).materialize()
        tiny = next(iter(adapter.streams(path, chunk_rows=1))).materialize()
        for a, b in zip(whole.columns, tiny.columns):
            assert tuple(a.values) == tuple(b.values)

    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 1000])
    @pytest.mark.parametrize("name", ROUND_TRIP_ADAPTERS)
    def test_chunks_arrive_in_row_order(self, name, chunk_rows, tmp_path):
        """Each chunk starts where the earlier ones end, from row 0.

        The streaming accumulators grow each column's token prefix in
        chunk order, so they rely on this.
        """
        adapter = registered_adapters()[name]
        path = adapter.write_fixture(
            tricky_table(), tmp_path / f"fixture{SUFFIX_FOR[name]}"
        )
        stream = next(iter(adapter.streams(path, chunk_rows=chunk_rows)))
        next_row = 0
        for chunk in stream.chunks:
            assert chunk.start_row == next_row
            next_row += chunk.n_rows
        assert next_row == tricky_table().n_rows


class TestCsv:
    def test_bom_is_stripped_from_first_header(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes("﻿city,pop\noslo,7\n".encode("utf-8"))
        stream = next(iter(open_source(path, chunk_rows=10)))
        assert stream.headers == ("city", "pop")
        assert tuple(stream.materialize().columns[0].values) == ("oslo",)

    def test_nfd_unicode_codepoints_preserved(self, tmp_path):
        path = tmp_path / "nfd.csv"
        path.write_text(f"name\n{NFD_CAFE}\n", encoding="utf-8")
        value = next(iter(open_source(path, 10))).materialize().columns[0].values[0]
        assert value == NFD_CAFE
        assert "́" in value  # still decomposed, not silently NFC'd

    def test_short_rows_padded(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("a,b\n1\n2,3\n", encoding="utf-8")
        table = next(iter(open_source(path, 10))).materialize()
        assert tuple(table.columns[1].values) == ("", "3")

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(IngestError, match="empty CSV"):
            list(open_source(path, 10))

    def test_overwide_row_raises_with_line_number(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("a,b\n1,2\n1,2,3\n", encoding="utf-8")
        with pytest.raises(IngestError, match="line 3"):
            next(iter(open_source(path, 10))).materialize()

    def test_non_utf8_bytes_raise_ingest_error(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"name\n\xff\xfe\n")
        with pytest.raises(IngestError, match="latin.csv"):
            next(iter(open_source(path, 10))).materialize()


class TestNdjson:
    def test_nulls_missing_and_scalars(self, tmp_path):
        path = tmp_path / "rows.ndjson"
        path.write_text(
            '{"a": "x", "b": null, "c": 1.5}\n'
            '{"a": null, "c": 7}\n'
            '{"a": "y", "b": true, "c": -0.25}\n',
            encoding="utf-8",
        )
        table = next(iter(open_source(path, 2))).materialize()
        assert tuple(table.columns[0].values) == ("x", "", "y")
        # null / missing / bool
        assert tuple(table.columns[1].values) == ("", "", "true")
        assert tuple(table.columns[2].values) == ("1.5", "7", "-0.25")

    def test_invalid_json_line_raises(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"a": 1}\nnot json\n', encoding="utf-8")
        with pytest.raises(IngestError, match="line 2"):
            next(iter(open_source(path, 10))).materialize()

    def test_non_object_line_raises(self, tmp_path):
        path = tmp_path / "arr.ndjson"
        path.write_text("[1, 2]\n", encoding="utf-8")
        with pytest.raises(IngestError, match="object"):
            list(open_source(path, 10))

    def test_new_key_mid_stream_raises(self, tmp_path):
        path = tmp_path / "drift.ndjson"
        path.write_text('{"a": 1}\n{"a": 2, "b": 3}\n', encoding="utf-8")
        with pytest.raises(IngestError, match="keys not in the first object"):
            next(iter(open_source(path, 10))).materialize()

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.ndjson"
        path.write_text("", encoding="utf-8")
        with pytest.raises(IngestError):
            list(open_source(path, 10))


class TestSqlite:
    def test_type_affinity_stringification(self, tmp_path):
        path = tmp_path / "typed.sqlite"
        with sqlite3.connect(path) as connection:
            connection.execute(
                "CREATE TABLE t (n INTEGER, x REAL, s TEXT, b BLOB)"
            )
            connection.execute(
                "INSERT INTO t VALUES (7, 1.5, 'oslo', X'68690A')"
            )
            connection.execute("INSERT INTO t VALUES (NULL, NULL, NULL, NULL)")
        table = next(iter(open_source(path, 10))).materialize()
        assert tuple(table.columns[0].values) == ("7", "")
        assert tuple(table.columns[1].values) == ("1.5", "")
        assert tuple(table.columns[2].values) == ("oslo", "")
        assert tuple(table.columns[3].values) == ("hi\n", "")

    def test_one_stream_per_table_sorted_by_name(self, tmp_path):
        path = tmp_path / "multi.db"
        with sqlite3.connect(path) as connection:
            connection.execute("CREATE TABLE zeta (v TEXT)")
            connection.execute("CREATE TABLE alpha (v TEXT)")
        streams = list(open_source(path, 10))
        assert [s.table_id for s in streams] == ["multi.alpha", "multi.zeta"]

    def test_not_a_database_raises(self, tmp_path):
        path = tmp_path / "junk.sqlite"
        path.write_bytes(b"definitely not sqlite")
        with pytest.raises(IngestError, match="SQLite"):
            list(open_source(path, 10))


class TestParquet:
    def test_unavailable_backend_gives_clear_error(self, tmp_path):
        adapter = registered_adapters()["parquet"]
        path = tmp_path / "data.parquet"
        path.write_bytes(b"PAR1")
        if adapter.available:
            with pytest.raises(IngestError, match="parquet"):
                list(adapter.streams(path))
        else:
            with pytest.raises(IngestError, match="pyarrow"):
                list(adapter.streams(path))


class TestDiscovery:
    def test_missing_path_raises(self, tmp_path):
        with pytest.raises(IngestError, match="does not exist"):
            discover_sources(tmp_path / "nope")

    def test_directory_walk_sorted_recursive_skips_unknown(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "b.csv").write_text("a\n1\n")
        (tmp_path / "sub" / "a.ndjson").write_text('{"a": 1}\n')
        (tmp_path / "readme.txt").write_text("ignored")
        sources = discover_sources(tmp_path)
        assert [(p.name, a.name) for p, a in sources] == [
            ("b.csv", "csv"),
            ("a.ndjson", "ndjson"),
        ]

    def test_format_override_beats_suffix(self, tmp_path):
        path = tmp_path / "data.txt"
        path.write_text("city\noslo\n")
        stream = next(iter(open_source(path, 10, format="csv")))
        assert stream.headers == ("city",)

    def test_error_message_names_the_source(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(IngestError) as excinfo:
            list(open_source(path, 10))
        assert "empty.csv" in str(excinfo.value)
        assert excinfo.value.source is not None
