"""Tests for the Table / Column data model."""

from repro.tables import Column, Table


class TestColumn:
    def test_values_are_stringified(self):
        column = Column(values=[1, 2.5, None, "x"])
        assert column.values == ["1", "2.5", "", "x"]

    def test_label_derived_from_header(self):
        column = Column(values=["a"], header="Birth Place")
        assert column.semantic_type == "birthPlace"

    def test_unknown_header_gives_no_label(self):
        column = Column(values=["a"], header="random nonsense header")
        assert column.semantic_type is None
        assert not column.has_label

    def test_explicit_label_wins_over_header(self):
        column = Column(values=["a"], header="Year", semantic_type="city")
        assert column.semantic_type == "city"

    def test_len_iter_head(self):
        column = Column(values=list("abcdef"))
        assert len(column) == 6
        assert list(column)[:2] == ["a", "b"]
        assert column.head(3) == ["a", "b", "c"]

    def test_dict_round_trip(self):
        column = Column(values=["x", "y"], header="City", semantic_type="city")
        restored = Column.from_dict(column.to_dict())
        assert restored.values == column.values
        assert restored.header == column.header
        assert restored.semantic_type == column.semantic_type


class TestTable:
    def make_table(self):
        return Table(
            columns=[
                Column(values=["Alice", "Bob"], semantic_type="name"),
                Column(values=["34", "27"], semantic_type="age"),
            ],
            table_id="t1",
            metadata={"intent": "people"},
        )

    def test_basic_properties(self):
        table = self.make_table()
        assert table.n_columns == 2
        assert table.n_rows == 2
        assert not table.is_singleton
        assert table.labels == ["name", "age"]
        assert table.is_fully_labeled

    def test_singleton(self):
        table = Table(columns=[Column(values=["a"])])
        assert table.is_singleton
        assert not table.is_fully_labeled

    def test_empty_table(self):
        table = Table(columns=[])
        assert table.n_rows == 0
        assert not table.is_fully_labeled
        assert table.rows() == []

    def test_rows_pads_ragged_columns(self):
        table = Table(columns=[Column(values=["a", "b", "c"]), Column(values=["1"])])
        rows = table.rows()
        assert rows == [["a", "1"], ["b", ""], ["c", ""]]

    def test_without_headers_strips_labels(self):
        stripped = self.make_table().without_headers()
        assert stripped.labels == [None, None]
        assert stripped.columns[0].values == ["Alice", "Bob"]

    def test_dict_round_trip(self):
        table = self.make_table()
        restored = Table.from_dict(table.to_dict())
        assert restored.table_id == "t1"
        assert restored.metadata == {"intent": "people"}
        assert restored.labels == table.labels
        assert [c.values for c in restored.columns] == [c.values for c in table.columns]

    def test_from_rows(self):
        table = Table.from_rows(
            [["Alice", "34"], ["Bob", "27"]], headers=["name", "age"]
        )
        assert table.n_columns == 2
        assert table.columns[0].values == ["Alice", "Bob"]
        assert table.labels == ["name", "age"]

    def test_from_rows_ragged(self):
        table = Table.from_rows([["a"], ["b", "2"]])
        assert table.n_columns == 2
        assert table.columns[1].values == ["", "2"]

    def test_from_rows_empty(self):
        table = Table.from_rows([], headers=["name"])
        assert table.n_columns == 1
        assert table.columns[0].values == []

    def test_from_columns(self):
        table = Table.from_columns([["a", "b"], ["1", "2"]], headers=["name", "age"])
        assert table.columns[1].values == ["1", "2"]
        assert table.labels == ["name", "age"]

    def test_indexing_and_iteration(self):
        table = self.make_table()
        assert table[0].semantic_type == "name"
        assert [c.semantic_type for c in table] == ["name", "age"]
        assert len(table) == 2


class TestGeneratedTables:
    def test_generated_corpus_tables_are_labeled(self, corpus_small):
        assert all(t.is_fully_labeled for t in corpus_small)

    def test_generated_tables_have_rows(self, corpus_small):
        assert all(t.n_rows >= 4 for t in corpus_small)

    def test_labels_match_registry(self, corpus_small):
        from repro.types import TYPE_TO_INDEX

        for table in corpus_small:
            for label in table.labels:
                assert label in TYPE_TO_INDEX
