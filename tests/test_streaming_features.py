"""Streaming featurization parity: chunked == full-scan, bit for bit.

The streaming path (``fit_stream`` / ``transform_stream`` /
``finalize_columns``) must be *bit-identical* to the in-memory full-scan
loop oracle — not merely close.  The accumulators hold exact sufficient
statistics (integer counts, token prefixes by row position) and all
float-weighted reductions go through ``math.fsum``, so equality holds for
every chunking and every merge order.  These tests enforce that contract
over all shipped corpus-spec hard-case suites at chunk sizes
{1, 7, 1000, whole-table}.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.corpus.suites import available_suites, build_suite
from repro.features import ColumnAccumulator, TokenAccumulator
from repro.tables import (
    Column,
    Table,
    TableChunk,
    TableStream,
    stream_tables,
    table_stream,
)

from helpers import tiny_featurizer

#: 1 = worst-case chunking, 7 = ragged (never divides row counts evenly),
#: 1000 = larger than every suite table, None = whole table in one chunk.
CHUNK_SIZES = (1, 7, 1000, None)


def _suite_tables(name: str, limit: int = 6) -> list[Table]:
    return list(build_suite(name, "tiny").tables)[:limit]


def loop_oracle(featurizer, table: Table) -> np.ndarray:
    """A table's features by the per-value reference loop."""
    return featurizer.reference_transform_columns(table.columns)


class TestTransformStreamParity:
    @pytest.mark.parametrize("suite_name", sorted(available_suites()))
    def test_bit_identical_across_chunk_sizes(self, suite_name, fitted_featurizer):
        for table in _suite_tables(suite_name):
            oracle = loop_oracle(fitted_featurizer, table)
            for chunk_rows in CHUNK_SIZES:
                streamed = fitted_featurizer.transform_stream(
                    table_stream(table, chunk_rows)
                )
                np.testing.assert_array_equal(
                    streamed, oracle, err_msg=f"{suite_name} chunk={chunk_rows}"
                )

    def test_hard_case_fixture_tables(self, hard_case_tables, fitted_featurizer):
        for table in hard_case_tables:
            oracle = loop_oracle(fitted_featurizer, table)
            streamed = fitted_featurizer.transform_stream(table.as_stream(3))
            np.testing.assert_array_equal(streamed, oracle)

    def test_edge_case_tables(self, fitted_featurizer):
        """Empty, all-missing, whitespace-only and ragged columns."""
        tables = [
            Table(columns=(Column(values=(), header="empty"),)),
            Table(columns=(Column(values=("", "  ", "\t"), header="blank"),)),
            Table(
                columns=(
                    Column(values=("a", "b", "c", "d", "e"), header="long"),
                    Column(values=("1",), header="short"),
                )
            ),
        ]
        for table in tables:
            oracle = loop_oracle(fitted_featurizer, table)
            for chunk_rows in (1, 2, None):
                streamed = fitted_featurizer.transform_stream(
                    table.as_stream(chunk_rows)
                )
                np.testing.assert_array_equal(streamed, oracle)

    def test_vectorized_backend_still_matches_streamed_oracle(
        self, fitted_featurizer, hard_case_tables
    ):
        """The engine's contract (allclose to the oracle) survives."""
        for table in hard_case_tables[:4]:
            streamed = fitted_featurizer.transform_stream(table.as_stream(5))
            fast = fitted_featurizer.transform_table(table)
            np.testing.assert_allclose(fast, streamed, rtol=1e-6, atol=1e-8)


    @pytest.mark.parametrize("method", ["transform_stream", "fit_stream"])
    def test_chunk_with_wrong_column_count_is_rejected(self, method):
        """A short chunk raises instead of silently dropping a column's rows."""
        stream = TableStream(
            headers=("a", "b"),
            chunks=iter(
                [
                    TableChunk(columns=(("x", "y"), ("1", "2"))),
                    TableChunk(columns=(("z",),), start_row=2),
                ]
            ),
        )
        featurizer = tiny_featurizer()
        if method == "transform_stream":
            featurizer.fit(_suite_tables("clean_baseline", limit=4))
        argument = stream if method == "transform_stream" else [stream]
        with pytest.raises(ValueError, match="chunk has 1 columns"):
            getattr(featurizer, method)(argument)


class TestMergeOrderInvariance:
    @pytest.mark.parametrize("seed", range(3))
    def test_shuffled_merge_is_bit_identical(self, seed, fitted_featurizer):
        rng = random.Random(seed)
        for table in _suite_tables("dirty_columns", limit=4):
            oracle = loop_oracle(fitted_featurizer, table)
            chunks = list(table.iter_chunks(3))
            merged_columns = []
            for j in range(table.n_columns):
                parts = []
                for chunk in chunks:
                    accumulator = fitted_featurizer.column_accumulator()
                    accumulator.partial_fit(
                        chunk.columns[j],
                        start_row=chunk.start_row,
                        row_span=chunk.n_rows,
                    )
                    parts.append(accumulator)
                rng.shuffle(parts)
                merged = parts[0]
                for other in parts[1:]:
                    merged.merge(other)
                merged_columns.append(merged)
            streamed = fitted_featurizer.finalize_columns(merged_columns)
            np.testing.assert_array_equal(streamed, oracle)

    def test_merge_preserves_token_prefix_order(self):
        """Row position, not merge order, decides the capped token prefix."""
        values = [f"tok{i}" for i in range(10)]
        forward = TokenAccumulator(max_tokens=6)
        forward.partial_fit(values)
        shuffled = TokenAccumulator(max_tokens=6)
        for start in (8, 4, 0, 6, 2):
            shuffled.merge(
                TokenAccumulator(max_tokens=6).partial_fit(
                    values[start : start + 2], start_row=start
                )
            )
        assert shuffled.tokens() == forward.tokens()
        assert len(shuffled.tokens()) == 6


class TestFitStreamParity:
    @pytest.mark.parametrize("chunk_rows", (1, 7, None))
    def test_fit_stream_state_bit_identical_to_fit(self, chunk_rows):
        tables = _suite_tables("dirty_columns", limit=10)
        full = tiny_featurizer().fit(tables)
        streamed = tiny_featurizer()
        streamed.fit_stream(stream_tables(tables, chunk_rows))
        full_state = full.state_dict()
        streamed_state = streamed.state_dict()
        assert full_state.keys() == streamed_state.keys()
        for key in full_state:
            np.testing.assert_array_equal(
                full_state[key], streamed_state[key], err_msg=key
            )

    def test_fit_stream_marks_fitted_and_transforms(self):
        tables = _suite_tables("clean_baseline", limit=6)
        featurizer = tiny_featurizer()
        assert not featurizer.is_fitted
        featurizer.fit_stream(stream_tables(tables, 4))
        assert featurizer.is_fitted
        matrix = featurizer.transform_table(tables[0])
        assert matrix.shape == (tables[0].n_columns, featurizer.n_features)


class TestAccumulatorUnits:
    def test_token_accumulator_cap(self):
        accumulator = TokenAccumulator(max_tokens=3)
        accumulator.partial_fit(["a b", "c d", "e f"])
        assert accumulator.tokens() == ["a", "b", "c"]

    def test_token_accumulator_overlap_raises(self):
        accumulator = TokenAccumulator(max_tokens=10)
        accumulator.partial_fit(["a", "b"], start_row=0)
        with pytest.raises(ValueError):
            accumulator.partial_fit(["c"], start_row=1)

    def test_token_accumulator_row_span_shorter_than_values_raises(self):
        accumulator = TokenAccumulator(max_tokens=10)
        with pytest.raises(ValueError):
            accumulator.partial_fit(["a", "b", "c"], start_row=0, row_span=2)

    def test_token_accumulator_ragged_row_span(self):
        """A short column inside a wider chunk still lines up by row."""
        accumulator = TokenAccumulator(max_tokens=10)
        accumulator.partial_fit(["a"], start_row=0, row_span=4)
        accumulator.partial_fit(["b"], start_row=4, row_span=4)
        assert accumulator.tokens() == ["a", "b"]

    def test_token_accumulator_merge_cap_mismatch_raises(self):
        with pytest.raises(ValueError):
            TokenAccumulator(max_tokens=3).merge(TokenAccumulator(max_tokens=4))

    def test_column_accumulator_matches_whole_column(self, fitted_featurizer):
        values = ["Oslo", "", "  ", "Bergen 42", "café", "$1,200.50"]
        whole = ColumnAccumulator(max_tokens=64)
        whole.partial_fit(values)
        piecewise = ColumnAccumulator(max_tokens=64)
        for start in range(0, len(values), 2):
            piecewise.partial_fit(values[start : start + 2], start_row=start)
        np.testing.assert_array_equal(
            fitted_featurizer._raw_from_accumulator(piecewise),
            fitted_featurizer._raw_from_accumulator(whole),
        )

    def test_column_accumulator_smaller_cap_than_featurizer_raises(
        self, fitted_featurizer
    ):
        with pytest.raises(ValueError):
            fitted_featurizer.column_accumulator(max_tokens=1)

    def test_finalize_columns_requires_fitted(self):
        featurizer = tiny_featurizer()
        accumulator = ColumnAccumulator(max_tokens=64)
        accumulator.partial_fit(["x"])
        with pytest.raises(RuntimeError):
            featurizer.finalize_columns([accumulator])
