"""Tests for the feature extraction modules."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.features import (
    CHAR_FEATURE_NAMES,
    STAT_FEATURE_NAMES,
    ColumnAccumulator,
    ColumnFeaturizer,
    StatAccumulator,
    char_features,
    column_statistics,
    stats_features_batch,
)
from repro.features.accumulators import _SLICE_VALUES
from repro.features.codepoints import (
    _CLASS_ALPHA,
    _CLASS_PUNCT,
    _CLASS_UNSET,
    _FLAG_ALPHA,
    _FLAG_CASED,
    _FLAG_UPPER,
    _CharPropertyTable,
)
from repro.tables import Column, Table

#: Finite numbers past the parse bound: one overflowed the squared
#: deviations, the other the sums.
HUGE_NUMBER_COLUMNS = [
    ["1e200", "-1e200", "5"],
    ["1.7976931348623157e308", "1.7976931348623157e308"],
]

#: Cell pieces at the edges of the Char and Stat definitions: empty and
#: blank cells (U+3000, U+001C and U+0085 are whitespace to ``str.strip``),
#: a lone surrogate, case mappings that change a character's length or
#: class ("İ" lowercases to two code points, "ǅ" is title case), wide and
#: Arabic-Indic digits, and spellings at the edges of number parsing.
BOUNDARY_PIECES = [
    "",
    " ",
    "\t",
    "\u3000",
    "\x1c",
    "\x85",
    "\ud800",
    "İ",
    "ǅ",
    "ß",
    "２",
    "١",
    "1e200",
    "-0",
    "nan",
    "$1,200.50",
    "a",
    "Q",
    "7",
    "x y",
]

boundary_values = st.lists(st.sampled_from(BOUNDARY_PIECES), max_size=3).map("".join)


@st.composite
def boundary_columns(draw) -> list[str]:
    """A column of boundary values, with repeats; sometimes wider than a slice.

    The wide columns hold more distinct values than one slice of the
    counted pass, each repeated, in shuffled order.
    """
    values = draw(st.lists(boundary_values, max_size=40))
    if draw(st.booleans()):
        stem = draw(boundary_values)
        n_distinct = draw(st.integers(_SLICE_VALUES + 1, 2 * _SLICE_VALUES + 7))
        values += [f"{stem}{i % n_distinct}" for i in range(2 * n_distinct)]
        draw(st.randoms(use_true_random=False)).shuffle(values)
    return values


def counted_vectors(values: list[str], chunk_rows: int | None):
    """Char and Stat vectors by the accumulator, fed ``chunk_rows`` at a time."""
    accumulator = ColumnAccumulator(max_tokens=0)
    step = chunk_rows or max(1, len(values))
    for start in range(0, len(values), step):
        accumulator.partial_fit(values[start : start + step])
    return accumulator.finalize()


class TestCharFeatures:
    def test_dimension_matches_names(self):
        assert char_features(["abc"]).shape == (len(CHAR_FEATURE_NAMES),)

    def test_empty_column_is_zero(self):
        assert np.allclose(char_features([]), 0.0)
        assert np.allclose(char_features(["", ""]), 0.0)

    def test_digit_heavy_column(self):
        features = dict(zip(CHAR_FEATURE_NAMES, char_features(["12345", "67890"])))
        assert features["shape_frac_digit"] == pytest.approx(1.0)
        assert features["shape_frac_alpha"] == pytest.approx(0.0)

    def test_alpha_column(self):
        features = dict(zip(CHAR_FEATURE_NAMES, char_features(["abc", "def"])))
        assert features["shape_frac_alpha"] == pytest.approx(1.0)

    def test_uppercase_fraction(self):
        features = dict(zip(CHAR_FEATURE_NAMES, char_features(["ABC"])))
        assert features["shape_frac_upper"] == pytest.approx(1.0)

    def test_char_presence(self):
        features = dict(zip(CHAR_FEATURE_NAMES, char_features(["aaa", "bbb"])))
        assert features["char_presence[a]"] == pytest.approx(0.5)
        assert features["char_mean[a]"] == pytest.approx(1.5)

    def test_deterministic(self):
        values = ["Florence", "Warsaw", "London"]
        assert np.allclose(char_features(values), char_features(values))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.text(max_size=20), max_size=10))
    def test_always_finite(self, values):
        assert np.all(np.isfinite(char_features(values)))


class TestStatFeatures:
    def test_dimension_is_27(self):
        assert len(STAT_FEATURE_NAMES) == 27
        assert column_statistics(["a"]).shape == (27,)

    def test_empty_column_is_zero(self):
        assert np.allclose(column_statistics([]), 0.0)

    def test_missing_fraction(self):
        features = dict(zip(STAT_FEATURE_NAMES, column_statistics(["a", "", "b", ""])))
        # Features are log1p-squashed; recover the raw fraction.
        assert np.expm1(features["frac_missing"]) == pytest.approx(0.5)

    def test_numeric_column_detected(self):
        features = dict(zip(STAT_FEATURE_NAMES, column_statistics(["1", "2", "3"])))
        assert np.expm1(features["frac_numeric"]) == pytest.approx(1.0)
        assert np.expm1(features["frac_integer"]) == pytest.approx(1.0)

    def test_textual_column_not_numeric(self):
        features = dict(zip(STAT_FEATURE_NAMES, column_statistics(["abc", "def"])))
        assert features["frac_numeric"] == pytest.approx(0.0)

    def test_unique_fraction(self):
        features = dict(zip(STAT_FEATURE_NAMES, column_statistics(["a", "a", "a", "b"])))
        assert np.expm1(features["frac_unique"]) == pytest.approx(0.5)
        assert np.expm1(features["mode_frequency"]) == pytest.approx(0.75)

    def test_entropy_zero_for_constant_column(self):
        features = dict(zip(STAT_FEATURE_NAMES, column_statistics(["x", "x", "x"])))
        assert features["entropy"] == pytest.approx(0.0, abs=1e-6)

    def test_currency_and_commas_parsed_as_numeric(self):
        features = dict(zip(STAT_FEATURE_NAMES, column_statistics(["$1,000", "$2,500"])))
        assert np.expm1(features["frac_numeric"]) == pytest.approx(1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.text(max_size=15), max_size=12))
    def test_always_finite(self, values):
        assert np.all(np.isfinite(column_statistics(values)))

    @pytest.mark.parametrize("values", HUGE_NUMBER_COLUMNS, ids=["1e200", "max"])
    def test_huge_numbers_keep_every_path_finite(self, values):
        loop = column_statistics(values)
        streamed = StatAccumulator().partial_fit(values).finalize()
        batched = stats_features_batch([values])[0]
        _, counted = counted_vectors(values, None)
        for features in (loop, streamed, batched, counted):
            assert np.all(np.isfinite(features))
        assert np.allclose(streamed, loop) and np.allclose(batched, loop)
        np.testing.assert_array_equal(counted, loop)


class TestCountedPass:
    """The accumulator's counted pass is the per-value loops, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(boundary_columns())
    def test_equals_the_loops_for_every_chunking(self, values):
        char = char_features(values)
        stat = column_statistics(values)
        for chunk_rows in (1, 7, None):
            counted_char, counted_stat = counted_vectors(values, chunk_rows)
            np.testing.assert_array_equal(counted_char, char, err_msg=f"{chunk_rows}")
            np.testing.assert_array_equal(counted_stat, stat, err_msg=f"{chunk_rows}")

    def test_empty_column_is_zero(self):
        char, stat = ColumnAccumulator(max_tokens=0).finalize()
        assert not char.any() and not stat.any()
        assert char.shape == (len(CHAR_FEATURE_NAMES),)
        assert stat.shape == (len(STAT_FEATURE_NAMES),)


class TestCodepointTable:
    def test_grows_only_past_the_largest_codepoint_seen(self):
        table = _CharPropertyTable()
        table.lookup(np.array([ord("é")], dtype=np.uint32))
        assert len(table.class_id) <= 512
        _, class_id, flags = table.lookup(np.array([0x1F600, 0xE9], dtype=np.uint32))
        assert len(table.class_id) <= 1 << 17
        # U+1F600 (an emoji) is punctuation to the loop, and uncased.
        assert class_id.tolist() == [_CLASS_PUNCT, _CLASS_ALPHA]
        assert flags[0] == 0
        assert flags[1] == _FLAG_ALPHA | _FLAG_CASED
        assert not flags[1] & _FLAG_UPPER

    def test_concurrent_growth_loses_no_codepoint(self):
        """Threads growing one table never see an unclassified codepoint."""
        failures: list = []

        def worker(table, seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(40):
                    high = 1 << int(rng.integers(8, 21))
                    _, class_id, _ = table.lookup(rng.integers(0, high, size=64))
                    if (class_id == _CLASS_UNSET).any():
                        failures.append(f"unclassified codepoint (seed {seed})")
            except Exception as error:  # reported by the assertion below
                failures.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for trial in range(10):
                table = _CharPropertyTable()
                threads = [
                    threading.Thread(target=worker, args=(table, 6 * trial + k))
                    for k in range(6)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(interval)
        assert not failures, failures[:3]


class TestColumnFeaturizer:
    def test_group_layout(self, fitted_featurizer):
        groups = {g.name: g for g in fitted_featurizer.groups}
        assert set(groups) == {"char", "word", "para", "stat"}
        assert groups["stat"].size == 27
        assert groups["word"].size == fitted_featurizer.word_dim
        assert groups["para"].size == fitted_featurizer.para_dim
        assert fitted_featurizer.n_features == sum(g.size for g in groups.values())

    def test_feature_names_count(self, fitted_featurizer):
        assert len(fitted_featurizer.feature_names()) == fitted_featurizer.n_features

    def test_transform_requires_fit(self):
        featurizer = ColumnFeaturizer(word_dim=8, para_dim=4)
        with pytest.raises(RuntimeError):
            featurizer.transform_column(Column(values=["a"]))

    def test_transform_column_shape(self, fitted_featurizer):
        vector = fitted_featurizer.transform_column(Column(values=["Paris", "Rome"]))
        assert vector.shape == (fitted_featurizer.n_features,)
        assert np.all(np.isfinite(vector))

    def test_transform_table_shape(self, fitted_featurizer, multi_column_tables):
        table = multi_column_tables[0]
        matrix = fitted_featurizer.transform_table(table)
        assert matrix.shape == (table.n_columns, fitted_featurizer.n_features)

    def test_transform_empty_table(self, fitted_featurizer):
        matrix = fitted_featurizer.transform_table(Table(columns=[]))
        assert matrix.shape == (0, fitted_featurizer.n_features)

    def test_transform_tables_metadata(self, fitted_featurizer, multi_column_tables):
        subset = multi_column_tables[:5]
        feature_matrix = fitted_featurizer.transform_tables(subset)
        expected = sum(t.n_columns for t in subset)
        assert feature_matrix.matrix.shape == (expected, fitted_featurizer.n_features)
        assert len(feature_matrix.labels) == expected
        assert len(feature_matrix.table_ids) == expected
        assert feature_matrix.group("stat").size == 27
        with pytest.raises(KeyError):
            feature_matrix.group("nope")

    def test_standardization_roughly_centred(self, fitted_featurizer, multi_column_tables):
        feature_matrix = fitted_featurizer.transform_tables(multi_column_tables)
        means = feature_matrix.matrix.mean(axis=0)
        assert np.abs(means).mean() < 1.0

    def test_deterministic(self, fitted_featurizer):
        column = Column(values=["Florence", "Warsaw", "London"])
        a = fitted_featurizer.transform_column(column)
        b = fitted_featurizer.transform_column(column)
        assert np.allclose(a, b)

    def test_different_columns_different_features(self, fitted_featurizer):
        a = fitted_featurizer.transform_column(Column(values=["Paris", "Rome"]))
        b = fitted_featurizer.transform_column(Column(values=["12", "94"]))
        assert not np.allclose(a, b)
