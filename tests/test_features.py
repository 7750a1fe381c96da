"""Tests for the feature extraction modules."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.features import (
    CHAR_FEATURE_NAMES,
    STAT_FEATURE_NAMES,
    ColumnFeaturizer,
    StatAccumulator,
    char_features,
    column_statistics,
    stats_features_batch,
)
from repro.tables import Column, Table

#: Finite numbers past the parse bound: one overflowed the squared
#: deviations, the other the sums.
HUGE_NUMBER_COLUMNS = [
    ["1e200", "-1e200", "5"],
    ["1.7976931348623157e308", "1.7976931348623157e308"],
]


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
        for features in (loop, streamed, batched):
            assert np.all(np.isfinite(features))
        assert np.allclose(streamed, loop) and np.allclose(batched, loop)


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
