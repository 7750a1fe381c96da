"""Tests for the vectorized featurization engine.

The per-value loop (``reference_transform_columns``) is the oracle: every
batched code path must agree with it ``allclose`` (rtol 1e-6), and a bundle
manifest the model classes cannot take is refused with a clean error.
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro.cli import main
from repro.corpus import CorpusConfig, CorpusGenerator
from repro.features import (
    char_features,
    char_features_batch,
    column_statistics,
    stats_features_batch,
)
from repro.serving import (
    MANIFEST_NAME,
    BundleFormatError,
    Predictor,
    load_model,
    save_model,
)
import repro.tables.table as table_module
from repro.tables import Column, Table

from helpers import FLOAT_EDGE_PIECES, tiny_featurizer

RTOL, ATOL = 1e-6, 1e-9

EDGE_COLUMNS = [
    ["Paris", "Rome", "New York"],
    ["12", "94", "-3.5", "$1,000", "50%", "1e4"],
    ["", "  ", "\t", "a b  c"],
    [],
    ["", ""],
    ["same", "same", "same", "other"],
    ["ABC", "DeF", "ǅungla", "İstanbul", "ΣΙΓΜΑΣ", "ümlaut"],
    ["inf", "nan", "0", "000"],
    ["x"],
    ["emoji 🎉 mix 123", "line\nbreak", "  padded  "],
    ["a\ud800b", "lone\udfffsurrogate"],  # reachable via JSONL corpora
    FLOAT_EDGE_PIECES,
]


class TestBatchOracles:
    def test_char_features_batch_matches_oracle(self):
        batch = char_features_batch(EDGE_COLUMNS)
        for row, values in zip(batch, EDGE_COLUMNS):
            np.testing.assert_allclose(
                row, char_features(values), rtol=RTOL, atol=ATOL
            )

    def test_stats_features_batch_matches_oracle(self):
        batch = stats_features_batch(EDGE_COLUMNS)
        for row, values in zip(batch, EDGE_COLUMNS):
            np.testing.assert_allclose(
                row, column_statistics(values), rtol=RTOL, atol=ATOL
            )

    def test_empty_batch(self):
        assert char_features_batch([]).shape[0] == 0
        assert stats_features_batch([]).shape[0] == 0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_tables_property_parity(self, seed):
        """Property-style: random corpora agree between engine and loop."""
        tables = CorpusGenerator(
            CorpusConfig(n_tables=25, seed=seed, max_rows=9)
        ).generate()
        value_lists = [c.values for t in tables for c in t.columns]
        chars = char_features_batch(value_lists)
        stats = stats_features_batch(value_lists)
        for i, values in enumerate(value_lists):
            np.testing.assert_allclose(
                chars[i], char_features(values), rtol=RTOL, atol=ATOL
            )
            np.testing.assert_allclose(
                stats[i], column_statistics(values), rtol=RTOL, atol=ATOL
            )


class TestFeaturizerBackends:
    @pytest.fixture(scope="class")
    def backends(self, multi_column_tables):
        featurizer = tiny_featurizer()
        featurizer.fit(multi_column_tables)
        columns = [c for t in multi_column_tables for c in t.columns]
        loop = featurizer.reference_transform_columns(columns)
        vectorized = featurizer.transform_columns(columns)
        return featurizer, columns, loop, vectorized

    def test_vectorized_matches_loop(self, backends):
        _, _, loop, vectorized = backends
        np.testing.assert_allclose(vectorized, loop, rtol=RTOL, atol=ATOL)

    def test_transform_tables_uses_batched_path(self, backends, multi_column_tables):
        featurizer, columns, _, vectorized = backends
        matrix = featurizer.transform_tables(multi_column_tables)
        assert matrix.matrix.shape == (len(columns), featurizer.n_features)
        np.testing.assert_array_equal(matrix.matrix, vectorized)

    def test_engine_reset_on_refit(self, multi_column_tables):
        featurizer = tiny_featurizer()
        featurizer.fit(multi_column_tables[:10])
        first_engine = featurizer.engine
        featurizer.fit(multi_column_tables[:10])
        assert featurizer.engine is not first_engine

    def test_trailing_tokenless_columns_do_not_truncate_segments(
        self, multi_column_tables
    ):
        """Regression: a batch ending in token-less columns must not drop
        the last token of the preceding column from its Word/Para sums."""
        featurizer = tiny_featurizer()
        featurizer.fit(multi_column_tables)
        batch = [
            Column(values=["12", "345", "6789", "12345"]),
            Column(values=[" "]),       # whitespace only: zero tokens
            Column(values=["...", ""]),  # punctuation only: zero tokens
        ]
        loop = featurizer.reference_transform_columns(batch)
        np.testing.assert_allclose(
            featurizer.transform_columns(batch), loop, rtol=RTOL, atol=ATOL
        )


class TestHardCaseSuiteParity:
    """Engine-vs-loop parity on the shipped adversarial suites.

    The hard-case suites concentrate exactly the inputs where a vectorized
    engine can drift from the reference loop — non-BMP codepoints, NFD
    combining marks, RTL scripts, injected dirt and mixed-type cells — so
    parity is asserted over them explicitly, not just random corpora.
    """

    def test_vectorized_matches_loop_on_hard_cases(self, hard_case_tables):
        featurizer = tiny_featurizer()
        featurizer.fit(hard_case_tables)
        columns = [c for t in hard_case_tables for c in t.columns]
        loop = featurizer.reference_transform_columns(columns)
        vectorized = featurizer.transform_columns(columns)
        np.testing.assert_allclose(vectorized, loop, rtol=RTOL, atol=ATOL)

    def test_raw_batch_kernels_match_oracles_on_hard_cases(self, hard_case_tables):
        value_lists = [c.values for t in hard_case_tables for c in t.columns]
        chars = char_features_batch(value_lists)
        stats = stats_features_batch(value_lists)
        for i, values in enumerate(value_lists):
            np.testing.assert_allclose(
                chars[i], char_features(values), rtol=RTOL, atol=ATOL
            )
            np.testing.assert_allclose(
                stats[i], column_statistics(values), rtol=RTOL, atol=ATOL
            )


class TestVariantParity:
    """The engine serves all four variants like the per-value loop does."""

    def test_all_variants_predict_identically(self, fitted_variant, serving_split):
        _, test = serving_split
        predictor = Predictor(fitted_variant)
        column_model = fitted_variant.column_model
        loop_proba, loop_labels = [], []
        for table in test:
            # The loop features forwarded like predict_proba_table forwards
            # the engine's.
            columnwise = column_model.predict_proba_matrix(
                column_model.featurizer.reference_transform_columns(table.columns),
                column_model._batch_topic_rows([table]),
            )
            loop_proba.append(fitted_variant.marginals_from_proba(columnwise))
            loop_labels.append(fitted_variant.labels_from_proba(columnwise))
        for table, proba, labels in zip(test, loop_proba, loop_labels):
            np.testing.assert_allclose(
                fitted_variant.predict_proba_table(table), proba, rtol=1e-6, atol=1e-9
            )
            assert predictor.predict_table(table) == labels


class TestBundleCompatibility:
    @pytest.mark.parametrize(
        "edit,key",
        [
            (lambda column: column["featurizer"].update(backend="loop"), "backend"),
            (lambda column: column["featurizer"].update(workers=0), "workers"),
            (lambda column: column["training"].update(foo=1), "foo"),
            (lambda column: column.pop("n_classes"), "n_classes"),
            (lambda column: column.update(n_classes="x"), "does not fit"),
            (lambda column: column.update(n_classes=10**20), "does not fit"),
        ],
        ids=[
            "retired-backend",
            "retired-workers",
            "unknown-training-key",
            "missing-n-classes",
            "n-classes-of-wrong-type",
            "n-classes-too-large",
        ],
    )
    def test_malformed_manifest_is_refused(
        self, edit, key, trained_base, tmp_path, capsys
    ):
        """A config tree the model classes cannot take is refused by name.

        ``backend`` and ``workers`` are retired featurizer settings that no
        loadable (format 2) bundle was written with; like any unknown or
        missing key, or a value of the wrong type or size, they raise
        :class:`BundleFormatError`, which ``predict`` reports as an
        unloadable bundle with exit code 2.
        """
        bundle = save_model(trained_base, tmp_path / "bundle")
        manifest_path = bundle / MANIFEST_NAME
        manifest = json.loads(manifest_path.read_text())
        edit(manifest["model"]["column_model"])
        manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
        with pytest.raises(BundleFormatError, match=key):
            load_model(bundle)
        csv_path = tmp_path / "table.csv"
        csv_path.write_text("who\nAlice Smith\n", encoding="utf-8")
        assert main(["predict", "--model", str(bundle), "--csv", str(csv_path)]) == 2
        assert "cannot load model bundle" in capsys.readouterr().err


class TestRuntimeIsolation:
    def test_failed_standardizer_pass_leaves_featurizer_unfitted(
        self, multi_column_tables, monkeypatch
    ):
        featurizer = tiny_featurizer()
        monkeypatch.setattr(
            type(featurizer),
            "_raw_from_accumulator",
            lambda self, accumulator: (_ for _ in ()).throw(RuntimeError("boom")),
        )
        with pytest.raises(RuntimeError, match="boom"):
            featurizer.fit(multi_column_tables[:5])
        assert not featurizer.is_fitted


def count_hashes(monkeypatch) -> dict:
    """Count ``values_fingerprint`` calls made for ``Column.fingerprint``."""
    calls = {"n": 0}
    original = table_module.values_fingerprint

    def counting(values):
        calls["n"] += 1
        return original(values)

    monkeypatch.setattr(table_module, "values_fingerprint", counting)
    return calls


class TestFingerprintMemo:
    def test_cache_hit_columns_skip_fingerprinting(
        self, trained_base, corpus_small, monkeypatch
    ):
        predictor = Predictor(trained_base)
        # Fresh columns: shared fixtures may arrive already hashed.
        table = Table.from_dict(corpus_small[0].to_dict())
        calls = count_hashes(monkeypatch)
        predictor.predict_table(table)
        first = calls["n"]
        assert first == table.n_columns
        predictor.predict_table(table)  # same Column objects: hashed once
        assert calls["n"] == first

    def test_routed_table_reaches_the_worker_hashed(
        self, trained_sato, corpus_small, monkeypatch
    ):
        """Routing hashes each column once; a fleet frame carries the hashes."""
        from repro.serving.fleet import table_routing_key

        table = Table.from_dict(corpus_small[0].to_dict())
        calls = count_hashes(monkeypatch)
        table_routing_key(table)
        assert calls["n"] == table.n_columns
        frame = pickle.loads(pickle.dumps(("predict", 1, table, None)))
        calls["n"] = 0
        labels = Predictor(trained_sato).predict_table(frame[2])
        assert calls["n"] == 0
        assert labels == trained_sato.predict_table(table)

    def test_equal_but_distinct_columns_share_feature_cache(self, trained_base):
        predictor = Predictor(trained_base)
        def make() -> Table:
            return Table(
                columns=[
                    Column(values=["alpha", "beta", "gamma"]),
                    Column(values=["1", "2", "3"]),
                ]
            )
        predictor.predict_table(make())
        before = predictor.cache_info()
        predictor.predict_table(make())  # new objects, same content
        after = predictor.cache_info()
        assert after["misses"] == before["misses"]
        assert after["hits"] >= before["hits"] + 2
