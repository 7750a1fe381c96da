"""Tests for the serving subsystem: persistence bundles, batched prediction
and the column-feature LRU cache."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.serving import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    TENSORS_NAME,
    BundleFormatError,
    Predictor,
    StatefulComponent,
    load_model,
    save_model,
)
from repro.features.sketchstore import LRUCache
from repro.tables import Column, Table

from helpers import make_tiny_model


class TestBundleRoundTrip:
    def test_bundle_files_and_manifest_version(self, fitted_variant, tmp_path):
        bundle = save_model(fitted_variant, tmp_path / "bundle")
        assert (bundle / MANIFEST_NAME).is_file()
        assert (bundle / TENSORS_NAME).is_file()
        manifest = json.loads((bundle / MANIFEST_NAME).read_text())
        assert manifest["format_version"] == FORMAT_VERSION
        assert manifest["model"]["variant"] == fitted_variant.name

    def test_identical_predictions_after_reload(
        self, fitted_variant, serving_split, tmp_path
    ):
        _, test = serving_split
        save_model(fitted_variant, tmp_path / "bundle")
        # A freshly constructed model restored purely from the on-disk
        # bundle: nothing is shared with the in-memory original.
        loaded = load_model(tmp_path / "bundle")
        assert loaded is not fitted_variant
        assert loaded.name == fitted_variant.name
        for table in test:
            assert loaded.predict_table(table) == fitted_variant.predict_table(table)
            np.testing.assert_array_equal(
                loaded.predict_proba_table(table),
                fitted_variant.predict_proba_table(table),
            )

    def test_state_dict_round_trips_exactly(self, fitted_variant):
        state = fitted_variant.state_dict()
        restored = {key: value.copy() for key, value in state.items()}
        fitted_variant.load_state_dict(restored)
        for key, value in fitted_variant.state_dict().items():
            np.testing.assert_array_equal(value, state[key])

    def test_components_satisfy_protocol(self, fitted_variant):
        assert isinstance(fitted_variant, StatefulComponent)
        assert isinstance(fitted_variant.column_model, StatefulComponent)
        assert isinstance(fitted_variant.column_model.featurizer, StatefulComponent)
        assert isinstance(fitted_variant.column_model.network, StatefulComponent)
        if fitted_variant.crf is not None:
            assert isinstance(fitted_variant.crf, StatefulComponent)

    def test_manifest_records_network_architecture(self, fitted_variant, tmp_path):
        bundle = save_model(fitted_variant, tmp_path / "bundle")
        manifest = json.loads((bundle / MANIFEST_NAME).read_text())
        network = manifest["model"]["column_model"]["network"]
        group_names = [g["name"] for g in network["groups"]]
        assert group_names[:4] == ["char", "word", "para", "stat"]
        if fitted_variant.config.use_topic:
            assert "topic" in group_names


class TestBundleValidation:
    def test_missing_manifest(self, tmp_path):
        with pytest.raises(BundleFormatError, match="manifest"):
            load_model(tmp_path)

    def test_rejects_future_format_version(self, trained_base, tmp_path):
        bundle = save_model(trained_base, tmp_path / "bundle")
        manifest = json.loads((bundle / MANIFEST_NAME).read_text())
        manifest["format_version"] = FORMAT_VERSION + 1
        (bundle / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(BundleFormatError, match="format version"):
            load_model(bundle)

    def test_rejects_version_1_with_a_retrain_message(self, trained_base, tmp_path):
        bundle = save_model(trained_base, tmp_path / "bundle")
        manifest = json.loads((bundle / MANIFEST_NAME).read_text())
        manifest["format_version"] = 1
        (bundle / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(BundleFormatError, match="retrain it with `repro-sato"):
            load_model(bundle)

    def test_rejects_mismatched_type_vocabulary(self, trained_base, tmp_path):
        bundle = save_model(trained_base, tmp_path / "bundle")
        manifest = json.loads((bundle / MANIFEST_NAME).read_text())
        manifest["semantic_types"] = manifest["semantic_types"][:-1]
        (bundle / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(BundleFormatError, match="vocabulary"):
            load_model(bundle)

    def test_rejects_corrupt_manifest(self, trained_base, tmp_path):
        bundle = save_model(trained_base, tmp_path / "bundle")
        (bundle / MANIFEST_NAME).write_text('{"format_version": 1, "trunc')
        with pytest.raises(BundleFormatError, match="corrupt"):
            load_model(bundle)

    def test_rejects_missing_tensor(self, trained_base, tmp_path):
        bundle = save_model(trained_base, tmp_path / "bundle")
        with np.load(bundle / TENSORS_NAME) as archive:
            state = {key: archive[key] for key in archive.files}
        dropped = sorted(state)[0]
        del state[dropped]
        np.savez(bundle / TENSORS_NAME, **state)
        with pytest.raises(BundleFormatError, match="does not match the manifest"):
            load_model(bundle)

    def test_unfitted_model_cannot_be_saved(self, tmp_path):
        model = make_tiny_model(use_topic=False, use_struct=False)
        with pytest.raises(RuntimeError):
            save_model(model, tmp_path / "bundle")

    def test_model_save_load_convenience(self, trained_base, serving_split, tmp_path):
        _, test = serving_split
        trained_base.save(tmp_path / "bundle")
        loaded = type(trained_base).load(tmp_path / "bundle")
        assert loaded.predict_table(test[0]) == trained_base.predict_table(test[0])


class TestPredictor:
    def test_batched_matches_per_table(self, fitted_variant, serving_split):
        _, test = serving_split
        predictor = Predictor(fitted_variant)
        batched = predictor.predict_tables(test)
        assert batched == [fitted_variant.predict_table(t) for t in test]

    def test_proba_batched_matches_per_table(self, fitted_variant, serving_split):
        _, test = serving_split
        predictor = Predictor(fitted_variant)
        for proba, table in zip(predictor.predict_proba_tables(test), test):
            assert proba.shape == (table.n_columns, fitted_variant.column_model.n_classes)
            np.testing.assert_allclose(
                proba, fitted_variant.predict_proba_table(table), atol=1e-12
            )

    def test_empty_batch_and_empty_table(self, trained_base):
        predictor = Predictor(trained_base)
        assert predictor.predict_tables([]) == []
        empty = Table(columns=[])
        assert predictor.predict_table(empty) == []
        assert predictor.predict_proba_table(empty).shape[0] == 0

    def test_cache_hits_on_repeat_traffic(self, trained_base, serving_split):
        _, test = serving_split
        predictor = Predictor(trained_base, cache_size=1024)
        predictor.predict_tables(test)
        first = predictor.cache_info()
        assert first["misses"] > 0
        predictor.predict_tables(test)
        second = predictor.cache_info()
        assert second["misses"] == first["misses"]
        assert second["hits"] >= first["hits"] + first["misses"]

    def test_cache_info_counters_advance_across_predict_table_calls(
        self, trained_base, serving_split
    ):
        _, test = serving_split
        table = test[0]
        predictor = Predictor(trained_base, cache_size=1024)
        start = predictor.cache_info()
        assert start["hits"] == 0 and start["misses"] == 0 and start["size"] == 0

        predictor.predict_table(table)
        cold = predictor.cache_info()
        assert cold["misses"] == table.n_columns  # one lookup per column, all cold
        assert cold["hits"] == 0
        assert cold["size"] > 0
        assert cold["capacity"] == 1024

        predictor.predict_table(table)
        warm = predictor.cache_info()
        assert warm["misses"] == cold["misses"]  # nothing refeaturized
        assert warm["hits"] == cold["hits"] + table.n_columns

    def test_topic_cache_hits_on_repeat_traffic_and_stays_exact(
        self, trained_sato, serving_split
    ):
        _, test = serving_split
        predictor = Predictor(trained_sato, cache_size=1024)
        cold = predictor.predict_tables(test)
        first = predictor.cache_info()
        served = sum(1 for t in test if t.n_columns)
        # One topic lookup per non-empty table; all distinct content is a miss.
        assert first["topic_hits"] + first["topic_misses"] == served
        assert first["topic_misses"] >= 1
        warm = predictor.predict_tables(test)
        second = predictor.cache_info()
        assert second["topic_hits"] == first["topic_hits"] + served
        assert second["topic_misses"] == first["topic_misses"]
        # Cached topic vectors must be bit-identical to recomputation.
        assert warm == cold
        assert warm == [trained_sato.predict_table(t) for t in test]

    def test_huge_numbers_give_finite_probabilities(self, trained_sato):
        spread = Column(values=["1e200", "-1e200", "5"])
        largest = Column(values=["1.7976931348623157e308"] * 2)
        tables = [
            Table(columns=[spread]),
            Table(columns=[largest]),
            Table(columns=[spread, largest]),
        ]
        for table, proba in zip(
            tables, Predictor(trained_sato).predict_proba_tables(tables)
        ):
            assert proba.shape[0] == table.n_columns
            assert np.all(np.isfinite(proba))

    def test_predict_info_tracks_batches_and_columns(self, trained_base, serving_split):
        _, test = serving_split
        predictor = Predictor(trained_base)
        fresh = predictor.predict_info()
        assert fresh["batches"] == 0 and fresh["tables"] == 0
        assert fresh["columns"] == 0 and fresh["predict_seconds"] == 0.0
        assert fresh["swap_count"] == 0
        assert fresh["model_version"] == fresh["model_fingerprint"][:12]
        predictor.predict_tables(test)
        predictor.predict_table(test[0])
        info = predictor.predict_info()
        assert info["batches"] == 2
        assert info["tables"] == len(test) + 1
        assert info["columns"] == sum(t.n_columns for t in test) + test[0].n_columns
        assert info["predict_seconds"] > 0

    def test_cached_results_stay_correct(self, trained_base, serving_split):
        _, test = serving_split
        predictor = Predictor(trained_base, cache_size=1024)
        cold = predictor.predict_tables(test)
        warm = predictor.predict_tables(test)
        assert cold == warm

    def test_unfitted_model_rejected(self):
        with pytest.raises(RuntimeError):
            Predictor(make_tiny_model(use_topic=False, use_struct=False))

    def test_from_bundle(self, trained_base, serving_split, tmp_path):
        _, test = serving_split
        save_model(trained_base, tmp_path / "bundle")
        predictor = Predictor.from_bundle(tmp_path / "bundle")
        assert predictor.predict_tables(test) == [
            trained_base.predict_table(t) for t in test
        ]


def test_serving_a_bundle_never_imports_scipy(trained_sato, serving_split, tmp_path):
    """scipy only serves training; a serving process stays without it."""
    save_model(trained_sato, tmp_path / "bundle")
    _, tables = serving_split
    values = [[list(c.values) for c in t.columns] for t in tables[:4]]
    script = (
        "import json, sys\n"
        "from repro.serving import Predictor\n"
        "from repro.tables import Column, Table\n"
        "predictor = Predictor.from_bundle(sys.argv[1])\n"
        "tables = [Table(columns=[Column(values=v) for v in t])\n"
        "          for t in json.loads(sys.argv[2])]\n"
        "assert len(predictor.predict_tables(tables)) == len(tables)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "bundle"), json.dumps(values)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


class TestColumnFingerprint:
    def test_sensitive_to_values_and_order(self):
        a = Column(values=["x", "y"])
        b = Column(values=["y", "x"])
        assert a.fingerprint != b.fingerprint

    def test_value_boundaries_are_unambiguous(self):
        a = Column(values=["ab", "c"])
        b = Column(values=["a", "bc"])
        assert a.fingerprint != b.fingerprint

    def test_headers_are_ignored(self):
        a = Column(values=["x"], header="foo")
        b = Column(values=["x"], header="bar")
        assert a.fingerprint == b.fingerprint


class TestLRUCache:
    def test_eviction_order(self):
        cache = LRUCache(capacity=2)
        cache.put("a", np.array([1.0]))
        cache.put("b", np.array([2.0]))
        assert cache.get("a") is not None
        cache.put("c", np.array([3.0]))
        assert "b" not in cache
        assert "a" in cache and "c" in cache

    def test_zero_capacity_never_stores(self):
        cache = LRUCache(capacity=0)
        cache.put("a", np.array([1.0]))
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_clear_resets_stats(self):
        cache = LRUCache(capacity=4)
        cache.put("a", np.array([1.0]))
        cache.get("a")
        cache.get("missing")
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0
