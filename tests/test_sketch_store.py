"""Tests for the persistent column-sketch store and its integrations.

The contract under test: a :class:`~repro.features.SketchStore` attached
to any featurization entry point (the streaming annotator, the serving
predictor) changes *cost*, never *bits* — store-on
output is byte-identical to store-off output whether the run is cold
(all misses) or warm (all hits), corruption and configuration drift
degrade to recomputation with a warning (never a crash, never a wrong
hit), and GC keeps the on-disk logs bounded by the LRU capacity.
"""

from __future__ import annotations

import copy
import json
import warnings

import numpy as np
import pytest

from repro.features import sketchstore
from repro.features.sketchstore import SketchStore, SketchStoreWarning, StreamSketcher
from repro.ingest.annotate import StreamingAnnotator
from repro.serving import Predictor, save_model
from repro.tables import (
    Column,
    ColumnFingerprinter,
    combine_fingerprints,
    table_stream,
    values_fingerprint,
)


#: The char and stat accumulator states of the older format-2 column
#: sketch layout, as that layout wrote them for the column ["Oslo", "Rome",
#: "Rome"]: 51 tracked characters, a length histogram keyed by strings and
#: the distinct-value counter.
LEGACY_CHAR_STATE = {
    "n_values": 3,
    "counts": [0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 1, 2, 0, 4, 0, 0, 2, 1] + [0] * 32,
    "presence": [0, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 1, 2, 0, 3, 0, 0, 2, 1] + [0] * 32,
    "n_alpha": 12,
    "n_digit": 0,
    "n_space": 0,
    "n_punct": 0,
    "n_upper": 3,
    "total_chars": 12,
    "lengths": {"4": 3},
}
LEGACY_STAT_STATE = {"n_values": 3, "n_missing": 0, "counter": {"Oslo": 1, "Rome": 2}}


@pytest.fixture()
def store(tmp_path):
    return SketchStore(tmp_path / "store")


def annotate_all(annotator, tables, chunk_rows=None):
    return [
        annotator.annotate_stream(table_stream(table, chunk_rows))
        for table in tables
    ]


# ------------------------------------------------------------- fingerprints


class TestFingerprints:
    def test_incremental_matches_one_shot(self):
        values = ["oslo", "", "rome", "päris", "x" * 100]
        fingerprinter = ColumnFingerprinter()
        for value in values:
            fingerprinter.update([value])
        assert fingerprinter.hexdigest() == values_fingerprint(values)

    def test_value_boundaries_are_unambiguous(self):
        assert values_fingerprint(["ab", "c"]) != values_fingerprint(["a", "bc"])
        assert values_fingerprint(["ab"]) != values_fingerprint(["a", "b"])

    def test_digest_is_pinned_and_lone_surrogates_hash(self):
        # Stored sketches and cache keys depend on this exact digest.
        assert values_fingerprint(["ab", "c"]) == "efe72f542fb49a825544241cc54c1ddc"
        # A lone surrogate is valid JSON; it must hash, not raise.
        assert values_fingerprint(["\ud800"]) != values_fingerprint(["\udfff"])

    def test_order_sensitive_and_header_blind(self):
        assert values_fingerprint(["a", "b"]) != values_fingerprint(["b", "a"])

    def test_combine_is_order_sensitive(self):
        a, b = values_fingerprint(["a"]), values_fingerprint(["b"])
        assert combine_fingerprints([a, b]) != combine_fingerprints([b, a])

    def test_column_fingerprint_is_the_serving_hash(self):
        column = Column(values=["oslo", "", "rome"])
        assert column.fingerprint == values_fingerprint(column.values)

    def test_table_fingerprint_matches_serving_predictor(
        self, trained_sato, multi_column_tables
    ):
        table = multi_column_tables[0]
        fingerprints = [values_fingerprint(column.values) for column in table.columns]
        assert table.fingerprint == combine_fingerprints(fingerprints)
        # The serving caches key on the same fingerprints.
        predictor = Predictor(trained_sato)
        predictor.predict_table(table)
        assert table.fingerprint in predictor.topic_cache
        assert all(fingerprint in predictor.cache for fingerprint in fingerprints)


# -------------------------------------------------------------- store basics


class TestStoreBasics:
    def test_roundtrip_and_reopen(self, tmp_path):
        root = tmp_path / "store"
        config = {"kind": "test", "n": 3}
        with SketchStore(root) as store:
            section = store.section(config)
            assert store.get(section, "fp1") is None
            store.put(section, "fp1", {"row": [1.5, -2.0], "n": 4})
        with SketchStore(root) as reopened:
            section = reopened.section(config)
            assert reopened.get(section, "fp1") == {"row": [1.5, -2.0], "n": 4}

    def test_unknown_section_raises(self, store):
        with pytest.raises(KeyError):
            store.get("0" * 32, "fp")

    def test_config_mismatch_is_a_miss(self, store):
        old = store.section({"kind": "test", "substrate": "aaa"})
        store.put(old, "fp1", {"row": [1.0]})
        new = store.section({"kind": "test", "substrate": "bbb"})
        assert new != old
        assert store.get(new, "fp1") is None
        assert store.get(old, "fp1") == {"row": [1.0]}

    def test_reput_shadows_older_record(self, tmp_path):
        root = tmp_path / "store"
        with SketchStore(root) as store:
            section = store.section({"kind": "test"})
            store.put(section, "fp1", {"row": [1.0]})
            store.put(section, "fp1", {"row": [2.0]})
        with SketchStore(root) as reopened:
            section = reopened.section({"kind": "test"})
            assert reopened.get(section, "fp1") == {"row": [2.0]}

    def test_capacity_bounds_the_index(self, tmp_path):
        store = SketchStore(tmp_path / "store", capacity=2)
        section = store.section({"kind": "test"})
        for index in range(4):
            store.put(section, f"fp{index}", {"row": [float(index)]})
        assert store.get(section, "fp0") is None
        assert store.get(section, "fp1") is None
        assert store.get(section, "fp3") == {"row": [3.0]}

    def test_format_mismatch_treated_as_empty(self, tmp_path):
        root = tmp_path / "store"
        with SketchStore(root) as store:
            section = store.section({"kind": "test"})
            store.put(section, "fp1", {"row": [1.0]})
        (root / "STORE.json").write_text('{"format": 99}\n', encoding="utf-8")
        with pytest.warns(SketchStoreWarning, match="format"):
            stale = SketchStore(root)
        assert stale.get(stale.section({"kind": "test"}), "fp1") is None
        # The meta file is rewritten, so the next open is clean again.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SketchStore(root)

    def test_stats_counters(self, store):
        section = store.section({"kind": "test"})
        store.get(section, "fp1")
        store.put(section, "fp1", {"row": [1.0]})
        store.get(section, "fp1")
        stats = store.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["corrupt_records"] == 0
        assert stats["sections"] == {section: 1}


# --------------------------------------------------------------- corruption


class TestCorruption:
    def write_entries(self, root, count=3):
        with SketchStore(root) as store:
            section = store.section({"kind": "test"})
            for index in range(count):
                store.put(section, f"fp{index}", {"row": [float(index)]})
        return section

    def test_truncated_tail_keeps_readable_prefix(self, tmp_path):
        root = tmp_path / "store"
        section = self.write_entries(root)
        log = root / f"{section}.log"
        log.write_bytes(log.read_bytes()[:-5])
        store = SketchStore(root)
        with pytest.warns(SketchStoreWarning, match="truncated"):
            assert store.section({"kind": "test"}) == section
        assert store.get(section, "fp0") == {"row": [0.0]}
        assert store.get(section, "fp1") == {"row": [1.0]}
        assert store.get(section, "fp2") is None
        assert store.stats()["corrupt_records"] == 1

    def test_flipped_payload_byte_fails_checksum(self, tmp_path):
        root = tmp_path / "store"
        section = self.write_entries(root, count=2)
        log = root / f"{section}.log"
        data = bytearray(log.read_bytes())
        data[-3] ^= 0xFF
        log.write_bytes(bytes(data))
        store = SketchStore(root)
        with pytest.warns(SketchStoreWarning, match="checksum"):
            store.section({"kind": "test"})
        assert store.get(section, "fp0") == {"row": [0.0]}
        assert store.get(section, "fp1") is None

    def test_garbage_log_is_truncated_and_reusable(self, tmp_path):
        root = tmp_path / "store"
        section = self.write_entries(root, count=1)
        log = root / f"{section}.log"
        log.write_bytes(b"not a sketch log")
        store = SketchStore(root)
        with pytest.warns(SketchStoreWarning, match="magic"):
            store.section({"kind": "test"})
        assert log.read_bytes() == b""
        assert store.get(section, "fp0") is None
        store.put(section, "fp0", {"row": [7.0]})
        store.close()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reopened = SketchStore(root)
            assert (
                reopened.get(reopened.section({"kind": "test"}), "fp0")
                == {"row": [7.0]}
            )


# ----------------------------------------------------------------------- gc


class TestGC:
    def test_gc_compacts_shadowed_records(self, tmp_path):
        root = tmp_path / "store"
        store = SketchStore(root)
        section = store.section({"kind": "test"})
        for _ in range(10):
            store.put(section, "fp1", {"row": [1.0] * 50})
        log = root / f"{section}.log"
        before = log.stat().st_size
        summary = store.gc()
        assert summary["live_entries"] == 1
        assert summary["reclaimed_bytes"] > 0
        assert log.stat().st_size < before
        with SketchStore(root) as reopened:
            section = reopened.section({"kind": "test"})
            assert reopened.get(section, "fp1") == {"row": [1.0] * 50}

    def test_gc_respects_the_lru_bound(self, tmp_path):
        root = tmp_path / "store"
        store = SketchStore(root, capacity=2)
        section = store.section({"kind": "test"})
        for index in range(5):
            store.put(section, f"fp{index}", {"row": [float(index)]})
        summary = store.gc()
        assert summary["live_entries"] == 2
        with SketchStore(root, capacity=16) as reopened:
            # Only the 2 most-recent entries survived compaction on disk.
            section = reopened.section({"kind": "test"})
            assert reopened.get(section, "fp2") is None
            assert reopened.get(section, "fp3") == {"row": [3.0]}
            assert reopened.get(section, "fp4") == {"row": [4.0]}

    def test_purge_stale_removes_unopened_sections(self, tmp_path):
        root = tmp_path / "store"
        store = SketchStore(root)
        live = store.section({"kind": "live"})
        store.put(live, "fp1", {"row": [1.0]})
        (root / ("ab" * 16 + ".log")).write_bytes(b"old section data")
        (root / ("ab" * 16 + ".json")).write_text("{}\n", encoding="utf-8")
        summary = store.gc(purge_stale=True)
        assert summary["purged_files"] == 2
        assert not (root / ("ab" * 16 + ".log")).exists()
        assert (root / "STORE.json").exists()
        assert (root / f"{live}.log").exists()
        assert store.get(live, "fp1") == {"row": [1.0]}


# ----------------------------------------------------------- stream sketcher


class TestStreamSketcher:
    def featurize(self, featurizer, sketcher):
        return featurizer.finalize_columns(
            [sketcher.accumulator(index) for index in range(sketcher.n_columns)]
        )

    def eager_oracle(self, featurizer, columns):
        """The bit-level reference: one eager accumulator per column."""
        accumulators = []
        for column in columns:
            accumulator = featurizer.column_accumulator()
            accumulator.partial_fit(column.values)
            accumulators.append(accumulator)
        return featurizer.finalize_columns(accumulators)

    def test_deferred_replay_matches_eager_accumulation(
        self, fitted_featurizer, multi_column_tables
    ):
        table = multi_column_tables[0]
        sketcher = StreamSketcher(fitted_featurizer, table.n_columns)
        for chunk in table_stream(table, 3).chunks:
            sketcher.feed(chunk)
        assert not sketcher.flushed
        expected = self.eager_oracle(fitted_featurizer, table.columns)
        np.testing.assert_array_equal(
            self.featurize(fitted_featurizer, sketcher), expected
        )
        assert sketcher.fingerprints() == [
            values_fingerprint(column.values) for column in table.columns
        ]

    def test_flush_fallback_is_bit_identical(
        self, fitted_featurizer, multi_column_tables
    ):
        table = multi_column_tables[0]
        sketcher = StreamSketcher(fitted_featurizer, table.n_columns, defer_values=1)
        for chunk in table_stream(table, 2).chunks:
            sketcher.feed(chunk)
        assert sketcher.flushed
        expected = self.eager_oracle(fitted_featurizer, table.columns)
        np.testing.assert_array_equal(
            self.featurize(fitted_featurizer, sketcher), expected
        )
        assert sketcher.fingerprints() == [
            values_fingerprint(column.values) for column in table.columns
        ]

    def test_sample_rows_caps_featurized_values_not_fingerprints(
        self, fitted_featurizer, multi_column_tables
    ):
        table = next(t for t in multi_column_tables if t.n_rows >= 6)
        sketcher = StreamSketcher(fitted_featurizer, table.n_columns, sample_rows=2)
        for chunk in table_stream(table, 3).chunks:
            sketcher.feed(chunk)
        # Fingerprints cover the full content...
        assert sketcher.fingerprints() == [
            values_fingerprint(column.values) for column in table.columns
        ]
        # ...while featurization sees only the first 2 values per column.
        sampled = sketchstore.sampled_table(table, 2)
        expected = self.eager_oracle(fitted_featurizer, sampled.columns)
        np.testing.assert_array_equal(
            self.featurize(fitted_featurizer, sketcher), expected
        )


# -------------------------------------------------------- sketch round trips


class TestSketchCoding:
    def test_column_sketch_rebuilds_the_accumulator(
        self, fitted_featurizer, multi_column_tables
    ):
        """A sketch gives back the accumulator's token prefix and raw row."""
        column = multi_column_tables[0].columns[0]
        accumulator = fitted_featurizer.column_accumulator()
        accumulator.partial_fit(column.values)
        row = fitted_featurizer.raw_from_accumulator(accumulator)
        sketch = sketchstore.column_sketch(accumulator.token_list(), row)
        # JSON round trip, exactly as the store would persist it.
        sketch = json.loads(json.dumps(sketch))
        assert sorted(sketch) == ["row", "tokens"]
        assert sketchstore.sketch_tokens(sketch) == accumulator.token_list()
        np.testing.assert_array_equal(
            sketchstore.sketch_vector(sketch, "row", fitted_featurizer.n_features),
            row,
        )

    def test_malformed_sketches_degrade_to_none(self, fitted_featurizer):
        n = fitted_featurizer.n_features
        assert sketchstore.sketch_vector(None, "row", n) is None
        assert sketchstore.sketch_vector({"row": [1.0]}, "row", n) is None
        assert sketchstore.sketch_vector({"row": "zzz"}, "row", n) is None
        assert sketchstore.sketch_tokens({"tokens": [1, 2]}) is None
        assert sketchstore.sketch_vector({"topic": [0.5]}, "topic", 3) is None

    def test_packed_vectors_round_trip_every_bit(self):
        vector = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1 / 3])
        # JSON round trip, exactly as the store would persist it.
        sketch = json.loads(json.dumps({"row": sketchstore.pack_vector(vector)}))
        unpacked = sketchstore.sketch_vector(sketch, "row", vector.size)
        assert unpacked.tobytes() == vector.tobytes()
        assert sketchstore.sketch_vector(sketch, "row", vector.size - 1) is None
        assert sketchstore.sketch_vector({"row": "not base64!"}, "row", 1) is None

    def test_malformed_records_degrade_to_none(self):
        good = sketchstore.record_sketch(["city", "name"], [0.5, 1.0])
        assert sketchstore.sketch_types(good, 2) == (["city", "name"], [0.5, 1.0])
        assert sketchstore.sketch_types(None, 2) is None
        assert sketchstore.sketch_types(good, 3) is None
        assert sketchstore.sketch_types({"types": ["city", "name"]}, 2) is None
        for types in (["city", "no-such-type"], ["city", ["name"]]):
            assert sketchstore.sketch_types({**good, "types": types}, 2) is None
        for confidence in ([0.5, 1], [0.5, "1.0"], [0.5, True]):
            assert (
                sketchstore.sketch_types({**good, "confidence": confidence}, 2)
                is None
            )


# -------------------------------------------------------- annotation parity


class TestAnnotateParity:
    def test_store_on_equals_store_off_cold_and_warm(
        self, fitted_variant, serving_split, tmp_path
    ):
        """The parity contract, across all 4 paper variants.

        One pass with no store (the eager oracle), one cold store-on pass
        (all misses) and one warm pass through a *reopened* store (all
        hits) must produce byte-identical annotation records.
        """
        _, tables = serving_split
        oracle = annotate_all(StreamingAnnotator(fitted_variant), tables, 3)

        root = tmp_path / "store"
        cold_annotator = StreamingAnnotator(fitted_variant, sketch_store=root)
        cold = annotate_all(cold_annotator, tables, 3)
        assert cold_annotator.sketch_store.stats()["misses"] > 0
        cold_annotator.close()

        warm_annotator = StreamingAnnotator(fitted_variant, sketch_store=root)
        warm = annotate_all(warm_annotator, tables, 3)
        warm_stats = warm_annotator.sketch_store.stats()
        assert warm_stats["misses"] == 0
        assert warm_stats["hits"] > 0
        warm_annotator.close()

        assert json.dumps(cold) == json.dumps(oracle)
        assert json.dumps(warm) == json.dumps(oracle)

    def test_unchanged_tables_skip_the_model(
        self, trained_sato, serving_split, tmp_path, monkeypatch
    ):
        """A warm pass over unchanged tables serves every record from the store."""
        _, tables = serving_split
        root = tmp_path / "store"
        cold_annotator = StreamingAnnotator(trained_sato, sketch_store=root)
        cold = annotate_all(cold_annotator, tables, 3)
        cold_annotator.close()

        def no_model(*args, **kwargs):
            raise AssertionError("the model ran on an unchanged table")

        monkeypatch.setattr(
            trained_sato.column_model, "predict_proba_matrix", no_model
        )
        warm_annotator = StreamingAnnotator(trained_sato, sketch_store=root)
        warm = annotate_all(warm_annotator, tables, 3)
        warm_annotator.close()
        assert json.dumps(warm) == json.dumps(cold)

    def test_model_change_misses_records_but_reuses_columns(
        self, trained_sato, serving_split, tmp_path
    ):
        """A record is only served under the model that produced it."""
        _, tables = serving_split
        root = tmp_path / "store"
        annotator = StreamingAnnotator(trained_sato, sketch_store=root)
        before = annotate_all(annotator, tables, 3)
        annotator.close()

        # Same featurizer and LDA, other CRF: column and topic sketches
        # still apply, the stored records do not.
        changed = copy.deepcopy(trained_sato)
        changed.crf.pairwise = changed.crf.pairwise[::-1].copy()
        oracle = annotate_all(StreamingAnnotator(changed), tables, 3)
        assert json.dumps(oracle) != json.dumps(before)
        warm_annotator = StreamingAnnotator(changed, sketch_store=root)
        got = annotate_all(warm_annotator, tables, 3)
        stats = warm_annotator.sketch_store.stats()
        warm_annotator.close()
        assert json.dumps(got) == json.dumps(oracle)
        assert stats["misses"] == sum(1 for table in tables if table.n_columns)
        assert stats["hits"] > 0

    def test_chunk_size_does_not_change_store_keys(
        self, trained_sato, serving_split, tmp_path
    ):
        """Warm hits survive re-chunking: fingerprints span chunk bounds."""
        _, tables = serving_split
        root = tmp_path / "store"
        cold_annotator = StreamingAnnotator(trained_sato, sketch_store=root)
        cold = annotate_all(cold_annotator, tables, 7)
        cold_annotator.close()

        warm_annotator = StreamingAnnotator(trained_sato, sketch_store=root)
        warm = annotate_all(warm_annotator, tables, 2)
        stats = warm_annotator.sketch_store.stats()
        assert stats["misses"] == 0
        warm_annotator.close()
        assert json.dumps(warm) == json.dumps(cold)

    def test_column_sketches_with_accumulator_states_still_hit(
        self, trained_sato, serving_split, tmp_path
    ):
        """Column sketches in the older format-2 layout keep hitting.

        That layout also stored the table's row count (``n``) and each
        column's char and stat accumulator states next to the token prefix
        and the raw row.  Readers use only the latter two, so such a store
        serves every column, and its records equal a store-off run's.
        """
        _, tables = serving_split
        oracle = annotate_all(StreamingAnnotator(trained_sato), tables, 3)

        root = tmp_path / "store"
        writer = StreamingAnnotator(trained_sato, sketch_store=root)
        _, column_section, _ = writer._sections()
        n_columns = 0
        for table in tables:
            for column in table.columns:
                accumulator = writer.featurizer.column_accumulator(writer._token_cap)
                accumulator.partial_fit(column.values)
                row = writer.featurizer.raw_from_accumulator(accumulator)
                sketch = {
                    "n": table.n_rows,
                    "tokens": accumulator.token_list(),
                    "char": LEGACY_CHAR_STATE,
                    "stat": LEGACY_STAT_STATE,
                    "row": sketchstore.pack_vector(row),
                }
                writer.sketch_store.put(column_section, column.fingerprint, sketch)
                n_columns += 1
        writer.close()

        reader = StreamingAnnotator(trained_sato, sketch_store=root)
        got = annotate_all(reader, tables, 3)
        stats = reader.sketch_store.stats()
        reader.close()
        # Every column hits; only records and topic vectors miss.
        assert n_columns > 0
        assert stats["hits"] == n_columns
        assert json.dumps(got) == json.dumps(oracle)

    def test_corrupt_store_recomputes_with_warning(
        self, trained_sato, serving_split, tmp_path
    ):
        _, tables = serving_split
        root = tmp_path / "store"
        annotator = StreamingAnnotator(trained_sato, sketch_store=root)
        oracle = annotate_all(annotator, tables, 3)
        annotator.close()

        for log in root.glob("*.log"):
            log.write_bytes(log.read_bytes()[: log.stat().st_size // 2])
        with pytest.warns(SketchStoreWarning):
            recovered_annotator = StreamingAnnotator(trained_sato, sketch_store=root)
            recovered = annotate_all(recovered_annotator, tables, 3)
            recovered_annotator.close()
        assert json.dumps(recovered) == json.dumps(oracle)

    def test_substrate_change_misses_instead_of_wrong_hit(
        self, serving_split, tmp_path
    ):
        """Two differently-fitted models never share column sections."""
        from helpers import make_tiny_model

        train, tables = serving_split
        root = tmp_path / "store"
        model_a = make_tiny_model(use_topic=False, use_struct=False)
        model_a.fit(train[:10])
        annotator_a = StreamingAnnotator(model_a, sketch_store=root)
        annotate_all(annotator_a, tables, 3)
        annotator_a.close()

        model_b = make_tiny_model(use_topic=False, use_struct=False)
        model_b.fit(train[10:20])
        # Different fitted substrates hash to different store sections.
        assert sketchstore.substrate_hash(
            model_a.column_model.featurizer
        ) != sketchstore.substrate_hash(model_b.column_model.featurizer)
        oracle = annotate_all(StreamingAnnotator(model_b), tables, 3)
        annotator_b = StreamingAnnotator(model_b, sketch_store=root)
        got = annotate_all(annotator_b, tables, 3)
        annotator_b.close()
        assert json.dumps(got) == json.dumps(oracle)

    def test_sample_rows_annotates_all_tables(
        self, trained_sato, serving_split, tmp_path
    ):
        _, tables = serving_split
        annotator = StreamingAnnotator(
            trained_sato, sketch_store=tmp_path / "store", sample_rows=3
        )
        records = annotate_all(annotator, tables, 2)
        annotator.close()
        assert len(records) == len(tables)
        for record, table in zip(records, tables):
            assert record["n_rows"] == table.n_rows  # full row count reported
            assert len(record["columns"]) == table.n_columns

    def test_sampled_and_unsampled_sections_never_mix(self, trained_sato, tmp_path):
        featurizer = trained_sato.column_model.featurizer
        full = sketchstore.column_section_config(featurizer, "accumulator")
        sampled = sketchstore.column_section_config(
            featurizer, "accumulator", sample_rows=2
        )
        assert full != sampled
        store = SketchStore(tmp_path / "store")
        assert store.section(full) != store.section(sampled)
        store.close()

    def test_bad_sample_rows_rejected(self, trained_sato):
        with pytest.raises(ValueError, match="sample_rows"):
            StreamingAnnotator(trained_sato, sample_rows=0)
        with pytest.raises(ValueError, match="sample_rows"):
            Predictor(trained_sato, sketch_sample_rows=0)


# ---------------------------------------------------------- predictor parity


class TestPredictorParity:
    def test_store_on_equals_store_off_cold_and_warm(
        self, fitted_variant, serving_split, tmp_path
    ):
        """Serving parity: full-miss cold run, then full-hit warm run.

        The warm predictor is a fresh instance (empty in-memory L1
        cache), so every column is served from the persistent store.
        """
        _, tables = serving_split
        oracle = Predictor(fitted_variant)
        expected = oracle.predict_tables(tables)

        root = tmp_path / "store"
        cold = Predictor(fitted_variant, sketch_store=root)
        assert cold.predict_tables(tables) == expected
        cold.close()

        warm = Predictor(fitted_variant, sketch_store=root)
        assert warm.predict_tables(tables) == expected
        stats = warm.cache_info()["sketch_store"]
        assert stats["hits"] > 0
        assert stats["misses"] == 0
        warm.close()

    def test_swap_model_moves_to_new_sections(self, serving_split, tmp_path):
        from helpers import make_tiny_model

        train, tables = serving_split
        model_a = make_tiny_model(use_topic=True, use_struct=False)
        model_a.fit(train[:10])
        model_b = make_tiny_model(use_topic=True, use_struct=False)
        model_b.fit(train[10:20])

        root = tmp_path / "store"
        predictor = Predictor(model_a, sketch_store=root)
        predictor.predict_tables(tables)
        predictor.swap_model(model_b)
        expected = Predictor(model_b).predict_tables(tables)
        assert predictor.predict_tables(tables) == expected
        predictor.close()

    def test_annotate_and_predict_share_topic_sections(
        self, trained_sato, serving_split, tmp_path
    ):
        """Table-topic vectors cached by annotate are hits for predict."""
        _, tables = serving_split
        root = tmp_path / "store"
        annotator = StreamingAnnotator(trained_sato, sketch_store=root)
        annotate_all(annotator, tables)
        annotator.close()

        expected = Predictor(trained_sato).predict_tables(tables)
        predictor = Predictor(trained_sato, sketch_store=root)
        assert predictor.predict_tables(tables) == expected
        assert predictor.cache_info()["sketch_store"]["hits"] > 0
        predictor.close()

    def test_inference_settings_change_misses_instead_of_wrong_hit(
        self, trained_sato, serving_split, tmp_path
    ):
        """Topic vectors inferred under other settings are never read back.

        The LDA state is the same on both sides; only ``infer_iterations``
        differs, as when a caller sets it after construction.
        """
        _, tables = serving_split
        root = tmp_path / "store"
        filled = Predictor(trained_sato, sketch_store=root)
        stored = filled._batch_topics(tables)
        filled.close()

        model = Predictor.from_bundle(save_model(trained_sato, tmp_path / "b")).model
        model.column_model.intent_estimator.lda.infer_iterations = 2
        expected = Predictor(model)._batch_topics(tables)
        assert not np.array_equal(expected, stored)
        predictor = Predictor(model, sketch_store=root)
        assert np.array_equal(predictor._batch_topics(tables), expected)
        assert predictor.cache_info()["sketch_store"]["hits"] == 0
        predictor.close()

    def test_uncached_predictor_serves_the_model_and_the_store(
        self, trained_sato, serving_split, tmp_path
    ):
        """``cache_size=0``: no memory tier, same labels, store still fed."""
        _, tables = serving_split
        expected = [trained_sato.predict_table(table) for table in tables]
        uncached = Predictor(trained_sato, cache_size=0)
        assert uncached.predict_tables(tables) == expected
        assert len(uncached.cache) == 0 and len(uncached.topic_cache) == 0

        root = tmp_path / "store"
        cold = Predictor(trained_sato, cache_size=0, sketch_store=root)
        assert cold.predict_tables(tables) == expected
        cold.close()
        warm = Predictor(trained_sato, cache_size=0, sketch_store=root)
        assert warm.predict_tables(tables) == expected
        assert warm.cache_info()["sketch_store"]["misses"] == 0
        warm.close()


# ------------------------------------------------------------------ the CLI


class TestCLI:
    @pytest.fixture(scope="class")
    def sato_bundle(self, trained_sato, tmp_path_factory):
        bundle = tmp_path_factory.mktemp("sketch") / "bundle"
        save_model(trained_sato, bundle)
        return bundle

    @pytest.fixture(scope="class")
    def source_csv(self, multi_column_tables, tmp_path_factory):
        from repro.ingest import registered_adapters

        path = tmp_path_factory.mktemp("sketch") / "a.csv"
        registered_adapters()["csv"].write_fixture(multi_column_tables[0], path)
        return path

    def run_cli(self, argv, capsys):
        from repro.cli import main

        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_parser_accepts_sketch_flags(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            [
                "annotate", "data/", "--model", "b/",
                "--sketch-store", "sketches/",
                "--sketch-sample-rows", "64", "--sketch-gc",
            ]
        )
        assert args.sketch_store == "sketches/"
        assert args.sketch_sample_rows == 64
        assert args.sketch_gc is True

    def test_bad_sample_rows_exits_2(self, sato_bundle, source_csv, capsys):
        code, _, err = self.run_cli(
            ["annotate", str(source_csv), "--model", str(sato_bundle),
             "--sketch-sample-rows", "0"],
            capsys,
        )
        assert code == 2
        assert "--sketch-sample-rows" in err

    def test_sketch_gc_requires_store_flag(self, sato_bundle, source_csv, capsys):
        code, _, err = self.run_cli(
            ["annotate", str(source_csv), "--model", str(sato_bundle), "--sketch-gc"],
            capsys,
        )
        assert code == 2
        assert "--sketch-gc requires --sketch-store" in err

    def test_warm_annotate_is_byte_identical_and_reports_hits(
        self, sato_bundle, source_csv, tmp_path, capsys
    ):
        store = tmp_path / "sketches"
        argv = ["annotate", str(source_csv), "--model", str(sato_bundle),
                "--sketch-store", str(store)]
        code, cold_out, cold_err = self.run_cli(argv, capsys)
        assert code == 0
        assert "sketch-store:" in cold_err
        code, warm_out, warm_err = self.run_cli(argv, capsys)
        assert code == 0
        assert warm_out == cold_out
        assert "0 miss(es)" in warm_err

    def test_sketch_gc_prints_a_summary(
        self, sato_bundle, source_csv, tmp_path, capsys
    ):
        store = tmp_path / "sketches"
        code, _, err = self.run_cli(
            ["annotate", str(source_csv), "--model", str(sato_bundle),
             "--sketch-store", str(store), "--sketch-gc"],
            capsys,
        )
        assert code == 0
        assert "sketch-gc: kept" in err

    def test_predict_with_sketch_store_is_deterministic(
        self, sato_bundle, source_csv, tmp_path, capsys
    ):
        store = tmp_path / "sketches"
        plain = ["predict", "--model", str(sato_bundle), "--csv", str(source_csv)]
        code, expected, _ = self.run_cli(plain, capsys)
        assert code == 0
        argv = plain + ["--sketch-store", str(store)]
        code, cold_out, _ = self.run_cli(argv, capsys)
        assert code == 0
        code, warm_out, _ = self.run_cli(argv, capsys)
        assert code == 0
        assert cold_out == expected
        assert warm_out == expected

    def test_serve_fleet_mode_rejects_sketch_store(self, tmp_path, capsys):
        code, _, err = self.run_cli(
            ["serve", "--model", str(tmp_path / "bundle"),
             "--fleet-workers", "2", "--sketch-store", str(tmp_path / "s")],
            capsys,
        )
        assert code == 2
        assert "single-process" in err
