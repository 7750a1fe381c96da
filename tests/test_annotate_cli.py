"""End-to-end tests for ``repro-sato annotate``.

The CLI is exercised in-process through :func:`repro.cli.main` over a
fixture directory of mixed-format sources.  The output contract under
test: deterministic JSONL (byte-identical across runs and chunk sizes),
predictions bit-identical to the in-memory loop-backend oracle, partial
output plus a non-zero exit when one source is corrupt, and usage errors
exiting 2 before any work happens.
"""

from __future__ import annotations

import json
import sqlite3

import pytest

from repro.cli import build_parser, main
from repro.ingest import open_source, registered_adapters
from repro.registry import ModelRegistry
from repro.serving import save_model
from repro.types import TYPE_TO_INDEX


@pytest.fixture(scope="module")
def sato_bundle(trained_sato, tmp_path_factory):
    bundle = tmp_path_factory.mktemp("annotate") / "bundle"
    save_model(trained_sato, bundle)
    return bundle


@pytest.fixture(scope="module")
def fixture_dir(multi_column_tables, tmp_path_factory):
    """A directory with one source per adapter, built from corpus tables."""
    directory = tmp_path_factory.mktemp("annotate") / "sources"
    directory.mkdir()
    adapters = registered_adapters()
    adapters["csv"].write_fixture(multi_column_tables[0], directory / "a.csv")
    adapters["ndjson"].write_fixture(multi_column_tables[1], directory / "b.ndjson")
    adapters["sqlite"].write_fixture(multi_column_tables[2], directory / "c.sqlite")
    adapters["tables-jsonl"].write_fixture(
        multi_column_tables[3], directory / "d.jsonl"
    )
    return directory


def run_annotate(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserArgs:
    def test_annotate_args(self):
        args = build_parser().parse_args(
            ["annotate", "data/", "--model", "bundle/", "--chunk-rows", "64"]
        )
        assert args.command == "annotate"
        assert args.sources == ["data/"]
        assert args.chunk_rows == 64
        assert args.out == "-"
        assert args.format is None

    def test_model_and_registry_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["annotate", "x.csv", "--model", "b/", "--registry", "r/"]
            )

    def test_one_of_model_or_registry_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["annotate", "x.csv"])


class TestBundleMode:
    def test_directory_to_jsonl(self, fixture_dir, sato_bundle, tmp_path, capsys):
        out = tmp_path / "schemas.jsonl"
        code, _, err = run_annotate(
            ["annotate", str(fixture_dir), "--model", str(sato_bundle),
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert "annotated 4 table(s) from 4 source file(s)" in err
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(records) == 4
        # Deterministic ordering: sorted by file name within the directory.
        assert [r["source"].rsplit("/", 1)[-1] for r in records] == [
            "a.csv", "b.ndjson", "c.sqlite", "d.jsonl",
        ]
        for record in records:
            assert record["n_columns"] == len(record["columns"])
            assert record["n_rows"] > 0
            for column in record["columns"]:
                assert column["predicted_type"] in TYPE_TO_INDEX
                assert 0.0 <= column["confidence"] <= 1.0

    def test_output_is_deterministic_across_runs_and_chunk_sizes(
        self, fixture_dir, sato_bundle, tmp_path, capsys
    ):
        outputs = []
        for name, extra in [
            ("r1.jsonl", []),
            ("r2.jsonl", []),
            ("r3.jsonl", ["--chunk-rows", "1"]),
            ("r4.jsonl", ["--chunk-rows", "3"]),
        ]:
            out = tmp_path / name
            code, _, _ = run_annotate(
                ["annotate", str(fixture_dir), "--model", str(sato_bundle),
                 "--out", str(out), *extra],
                capsys,
            )
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2] == outputs[3]

    def test_bit_identical_to_in_memory_loop_oracle(
        self, fixture_dir, sato_bundle, trained_sato, tmp_path, capsys
    ):
        """CLI output == predicting each materialized table in memory."""
        out = tmp_path / "schemas.jsonl"
        code, _, _ = run_annotate(
            ["annotate", str(fixture_dir), "--model", str(sato_bundle),
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        tables = [
            stream.materialize() for stream in open_source(fixture_dir, 4096)
        ]
        column_model = trained_sato.column_model
        for record, table in zip(records, tables, strict=True):
            proba = column_model.predict_proba_matrix(
                column_model.featurizer.reference_transform_columns(table.columns),
                column_model._batch_topic_rows([table]),
            )
            labels = trained_sato.labels_from_proba(proba)
            marginals = trained_sato.marginals_from_proba(proba)
            assert [c["predicted_type"] for c in record["columns"]] == labels
            for column, label in zip(record["columns"], labels):
                expected = float(marginals[column["index"], TYPE_TO_INDEX[label]])
                assert column["confidence"] == round(expected, 6)

    def test_stdout_output(self, fixture_dir, sato_bundle, capsys):
        code, out, _ = run_annotate(
            ["annotate", str(fixture_dir / "a.csv"), "--model", str(sato_bundle)],
            capsys,
        )
        assert code == 0
        (record,) = [json.loads(line) for line in out.splitlines()]
        assert record["table_id"] == "a"

    def test_unreadable_bundle_exits_2(self, fixture_dir, tmp_path, capsys):
        code, out, err = run_annotate(
            ["annotate", str(fixture_dir), "--model", str(tmp_path / "nope")],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "cannot load model bundle" in err


class TestRegistryMode:
    @pytest.fixture(scope="class")
    def registry_root(self, sato_bundle, tmp_path_factory):
        root = tmp_path_factory.mktemp("annotate") / "registry"
        registry = ModelRegistry(root)
        info = registry.publish(sato_bundle, "sato")
        registry.promote("sato", info.version)
        return root

    def test_promoted_version_annotates(self, fixture_dir, registry_root, capsys):
        code, out, _ = run_annotate(
            ["annotate", str(fixture_dir / "a.csv"),
             "--registry", str(registry_root), "--model-name", "sato"],
            capsys,
        )
        assert code == 0
        assert json.loads(out.splitlines()[0])["table_id"] == "a"

    def test_matches_bundle_mode_output(
        self, fixture_dir, registry_root, sato_bundle, capsys
    ):
        source = str(fixture_dir / "b.ndjson")
        code_a, out_a, _ = run_annotate(
            ["annotate", source, "--model", str(sato_bundle)], capsys
        )
        code_b, out_b, _ = run_annotate(
            ["annotate", source, "--registry", str(registry_root),
             "--model-name", "sato"],
            capsys,
        )
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_registry_without_model_name_exits_2(
        self, fixture_dir, registry_root, capsys
    ):
        code, _, err = run_annotate(
            ["annotate", str(fixture_dir), "--registry", str(registry_root)],
            capsys,
        )
        assert code == 2
        assert "--model-name" in err

    def test_model_name_without_registry_exits_2(
        self, fixture_dir, sato_bundle, capsys
    ):
        code, _, err = run_annotate(
            ["annotate", str(fixture_dir), "--model", str(sato_bundle),
             "--model-name", "sato"],
            capsys,
        )
        assert code == 2
        assert "--registry" in err

    def test_unknown_model_name_exits_2(self, fixture_dir, registry_root, capsys):
        code, _, err = run_annotate(
            ["annotate", str(fixture_dir), "--registry", str(registry_root),
             "--model-name", "nope"],
            capsys,
        )
        assert code == 2
        assert "cannot load from registry" in err


def _refuse_constant(name):
    raise ValueError(f"{name} is not valid JSON")


class TestFailureModes:
    def test_huge_numbers_annotate_to_strict_json(self, sato_bundle, tmp_path, capsys):
        """Finite numbers too big for the statistics are read as text."""
        directory = tmp_path / "huge"
        directory.mkdir()
        (directory / "spread.csv").write_text("a\n1e200\n-1e200\n5\n")
        (directory / "max.csv").write_text(
            "a\n1.7976931348623157e308\n1.7976931348623157e308\n"
        )
        out = tmp_path / "schemas.jsonl"
        code, _, _ = run_annotate(
            ["annotate", str(directory), "--model", str(sato_bundle),
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            json.loads(line, parse_constant=_refuse_constant)

    def test_corrupt_source_gives_partial_output_and_exit_1(
        self, multi_column_tables, sato_bundle, tmp_path, capsys
    ):
        directory = tmp_path / "mixed"
        directory.mkdir()
        registered_adapters()["csv"].write_fixture(
            multi_column_tables[0], directory / "good.csv"
        )
        (directory / "bad.sqlite").write_bytes(b"not a database")
        out = tmp_path / "schemas.jsonl"
        code, _, err = run_annotate(
            ["annotate", str(directory), "--model", str(sato_bundle),
             "--out", str(out)],
            capsys,
        )
        assert code == 1
        assert "bad.sqlite" in err
        assert "annotated 1 table(s) from 2 source file(s), 1 failed" in err
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["table_id"] for r in records] == ["good"]

    def test_missing_source_exits_1(self, sato_bundle, tmp_path, capsys):
        code, out, err = run_annotate(
            ["annotate", str(tmp_path / "nope.csv"), "--model", str(sato_bundle)],
            capsys,
        )
        assert code == 1
        assert out == ""
        assert "does not exist" in err

    def test_bad_chunk_rows_exits_2(self, fixture_dir, sato_bundle, capsys):
        code, _, err = run_annotate(
            ["annotate", str(fixture_dir), "--model", str(sato_bundle),
             "--chunk-rows", "0"],
            capsys,
        )
        assert code == 2
        assert "--chunk-rows" in err

    def test_sqlite_multi_table_db_yields_one_record_per_table(
        self, multi_column_tables, sato_bundle, tmp_path, capsys
    ):
        path = tmp_path / "multi.sqlite"
        registered_adapters()["sqlite"].write_fixture(multi_column_tables[0], path)
        with sqlite3.connect(path) as connection:
            connection.execute("CREATE TABLE zz_view_target (v TEXT)")
            connection.execute("INSERT INTO zz_view_target VALUES ('x')")
        out = tmp_path / "schemas.jsonl"
        code, _, _ = run_annotate(
            ["annotate", str(path), "--model", str(sato_bundle),
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [r["table_id"] for r in records] == [
            "multi.data", "multi.zz_view_target",
        ]
