"""Tests for the command line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.serving import Predictor
from repro.tables import Column, Table, table_to_csv, tables_from_jsonl


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_generate_args(self):
        args = build_parser().parse_args(["generate", "--out", "x.jsonl", "--n-tables", "7"])
        assert args.command == "generate"
        assert args.n_tables == 7

    def test_evaluate_variant_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["evaluate", "--corpus", "c.jsonl", "--variant", "Nope"])

    def test_serve_args_and_defaults(self):
        args = build_parser().parse_args(
            ["serve", "--model", "bundle/", "--port", "9000",
             "--max-batch-size", "16", "--max-wait-ms", "5"]
        )
        assert args.command == "serve"
        assert args.model == "bundle/"
        assert args.port == 9000
        assert args.max_batch_size == 16
        assert args.max_wait_ms == 5.0
        assert args.max_queue == 256
        assert args.cache_size == 4096
        assert args.log_format == "text"

    def test_serve_log_format_choices(self):
        args = build_parser().parse_args(
            ["serve", "--model", "bundle/", "--log-format", "json"]
        )
        assert args.log_format == "json"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--model", "bundle/", "--log-format", "xml"]
            )

    def test_profile_args_and_defaults(self):
        args = build_parser().parse_args(["profile", "--model", "bundle/"])
        assert args.command == "profile"
        assert args.suite == "clean_baseline"
        assert args.suite_preset == "tiny"
        assert args.batch_size == 8
        assert args.json_out is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["profile"])  # --model is required

    @pytest.mark.parametrize(
        "flag,value",
        [("--feature-backend", "loop"), ("--model-backend", "loop")],
    )
    def test_retired_backend_flags_are_refused(self, flag, value):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["predict", "--model", "bundle/", "--csv", "t.csv", flag, value]
            )

    def test_serve_requires_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    def test_serve_model_and_registry_are_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--model", "bundle/", "--registry", "reg/"]
            )

    def test_serve_registry_mode_args(self):
        args = build_parser().parse_args(
            ["serve", "--registry", "reg/", "--model-name", "sato",
             "--watch-interval", "0.5", "--shadow-version", "v0002",
             "--shadow-fraction", "0.25"]
        )
        assert args.registry == "reg/" and args.model is None
        assert args.model_name == "sato"
        assert args.watch_interval == 0.5
        assert args.shadow_version == "v0002"
        assert args.shadow_fraction == 0.25

    def test_registry_subcommands_parse(self):
        publish = build_parser().parse_args(
            ["registry", "publish", "--registry", "reg/", "--name", "sato",
             "--model", "bundle/", "--metric", "macro_f1=0.9"]
        )
        assert publish.registry_command == "publish"
        assert publish.metric == ["macro_f1=0.9"]
        promote = build_parser().parse_args(
            ["registry", "promote", "--registry", "reg/", "--name", "sato",
             "--version", "v0002", "--gate", "--eval-set", "eval.jsonl"]
        )
        assert promote.gate and promote.eval_set == "eval.jsonl"
        assert promote.min_f1 > 0 and promote.min_agreement > 0
        for command in (["rollback"], ["list"], ["gc", "--keep", "3"]):
            args = build_parser().parse_args(
                ["registry", command[0], "--registry", "reg/",
                 *([] if command[0] == "list" else ["--name", "sato"]),
                 *command[1:]]
            )
            assert args.registry_command == command[0]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["registry"])

    def test_evaluate_accepts_model_bundle(self):
        args = build_parser().parse_args(
            ["evaluate", "--model", "bundle/", "--corpus", "eval.jsonl"]
        )
        assert args.model == "bundle/" and args.corpus == "eval.jsonl"

    def test_generate_spec_args(self):
        args = build_parser().parse_args(
            ["generate", "--spec", "specs/unicode_heavy.json",
             "--out", "x.jsonl", "--split-out", "x.split.json"]
        )
        assert args.spec == "specs/unicode_heavy.json"
        assert args.split_out == "x.split.json"

    def test_evaluate_suite_args(self):
        args = build_parser().parse_args(
            ["evaluate", "--model", "bundle/", "--suite", "all",
             "--suite-preset", "full", "--json", "out.json"]
        )
        assert args.suite == "all" and args.suite_preset == "full"
        assert args.json_out == "out.json"
        assert args.corpus is None  # --corpus is optional in suite mode
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["evaluate", "--model", "b/", "--suite", "all",
                 "--suite-preset", "huge"]
            )

    def test_suites_args(self):
        args = build_parser().parse_args(["suites", "--json"])
        assert args.command == "suites" and args.json_out
        assert not build_parser().parse_args(["suites"]).json_out

    def test_promote_suite_gate_args(self):
        args = build_parser().parse_args(
            ["registry", "promote", "--registry", "reg/", "--name", "sato",
             "--version", "v0002", "--gate", "--eval-set", "eval.jsonl",
             "--suite", "unicode_heavy", "--suite", "dirty_columns:0.1",
             "--suite-preset", "tiny", "--suite-tolerance", "0.02"]
        )
        assert args.suite == ["unicode_heavy", "dirty_columns:0.1"]
        assert args.suite_preset == "tiny"
        assert args.suite_tolerance == 0.02
        # Default: no suite gates configured.
        bare = build_parser().parse_args(
            ["registry", "promote", "--registry", "reg/", "--name", "sato",
             "--version", "v0002"]
        )
        assert bare.suite == []


class TestCommands:
    def test_generate_writes_corpus(self, tmp_path, capsys):
        out = tmp_path / "corpus.jsonl"
        exit_code = main(["generate", "--n-tables", "12", "--out", str(out)])
        assert exit_code == 0
        assert len(tables_from_jsonl(out)) == 12
        assert "wrote 12 tables" in capsys.readouterr().out

    def test_evaluate_small_corpus(self, tmp_path, capsys):
        out = tmp_path / "corpus.jsonl"
        main(["generate", "--n-tables", "40", "--seed", "3", "--singleton-rate", "0.1", "--out", str(out)])
        exit_code = main(
            [
                "evaluate",
                "--corpus",
                str(out),
                "--variant",
                "Base",
                "--k",
                "2",
                "--epochs",
                "3",
                "--multi-column-only",
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "macro F1" in output

    def test_evaluate_model_bundle_without_retraining(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        main(["generate", "--n-tables", "40", "--seed", "6", "--out", str(corpus)])
        bundle = tmp_path / "bundle"
        main(["train", "--corpus", str(corpus), "--out", str(bundle),
              "--variant", "Base", "--epochs", "2"])
        capsys.readouterr()
        exit_code = main(["evaluate", "--model", str(bundle), "--corpus", str(corpus)])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "macro F1" in output and "held-out" in output

    def test_profile_replays_suite_and_writes_report(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        main(["generate", "--n-tables", "40", "--seed", "6", "--out", str(corpus)])
        bundle = tmp_path / "bundle"
        main(["train", "--corpus", str(corpus), "--out", str(bundle),
              "--variant", "Base", "--epochs", "2"])
        capsys.readouterr()
        report_path = tmp_path / "profile_report.json"
        exit_code = main(["profile", "--model", str(bundle),
                          "--suite", "clean_baseline", "--suite-preset", "tiny",
                          "--json", str(report_path)])
        assert exit_code == 0
        output = capsys.readouterr().out
        assert output.startswith("stage")
        assert "featurize" in output and "coverage:" in output
        report = json.loads(report_path.read_text())
        assert report["suite"] == "clean_baseline"
        assert report["n_tables"] > 0
        assert 0.0 < report["coverage"] <= 1.0
        assert set(report["stage_shares"]) >= {"featurize", "forward", "decode"}

    def test_profile_hashes_the_model_before_the_replay(
        self, tmp_path, monkeypatch, capsys
    ):
        import repro.obs
        import repro.serving.predictor as predictor_module

        corpus = tmp_path / "corpus.jsonl"
        main(["generate", "--n-tables", "40", "--seed", "6", "--out", str(corpus)])
        bundle = tmp_path / "bundle"
        main(["train", "--corpus", str(corpus), "--out", str(bundle),
              "--variant", "Base", "--epochs", "2"])
        replaying, hashed = [], []
        fingerprint = predictor_module.model_fingerprint
        monkeypatch.setattr(
            predictor_module, "model_fingerprint",
            lambda model: hashed.append(bool(replaying)) or fingerprint(model),
        )
        replay = repro.obs.profile_predictor
        monkeypatch.setattr(
            repro.obs, "profile_predictor",
            lambda *args, **kwargs: replaying.append(True) or replay(*args, **kwargs),
        )
        assert main(["profile", "--model", str(bundle),
                     "--suite", "clean_baseline", "--suite-preset", "tiny"]) == 0
        assert replaying and hashed == [False]

    def test_profile_rejects_bad_usage(self, tmp_path, capsys):
        assert main(["profile", "--model", str(tmp_path / "nope"),
                     "--suite", "not_a_suite"]) == 2
        assert "cannot build suite" in capsys.readouterr().err
        assert main(["profile", "--model", str(tmp_path / "nope"),
                     "--batch-size", "0"]) == 2
        assert main(["profile", "--model", str(tmp_path / "nope")]) == 2
        assert "cannot load model bundle" in capsys.readouterr().err

    def test_registry_lifecycle_commands(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        main(["generate", "--n-tables", "40", "--seed", "6", "--out", str(corpus)])
        bundle = tmp_path / "bundle"
        main(["train", "--corpus", str(corpus), "--out", str(bundle),
              "--variant", "Base", "--epochs", "2"])
        registry = str(tmp_path / "registry")
        base = ["registry", "publish", "--registry", registry, "--name", "sato",
                "--model", str(bundle)]
        assert main(base + ["--metric", "macro_f1=0.4"]) == 0
        capsys.readouterr()

        # Ungated promote, then a gate that must refuse (impossible F1).
        assert main(["registry", "promote", "--registry", registry,
                     "--name", "sato", "--version", "v0001"]) == 0
        assert main(base) == 0  # published after the promote: parent=v0001
        refused = main(["registry", "promote", "--registry", registry,
                        "--name", "sato", "--version", "v0002",
                        "--gate", "--eval-set", str(corpus),
                        "--min-f1", "1.01"])
        assert refused == 1
        # A passable gate: thresholds at zero always clear.
        assert main(["registry", "promote", "--registry", registry,
                     "--name", "sato", "--version", "v0002",
                     "--gate", "--eval-set", str(corpus),
                     "--min-f1", "0", "--min-agreement", "0"]) == 0
        capsys.readouterr()

        assert main(["registry", "list", "--registry", registry]) == 0
        listing = capsys.readouterr().out
        assert "* v0002" in listing and "parent=v0001" in listing

        assert main(["registry", "rollback", "--registry", registry,
                     "--name", "sato"]) == 0
        assert main(["registry", "gc", "--registry", registry,
                     "--name", "sato", "--keep", "0"]) == 0
        capsys.readouterr()
        assert main(["registry", "list", "--registry", registry]) == 0
        listing = capsys.readouterr().out
        assert "* v0001" in listing and "v0002" not in listing

    def test_generate_from_spec_is_deterministic(self, tmp_path, capsys):
        first = tmp_path / "first.jsonl"
        second = tmp_path / "second.jsonl"
        split_path = tmp_path / "split.json"
        assert main(["generate", "--spec", "specs/clean_baseline.json",
                     "--out", str(first), "--split-out", str(split_path)]) == 0
        assert main(["generate", "--spec", "specs/clean_baseline.json",
                     "--out", str(second)]) == 0
        assert first.read_text() == second.read_text()
        assert "spec clean_baseline" in capsys.readouterr().out
        split = json.loads(split_path.read_text())
        tables = tables_from_jsonl(first)
        assert sorted(split) == sorted(t.table_id for t in tables)
        assert set(split.values()) <= {"train", "test"}

    def test_generate_rejects_bad_spec_usage(self, tmp_path, capsys):
        assert main(["generate", "--out", str(tmp_path / "x.jsonl"),
                     "--split-out", str(tmp_path / "s.json")]) == 2
        assert "--split-out requires --spec" in capsys.readouterr().err
        assert main(["generate", "--spec", str(tmp_path / "missing.json"),
                     "--out", str(tmp_path / "x.jsonl")]) == 2
        assert "cannot load spec" in capsys.readouterr().err

    def test_suites_command_lists_manifests(self, capsys):
        assert main(["suites"]) == 0
        listing = capsys.readouterr().out
        assert "unicode_heavy" in listing and "axes:" in listing
        assert main(["suites", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) >= 6
        assert payload["dirty_columns"]["difficulty"]["expected"]

    @pytest.fixture(scope="class")
    def trained_bundle(self, tmp_path_factory):
        """One tiny trained bundle + its corpus, shared by the suite tests."""
        root = tmp_path_factory.mktemp("suite-cli")
        corpus = root / "corpus.jsonl"
        main(["generate", "--n-tables", "40", "--seed", "6", "--out", str(corpus)])
        bundle = root / "bundle"
        main(["train", "--corpus", str(corpus), "--out", str(bundle),
              "--variant", "Base", "--epochs", "2"])
        return bundle, corpus

    def test_evaluate_suite_reports_per_suite_f1(
        self, trained_bundle, tmp_path, capsys
    ):
        bundle, _ = trained_bundle
        json_out = tmp_path / "suites.json"
        capsys.readouterr()
        assert main(["evaluate", "--model", str(bundle), "--suite", "all",
                     "--suite-preset", "tiny", "--json", str(json_out)]) == 0
        output = capsys.readouterr().out
        assert output.count("macro F1=") >= 6
        payload = json.loads(json_out.read_text())
        for report in payload.values():
            assert 0.0 <= report["macro_f1"] <= 1.0
            assert report["preset"] == "tiny" and report["n_columns"] > 0
        # One named suite also works, and bad usage is rejected cleanly.
        assert main(["evaluate", "--model", str(bundle),
                     "--suite", "unicode_heavy"]) == 0
        capsys.readouterr()
        assert main(["evaluate", "--suite", "all"]) == 2
        assert "--suite requires --model" in capsys.readouterr().err
        assert main(["evaluate", "--model", str(bundle), "--suite", "nope"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_suite_gated_promote_lifecycle(self, trained_bundle, tmp_path, capsys):
        """End-to-end: a failing suite gate aborts atomically with evidence.

        publish v1 -> promote -> publish v2 -> gated promote with an
        impossible suite floor (refused: exit 1, pointer untouched, failed
        evidence in GATE_LOG.json) -> gated promote with a clearable floor
        (pointer flips, per-suite evidence in CURRENT.json).
        """
        bundle, corpus = trained_bundle
        registry = tmp_path / "registry"
        publish = ["registry", "publish", "--registry", str(registry),
                   "--name", "sato", "--model", str(bundle)]
        assert main(publish) == 0
        assert main(["registry", "promote", "--registry", str(registry),
                     "--name", "sato", "--version", "v0001"]) == 0
        assert main(publish) == 0
        capsys.readouterr()

        # --suite without --gate is rejected before any work happens.
        assert main(["registry", "promote", "--registry", str(registry),
                     "--name", "sato", "--version", "v0002",
                     "--suite", "clean_baseline"]) == 2
        assert "--suite requires --gate" in capsys.readouterr().err

        gated = ["registry", "promote", "--registry", str(registry),
                 "--name", "sato", "--version", "v0002",
                 "--gate", "--eval-set", str(corpus),
                 "--min-f1", "0", "--min-agreement", "0",
                 "--suite-tolerance", "1.0"]
        current_path = registry / "sato" / "CURRENT.json"
        before = current_path.read_text()

        assert main(gated + ["--suite", "unknown_suite"]) == 2
        assert "unknown suite" in capsys.readouterr().err

        refused = main(gated + ["--suite", "clean_baseline:1.01"])
        captured = capsys.readouterr()
        assert refused == 1
        assert "REFUSED" in captured.err and "below floor" in captured.err
        # Atomic abort: the promotion pointer is byte-identical.
        assert current_path.read_text() == before
        log = json.loads((registry / "sato" / "GATE_LOG.json").read_text())
        assert len(log["entries"]) == 1
        failed = log["entries"][0]
        assert failed["version"] == "v0002"
        assert not failed["gate"]["passed"]
        assert failed["gate"]["suites"][0]["suite"] == "clean_baseline"
        assert failed["gate"]["suites"][0]["reasons"]

        passed = main(gated + ["--suite", "clean_baseline:0.0",
                               "--suite", "unicode_heavy:0.0"])
        captured = capsys.readouterr()
        assert passed == 0
        assert "promoted sato/v0002" in captured.out
        assert captured.out.count("gate suite") == 2
        pointer = json.loads(current_path.read_text())
        assert pointer["version"] == "v0002"
        suites = {s["suite"]: s for s in pointer["gate"]["suites"]}
        assert set(suites) == {"clean_baseline", "unicode_heavy"}
        assert all(s["passed"] for s in suites.values())
        log = json.loads((registry / "sato" / "GATE_LOG.json").read_text())
        assert [e["gate"]["passed"] for e in log["entries"]] == [False, True]

    def test_predict_on_csv(self, trained_bundle, tmp_path, capsys):
        bundle, _ = trained_bundle
        table = Table(
            columns=[
                Column(values=["Alice Smith", "Bob Jones"], header="who"),
                Column(values=["Paris", "Rome"], header="where"),
            ]
        )
        csv_path = tmp_path / "table.csv"
        table_to_csv(table, csv_path)
        exit_code = main(["predict", "--model", str(bundle), "--csv", str(csv_path)])
        assert exit_code == 0
        output = capsys.readouterr().out
        # The labels the library gives the in-memory table.
        (labels,) = Predictor.from_bundle(bundle).predict_tables([table])
        assert output.splitlines() == [
            f"{header:<24} -> {label}"
            for header, label in zip(["who", "where"], labels)
        ]

    def test_predict_strips_a_utf8_bom(self, trained_bundle, tmp_path, capsys):
        bundle, _ = trained_bundle
        csv_path = tmp_path / "bom.csv"
        csv_path.write_bytes("\ufeffwho,where\nAlice Smith,Paris\n".encode("utf-8"))
        assert main(["predict", "--model", str(bundle), "--csv", str(csv_path)]) == 0
        headers = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert headers == ["who", "where"]

    @pytest.mark.parametrize(
        "content,message",
        [
            (b"who,where\nAlice Smith,Paris,female\n", "line 2 has 3 cells"),
            (b"", "empty CSV file"),
            (None, "cannot open"),
        ],
        ids=["overwide-row", "empty-file", "missing-file"],
    )
    def test_predict_refuses_unreadable_csv(
        self, trained_bundle, tmp_path, capsys, content, message
    ):
        """``predict`` reads CSV like ``annotate``: a bad file exits 2."""
        bundle, _ = trained_bundle
        csv_path = tmp_path / "table.csv"
        if content is not None:
            csv_path.write_bytes(content)
        assert main(["predict", "--model", str(bundle), "--csv", str(csv_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
