"""Command line interface.

Subcommands::

    repro-sato generate  --n-tables 500 --out corpus.jsonl
    repro-sato generate  --spec specs/unicode_heavy.json --out suite.jsonl \
                         --split-out suite.split.json
    repro-sato train     --corpus corpus.jsonl --out model/
    repro-sato predict   --model model/ --csv mytable.csv
    repro-sato annotate  data/ --model model/ --out schemas.jsonl
    repro-sato annotate  warehouse.sqlite --registry registry/ \
                         --model-name sato --chunk-rows 8192
    repro-sato serve     --model model/ --port 8080 \
                         --max-batch-size 32 --max-wait-ms 2
    repro-sato serve     --registry registry/ --model-name sato \
                         --watch-interval 2
    repro-sato profile   --model model/ --suite clean_baseline \
                         --suite-preset tiny --json profile_report.json
    repro-sato evaluate  --corpus corpus.jsonl --variant Sato --k 3
    repro-sato evaluate  --model model/ --corpus eval.jsonl
    repro-sato evaluate  --model model/ --suite all --suite-preset tiny
    repro-sato suites    --json
    repro-sato registry  publish --registry registry/ --name sato --model model/
    repro-sato registry  promote --registry registry/ --name sato \
                         --version v0002 --gate --eval-set eval.jsonl \
                         --suite unicode_heavy --suite dirty_columns:0.1
    repro-sato registry  rollback --registry registry/ --name sato
    repro-sato registry  list --registry registry/
    repro-sato registry  gc --registry registry/ --name sato --keep 2
    repro-sato report    --preset tiny

``generate`` writes a synthetic corpus — either from the knob-based
generator or, with ``--spec``, deterministically from a declarative corpus
spec (``docs/corpus_spec.md``).  ``train`` fits a model variant on a
corpus and saves it as an artifact bundle, after which ``predict --model``
loads the bundle and serves per-column predictions for CSV tables without
retraining.  ``serve`` exposes a bundle — or, in registry mode, the
*promoted version* of a registered model, hot-swapping on promotion —
over HTTP with micro-batched online inference (see ``docs/http_api.md``
and ``docs/operations.md``).  ``evaluate`` either
cross-validates one model variant (legacy), evaluates a saved bundle on a
held-out corpus with ``--model``, or scores a bundle on shipped hard-case
suites with ``--suite``.  ``annotate`` bulk-annotates external
sources (CSV/NDJSON/SQLite/JSONL files, directories of them, Parquet with
``pyarrow``) as typed schemas on JSONL output, streaming every source in
bounded-memory chunks (``docs/ingest.md``); corrupt sources are reported
on stderr and skipped, and the exit code is non-zero if any source
failed.  ``profile`` replays a shipped suite
through a saved bundle under the tracing instrumentation and prints a
per-stage flame table (``docs/observability.md``).  ``suites`` lists the
shipped suites and their
difficulty manifests.  ``registry`` manages the versioned model lifecycle
(``docs/registry.md``); gated promotions may add per-suite criteria via
``--suite`` and every gate decision is appended to the model's
``GATE_LOG.json``.  ``report`` regenerates the Table 1 summary for a
configuration preset.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Sequence

from repro.corpus import CorpusConfig, CorpusGenerator
from repro.corpus.suites import SUITE_PRESETS
from repro.evaluation import evaluate_model_cv
from repro.experiments import ExperimentConfig, reporting, run_main_results
from repro.experiments.pipeline import make_model_factories
from repro.registry.gates import (
    DEFAULT_GATE_MIN_AGREEMENT,
    DEFAULT_GATE_MIN_F1,
    DEFAULT_SUITE_REGRESSION_TOLERANCE,
)
from repro.registry.watch import DEFAULT_WATCH_INTERVAL
from repro.serving import BundleFormatError, Predictor, save_model
from repro.serving.scheduler import (
    DEFAULT_MAX_BATCH_SIZE,
    DEFAULT_MAX_QUEUE,
    DEFAULT_MAX_WAIT_MS,
)
from repro.tables import tables_from_jsonl, tables_to_jsonl

__all__ = ["main", "build_parser"]

MODEL_VARIANTS = ("Base", "Sato", "SatoNoStruct", "SatoNoTopic")


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro-sato",
        description="Sato reproduction: semantic type detection in tables",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser("generate", help="generate a synthetic corpus")
    generate.add_argument("--n-tables", type=int, default=500)
    generate.add_argument("--seed", type=int, default=13)
    generate.add_argument("--singleton-rate", type=float, default=0.4)
    generate.add_argument(
        "--spec",
        help="declarative corpus spec (JSON/YAML): build this spec "
        "deterministically instead of using the knob-based generator",
    )
    generate.add_argument(
        "--split-out",
        help="with --spec: also write the spec's train/test split "
        "assignment as JSON",
    )
    generate.add_argument("--out", required=True, help="output JSONL path")

    train = subparsers.add_parser(
        "train", help="train a model on a corpus and save it as a bundle"
    )
    train.add_argument("--corpus", required=True, help="training corpus JSONL path")
    train.add_argument("--out", required=True, help="output bundle directory")
    train.add_argument("--variant", choices=MODEL_VARIANTS, default="Sato")
    train.add_argument("--epochs", type=int, default=15)

    evaluate = subparsers.add_parser(
        "evaluate",
        help="evaluate a saved bundle on a held-out corpus, or cross-validate a variant",
    )
    evaluate.add_argument(
        "--model",
        help="saved model bundle directory: evaluate it on --corpus as a "
        "held-out set (no retraining)",
    )
    evaluate.add_argument(
        "--corpus",
        help="corpus JSONL path (the eval set with --model, the CV corpus "
        "without; not used with --suite)",
    )
    evaluate.add_argument(
        "--suite",
        help="score --model on a shipped hard-case suite by name, or 'all' "
        "(see `repro-sato suites`); replaces --corpus",
    )
    evaluate.add_argument(
        "--suite-preset",
        choices=sorted(SUITE_PRESETS),
        default="tiny",
        help="suite size preset: 'tiny' for CI-speed runs, 'full' as specced",
    )
    evaluate.add_argument(
        "--json",
        dest="json_out",
        help="with --suite: also write the per-suite reports as JSON",
    )
    evaluate.add_argument("--variant", choices=MODEL_VARIANTS, default="Sato")
    evaluate.add_argument("--k", type=int, default=3)
    evaluate.add_argument("--multi-column-only", action="store_true")
    evaluate.add_argument("--epochs", type=int, default=15)

    suites = subparsers.add_parser(
        "suites", help="list the shipped hard-case eval suites"
    )
    suites.add_argument(
        "--json",
        dest="json_out",
        action="store_true",
        help="emit the full difficulty manifests as JSON",
    )

    predict = subparsers.add_parser("predict", help="predict column types of CSV tables")
    predict.add_argument("--model", required=True, help="saved model bundle directory")
    predict.add_argument(
        "--csv", required=True, nargs="+", help="CSV table(s) to annotate"
    )
    _add_sketch_arguments(predict)

    annotate = subparsers.add_parser(
        "annotate",
        help="bulk-annotate data sources (files, directories, SQLite "
        "databases) as typed schemas, streaming in bounded memory",
    )
    annotate.add_argument(
        "sources",
        nargs="+",
        metavar="SOURCE",
        help="source files, directories or SQLite databases",
    )
    annotate_model = annotate.add_mutually_exclusive_group(required=True)
    annotate_model.add_argument("--model", help="saved model bundle directory")
    annotate_model.add_argument(
        "--registry",
        help="registry root: annotate with the promoted version of --model-name",
    )
    annotate.add_argument(
        "--model-name", help="registered model name (registry mode)"
    )
    annotate.add_argument(
        "--model-version",
        help="pin a registry version (default: the promoted one)",
    )
    annotate.add_argument(
        "--out",
        default="-",
        help="output JSONL path, one record per ingested table "
        "(default '-': stdout)",
    )
    annotate.add_argument(
        "--chunk-rows",
        type=int,
        default=None,
        help="rows per streamed chunk (default: the experiment config's "
        "ingest_chunk_rows)",
    )
    annotate.add_argument(
        "--format",
        default=None,
        help="force a registered source format (csv, ndjson, sqlite, "
        "tables-jsonl, parquet) instead of dispatching on file suffix",
    )
    _add_sketch_arguments(annotate)
    annotate.add_argument(
        "--sketch-gc",
        action="store_true",
        help="after annotating, compact the sketch-store logs down to the "
        "live LRU entries and purge sections from stale configurations",
    )

    serve = subparsers.add_parser(
        "serve",
        help="serve a model bundle (or a registry's promoted version) over "
        "HTTP with micro-batching and zero-downtime hot swap",
    )
    serve_source = serve.add_mutually_exclusive_group(required=True)
    serve_source.add_argument("--model", help="saved model bundle directory")
    serve_source.add_argument(
        "--registry",
        help="registry root: serve the promoted version of --model-name and "
        "enable admin reload/shadow endpoints",
    )
    serve.add_argument(
        "--model-name",
        help="registered model name to serve (registry mode)",
    )
    serve.add_argument(
        "--model-version",
        help="pin a registry version instead of the promoted one "
        "(disables promotion watching; admin reloads stay available)",
    )
    serve.add_argument(
        "--watch-interval",
        type=float,
        default=DEFAULT_WATCH_INTERVAL,
        help="seconds between promotion-pointer polls in registry mode "
        "(0 disables watching; reloads stay available via the admin API)",
    )
    serve.add_argument(
        "--shadow-version",
        help="start mirroring traffic to this registry version immediately",
    )
    serve.add_argument(
        "--shadow-fraction",
        type=float,
        default=0.1,
        help="fraction of requests mirrored to the shadow candidate",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument(
        "--max-batch-size",
        type=int,
        default=DEFAULT_MAX_BATCH_SIZE,
        help="largest number of tables dispatched in one model call",
    )
    serve.add_argument(
        "--max-wait-ms",
        type=float,
        default=DEFAULT_MAX_WAIT_MS,
        help="how long a request may wait for batch companions",
    )
    serve.add_argument(
        "--max-queue",
        type=int,
        default=DEFAULT_MAX_QUEUE,
        help="admission bound on pending requests (excess gets HTTP 429)",
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=4096,
        help="capacity of the column-feature LRU cache",
    )
    serve.add_argument(
        "--fleet-workers",
        type=int,
        default=0,
        help="serve through N prefork worker processes sharing one "
        "in-memory copy of the model weights (0 = single process)",
    )
    serve.add_argument(
        "--worker-queue",
        type=int,
        help="fleet mode: per-worker in-flight bound before a request "
        "spills to the next worker on the routing ring "
        "(default: max-queue / fleet-workers)",
    )
    serve.add_argument(
        "--log-format",
        choices=("text", "json"),
        default="text",
        help="request logging: terse text on stderr (default) or one "
        "structured JSON line per request (trace id, outcome, timings)",
    )
    _add_sketch_arguments(serve)

    profile = subparsers.add_parser(
        "profile",
        help="replay a suite through a saved bundle and break wall time "
        "down per pipeline stage",
    )
    profile.add_argument(
        "--model", required=True, help="model bundle directory (from `train`)"
    )
    profile.add_argument(
        "--suite",
        default="clean_baseline",
        help="shipped corpus suite to replay (see `repro-sato suites`)",
    )
    profile.add_argument(
        "--suite-preset",
        choices=("tiny", "full"),
        default="tiny",
        help="suite size preset",
    )
    profile.add_argument(
        "--batch-size",
        type=int,
        default=8,
        help="tables per replayed request batch",
    )
    profile.add_argument(
        "--json",
        dest="json_out",
        default=None,
        help="also write the full profile report to this JSON file",
    )

    registry = subparsers.add_parser(
        "registry",
        help="versioned model lifecycle: publish, promote (gated), rollback, gc",
    )
    registry_sub = registry.add_subparsers(dest="registry_command", required=True)

    publish = registry_sub.add_parser(
        "publish", help="publish a trained bundle as a new immutable version"
    )
    publish.add_argument("--registry", required=True, help="registry root directory")
    publish.add_argument("--name", required=True, help="registered model name")
    publish.add_argument(
        "--model", required=True, help="bundle directory to publish (from `train`)"
    )
    publish.add_argument(
        "--parent", help="lineage parent version (default: the promoted version)"
    )
    publish.add_argument(
        "--corpus-fingerprint", help="hash/identifier of the training corpus"
    )
    publish.add_argument(
        "--metric",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="train-time metric to record as lineage (repeatable)",
    )

    promote = registry_sub.add_parser(
        "promote", help="point live traffic at a published version (atomic)"
    )
    promote.add_argument("--registry", required=True)
    promote.add_argument("--name", required=True)
    promote.add_argument("--version", required=True)
    promote.add_argument(
        "--gate",
        action="store_true",
        help="refuse promotion unless the candidate clears the eval gates",
    )
    promote.add_argument(
        "--eval-set", help="held-out labelled corpus JSONL (required with --gate)"
    )
    promote.add_argument(
        "--min-f1",
        type=float,
        default=DEFAULT_GATE_MIN_F1,
        help="minimum held-out macro-F1 the candidate must reach",
    )
    promote.add_argument(
        "--min-agreement",
        type=float,
        default=DEFAULT_GATE_MIN_AGREEMENT,
        help="minimum column agreement with the incumbent (replay or --shadow-agreement)",
    )
    promote.add_argument(
        "--shadow-agreement",
        type=float,
        help="live shadow agreement rate measured by a serving instance "
        "(overrides the offline replay agreement)",
    )
    promote.add_argument(
        "--suite",
        action="append",
        default=[],
        metavar="NAME[:MIN_F1]",
        help="with --gate: also require the candidate to clear this "
        "hard-case suite (floor defaults to the suite's suggested_floor; "
        "repeatable)",
    )
    promote.add_argument(
        "--suite-preset",
        choices=sorted(SUITE_PRESETS),
        default="tiny",
        help="suite size preset used by the per-suite gates",
    )
    promote.add_argument(
        "--suite-tolerance",
        type=float,
        default=DEFAULT_SUITE_REGRESSION_TOLERANCE,
        help="how far a suite's macro-F1 may fall below the incumbent's",
    )

    rollback = registry_sub.add_parser(
        "rollback", help="re-promote the previously promoted version"
    )
    rollback.add_argument("--registry", required=True)
    rollback.add_argument("--name", required=True)

    registry_list = registry_sub.add_parser(
        "list", help="list registered models and their versions"
    )
    registry_list.add_argument("--registry", required=True)
    registry_list.add_argument("--name", help="limit to one registered name")

    gc = registry_sub.add_parser(
        "gc", help="delete old unpromoted versions and staging garbage"
    )
    gc.add_argument("--registry", required=True)
    gc.add_argument("--name", required=True)
    gc.add_argument(
        "--keep", type=int, default=2, help="newest unpromoted versions to keep"
    )

    report = subparsers.add_parser("report", help="regenerate the Table 1 summary")
    report.add_argument("--preset", choices=["tiny", "fast", "large"], default="tiny")
    return parser


def _add_sketch_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--sketch-store",
        default=None,
        help="persistent column-sketch store directory: columns whose "
        "content fingerprint hits the store skip featurization with "
        "bit-identical output (single-process only)",
    )
    parser.add_argument(
        "--sketch-sample-rows",
        type=int,
        default=None,
        metavar="N",
        help="featurize sketch misses from each column's first N values "
        "only (bounded-sample accuracy-vs-speed dial for huge columns)",
    )


def _check_sketch_arguments(args: argparse.Namespace) -> int:
    if args.sketch_sample_rows is not None and args.sketch_sample_rows < 1:
        print("--sketch-sample-rows must be >= 1", file=sys.stderr)
        return 2
    return 0


def _cmd_generate(args: argparse.Namespace) -> int:
    if args.spec is not None:
        from repro.corpus import SpecError, build_corpus, load_spec

        try:
            spec = load_spec(args.spec)
        except (OSError, SpecError) as error:
            print(f"cannot load spec {args.spec}: {error}", file=sys.stderr)
            return 2
        bundle = build_corpus(spec)
        count = tables_to_jsonl(bundle.tables, args.out)
        if args.split_out is not None:
            with open(args.split_out, "w", encoding="utf-8") as handle:
                json.dump(bundle.split, handle, indent=2, sort_keys=True)
                handle.write("\n")
        print(
            f"wrote {count} tables to {args.out} "
            f"(spec {spec.name}, seed {spec.seed})"
        )
        return 0
    if args.split_out is not None:
        print("--split-out requires --spec", file=sys.stderr)
        return 2
    config = CorpusConfig(
        n_tables=args.n_tables, seed=args.seed, singleton_rate=args.singleton_rate
    )
    tables = CorpusGenerator(config).generate()
    count = tables_to_jsonl(tables, args.out)
    print(f"wrote {count} tables to {args.out}")
    return 0


def _experiment_config(epochs: int) -> ExperimentConfig:
    return ExperimentConfig(nn_epochs=epochs)


def _build_variant(variant: str, epochs: int):
    return make_model_factories(_experiment_config(epochs))[variant]()


def _cmd_train(args: argparse.Namespace) -> int:
    tables = tables_from_jsonl(args.corpus)
    model = _build_variant(args.variant, args.epochs)
    started = time.perf_counter()
    model.fit(tables)
    elapsed = time.perf_counter() - started
    save_model(model, args.out)
    print(
        f"trained {model.name} on {len(tables)} tables in {elapsed:.1f}s; "
        f"bundle saved to {args.out}"
    )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    if args.suite is not None:
        from repro.corpus.suites import available_suites
        from repro.evaluation.suites import evaluate_suites

        if args.model is None:
            print("--suite requires --model (a trained bundle)", file=sys.stderr)
            return 2
        if args.corpus is not None:
            print(
                "--suite and --corpus are mutually exclusive: a suite is "
                "its own eval set",
                file=sys.stderr,
            )
            return 2
        try:
            predictor = Predictor.from_bundle(args.model)
        except BundleFormatError as error:
            print(f"cannot load model bundle: {error}", file=sys.stderr)
            return 2
        names = None if args.suite == "all" else [args.suite]
        if names is not None and names[0] not in available_suites():
            print(
                f"unknown suite {args.suite!r} "
                f"(available: {', '.join(available_suites())})",
                file=sys.stderr,
            )
            return 2
        reports = evaluate_suites(predictor, names, preset=args.suite_preset)
        for name, report in sorted(reports.items()):
            print(
                f"{name:<18} macro F1={report.macro_f1:.3f} "
                f"weighted F1={report.weighted_f1:.3f} "
                f"accuracy={report.accuracy:.3f} "
                f"({report.n_tables} tables, {report.n_columns} columns, "
                f"{report.difficulty.get('expected', '?')})"
            )
        if args.json_out is not None:
            payload = {name: report.to_dict() for name, report in reports.items()}
            with open(args.json_out, "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=2, sort_keys=True)
                handle.write("\n")
        return 0
    if args.corpus is None:
        print("evaluate requires --corpus (or --suite with --model)", file=sys.stderr)
        return 2
    if args.model is not None:
        # Bundle path: load once, evaluate on the corpus as a held-out set.
        # No retraining — the seed-era behaviour of refitting per invocation
        # only applies to the legacy cross-validation path below.
        from repro.registry import holdout_report, load_eval_tables

        try:
            predictor = Predictor.from_bundle(args.model)
        except BundleFormatError as error:
            print(f"cannot load model bundle: {error}", file=sys.stderr)
            return 2
        try:
            tables = load_eval_tables(args.corpus)
        except (OSError, ValueError) as error:
            print(f"cannot load eval set {args.corpus}: {error}", file=sys.stderr)
            return 2
        if args.multi_column_only:
            tables = [t for t in tables if t.n_columns > 1]
        report = holdout_report(predictor, tables)
        print(
            f"{predictor.model.name} ({args.model}): "
            f"macro F1={report.macro_f1:.3f}, "
            f"weighted F1={report.weighted_f1:.3f}, "
            f"accuracy={report.accuracy:.3f} "
            f"on {len(tables)} held-out tables ({report.n_samples} columns)"
        )
        return 0
    tables = tables_from_jsonl(args.corpus)
    if args.multi_column_only:
        tables = [t for t in tables if t.n_columns > 1]
    factories = make_model_factories(_experiment_config(args.epochs))
    result = evaluate_model_cv(
        factories[args.variant], tables, k=args.k, model_name=args.variant
    )
    print(
        f"{args.variant}: macro F1={result.macro_f1:.3f} "
        f"(+/-{result.confidence_interval('macro'):.3f}), "
        f"weighted F1={result.weighted_f1:.3f} "
        f"(+/-{result.confidence_interval('weighted'):.3f})"
    )
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.ingest import CsvAdapter, IngestError

    if _check_sketch_arguments(args):
        return 2
    try:
        # The reader `annotate` uses: one stream per file, read whole.
        tables = [next(CsvAdapter().streams(path)).materialize() for path in args.csv]
    except IngestError as error:
        print(f"predict: {error}", file=sys.stderr)
        return 2
    try:
        predictor = Predictor.from_bundle(
            args.model,
            sketch_store=args.sketch_store,
            sketch_sample_rows=args.sketch_sample_rows,
        )
    except BundleFormatError as error:
        print(f"cannot load model bundle: {error}", file=sys.stderr)
        return 2
    predictions = predictor.predict_tables(tables)
    predictor.close()
    for path, table, labels in zip(args.csv, tables, predictions):
        if len(args.csv) > 1:
            print(f"# {path}")
        for index, (column, label) in enumerate(zip(table.columns, labels)):
            header = column.header or f"column {index}"
            print(f"{header:<24} -> {label}")
    return 0


def _cmd_annotate(args: argparse.Namespace) -> int:
    from repro.ingest import IngestError, StreamingAnnotator, discover_sources
    from repro.serving import load_model

    if args.chunk_rows is not None and args.chunk_rows < 1:
        print("--chunk-rows must be >= 1", file=sys.stderr)
        return 2
    if _check_sketch_arguments(args):
        return 2
    if args.sketch_gc and args.sketch_store is None:
        print("--sketch-gc requires --sketch-store", file=sys.stderr)
        return 2
    chunk_rows = (
        args.chunk_rows
        if args.chunk_rows is not None
        else ExperimentConfig().ingest_chunk_rows
    )
    if args.registry is not None:
        from repro.registry import ModelRegistry, RegistryError

        if args.model_name is None:
            print("--registry requires --model-name", file=sys.stderr)
            return 2
        try:
            model, _ = ModelRegistry(args.registry).load(
                args.model_name, args.model_version
            )
        except (RegistryError, BundleFormatError) as error:
            print(f"cannot load from registry: {error}", file=sys.stderr)
            return 2
    else:
        if args.model_name is not None or args.model_version is not None:
            print(
                "--model-name/--model-version require --registry", file=sys.stderr
            )
            return 2
        try:
            model = load_model(args.model)
        except BundleFormatError as error:
            print(f"cannot load model bundle: {error}", file=sys.stderr)
            return 2
    annotator = StreamingAnnotator(
        model,
        sketch_store=args.sketch_store,
        sample_rows=args.sketch_sample_rows,
    )

    # Resolve every source file up front: a missing path or unknown format
    # is reported once, and the remaining sources still get annotated
    # (partial output + non-zero exit).
    sources = []
    failures = 0
    for raw_path in args.sources:
        try:
            sources.extend(discover_sources(raw_path, args.format))
        except IngestError as error:
            print(f"annotate: {error}", file=sys.stderr)
            failures += 1

    handle = (
        sys.stdout if args.out == "-" else open(args.out, "w", encoding="utf-8")
    )
    annotated = 0
    try:
        for path, adapter in sources:
            try:
                for stream in adapter.streams(path, chunk_rows):
                    record = annotator.annotate_stream(stream)
                    handle.write(json.dumps(record, ensure_ascii=False))
                    handle.write("\n")
                    annotated += 1
            except IngestError as error:
                # One corrupt source must not sink the batch: report it,
                # keep whatever this file already produced, move on.
                print(f"annotate: {error}", file=sys.stderr)
                failures += 1
    finally:
        handle.flush()
        if handle is not sys.stdout:
            handle.close()
    if annotator.sketch_store is not None:
        stats = annotator.sketch_store.stats()
        if args.sketch_gc:
            summary = annotator.sketch_store.gc(purge_stale=True)
            print(
                f"sketch-gc: kept {summary['live_entries']} entr"
                f"{'y' if summary['live_entries'] == 1 else 'ies'} in "
                f"{summary['sections']} section(s), reclaimed "
                f"{summary['reclaimed_bytes']} bytes, purged "
                f"{summary['purged_files']} stale file(s)",
                file=sys.stderr,
            )
        print(
            f"sketch-store: {stats['hits']} hit(s), {stats['misses']} "
            f"miss(es)",
            file=sys.stderr,
        )
        annotator.close()
    print(
        f"annotated {annotated} table(s) from {len(sources)} source file(s)"
        + (f", {failures} failed" if failures else ""),
        file=sys.stderr,
    )
    return 1 if failures else 0


def _cmd_suites(args: argparse.Namespace) -> int:
    from repro.corpus.suites import available_suites, suite_manifest

    names = available_suites()
    if not names:
        print("no suites shipped (specs/ is empty)", file=sys.stderr)
        return 1
    if args.json_out:
        payload = {name: suite_manifest(name) for name in names}
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for name in names:
        manifest = suite_manifest(name)
        difficulty = manifest.get("difficulty") or {}
        axes = ", ".join(difficulty.get("axes") or []) or "-"
        print(
            f"{name:<18} {difficulty.get('expected', '?'):<8} "
            f"floor={difficulty.get('suggested_floor', '-')}  axes: {axes}"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from repro.serving.server import ServingServer

    from repro.registry import RegistryError
    from repro.serving.fleet import FleetError, ServingFleet

    if args.fleet_workers < 0:
        print("--fleet-workers must be >= 0", file=sys.stderr)
        return 2
    fleet_mode = args.fleet_workers > 0
    if _check_sketch_arguments(args):
        return 2
    if fleet_mode and (
        args.sketch_store is not None or args.sketch_sample_rows is not None
    ):
        # The store is single-writer: prefork workers appending to one
        # directory would interleave records.
        print(
            "--sketch-store/--sketch-sample-rows require a single-process "
            "server (prefork workers cannot share one store)",
            file=sys.stderr,
        )
        return 2

    registry = None
    shadow = None
    if args.registry is not None:
        from repro.registry import ModelRegistry, RegistryError, ShadowEvaluator

        if args.model_name is None:
            print("--registry requires --model-name", file=sys.stderr)
            return 2
        if not 0.0 <= args.shadow_fraction <= 1.0:
            print("--shadow-fraction must be within [0, 1]", file=sys.stderr)
            return 2
        registry = ModelRegistry(args.registry)
        if fleet_mode:
            predictor = None
        else:
            try:
                predictor = Predictor.from_registry(
                    registry,
                    args.model_name,
                    version=args.model_version,
                    cache_size=args.cache_size,
                    sketch_store=args.sketch_store,
                    sketch_sample_rows=args.sketch_sample_rows,
                )
            except (RegistryError, BundleFormatError) as error:
                print(f"cannot load from registry: {error}", file=sys.stderr)
                return 2
        if args.shadow_version is not None:
            try:
                candidate = Predictor.from_registry(
                    registry, args.model_name, version=args.shadow_version
                )
            except (RegistryError, BundleFormatError) as error:
                print(f"cannot load shadow candidate: {error}", file=sys.stderr)
                return 2
            shadow = ShadowEvaluator(
                candidate,
                fraction=args.shadow_fraction,
                version=args.shadow_version,
            )
    else:
        if args.model_name or args.model_version or args.shadow_version:
            print(
                "--model-name/--model-version/--shadow-version require "
                "--registry",
                file=sys.stderr,
            )
            return 2
        if fleet_mode:
            predictor = None
        else:
            try:
                predictor = Predictor.from_bundle(
                    args.model,
                    cache_size=args.cache_size,
                    sketch_store=args.sketch_store,
                    sketch_sample_rows=args.sketch_sample_rows,
                )
            except BundleFormatError as error:
                print(f"cannot load model bundle: {error}", file=sys.stderr)
                return 2

    if fleet_mode:
        # The fleet is both halves of the serving stack: the predictor
        # facade (model identity, promote/reload) and the batcher (request
        # routing across its worker processes).  Model loading happens
        # inside start(), once per worker, over one shared tensor store.
        predictor = ServingFleet(
            args.fleet_workers,
            bundle_path=args.model,
            registry=registry,
            model_name=args.model_name if registry is not None else None,
            model_version=args.model_version,
            cache_size=args.cache_size,
            max_batch_size=args.max_batch_size,
            max_wait_ms=args.max_wait_ms,
            max_queue=args.max_queue,
            worker_queue=args.worker_queue,
        )

    async def _serve() -> None:
        server = ServingServer(
            predictor,
            host=args.host,
            port=args.port,
            max_batch_size=args.max_batch_size,
            max_wait_ms=args.max_wait_ms,
            max_queue=args.max_queue,
            registry=registry,
            model_name=args.model_name if registry is not None else None,
            # A pinned --model-version must stay pinned: the watcher would
            # otherwise converge the server back to the promoted version.
            watch_interval=(
                args.watch_interval
                if registry is not None
                and args.model_version is None
                and args.watch_interval > 0
                else None
            ),
            bundle_path=args.model,
            shadow=shadow,
            batcher=predictor if fleet_mode else None,
            log_format=args.log_format,
        )
        await server.start()
        # Handle shutdown signals inside the loop: the drain then runs to
        # completion in the main task on every Python version, instead of
        # racing asyncio.run's teardown (which on 3.10 cancels all tasks,
        # dispatch loop included, dropping the queue mid-drain).
        loop = asyncio.get_running_loop()
        shutdown = asyncio.Event()
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, shutdown.set)
            except NotImplementedError:  # pragma: no cover - non-POSIX loops
                pass
        source = (
            f"{args.registry}:{args.model_name}@{predictor.model_version}"
            if registry is not None
            else args.model
        )
        fleet_note = (
            f", fleet_workers={args.fleet_workers}" if fleet_mode else ""
        )
        print(
            f"serving {source} on http://{args.host}:{server.port} "
            f"(max_batch_size={args.max_batch_size}, "
            f"max_wait_ms={args.max_wait_ms}, max_queue={args.max_queue}"
            f"{fleet_note})"
        )
        try:
            await shutdown.wait()
        finally:
            print("draining...", file=sys.stderr)
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass  # signal handler unavailable on this platform; exit plainly
    except (FleetError, RegistryError, BundleFormatError) as error:
        print(f"cannot start serving: {error}", file=sys.stderr)
        return 2
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.corpus.suites import build_suite
    from repro.obs import profile_predictor, render_flame

    if args.batch_size < 1:
        print("--batch-size must be >= 1", file=sys.stderr)
        return 2
    try:
        bundle = build_suite(args.suite, args.suite_preset)
    except (KeyError, ValueError) as error:
        print(f"cannot build suite: {error}", file=sys.stderr)
        return 2
    try:
        predictor = Predictor.from_bundle(args.model)
    except BundleFormatError as error:
        print(f"cannot load model bundle: {error}", file=sys.stderr)
        return 2
    # Every batch is stamped with the model version, which an untagged
    # predictor hashes from the model on first use: set-up paid once per
    # process, so pay it before the replay rather than inside no stage.
    predictor.fingerprint
    report = profile_predictor(
        predictor,
        bundle.tables,
        batch_size=args.batch_size,
        model=args.model,
        suite=args.suite,
    )
    print(render_flame(report))
    if args.json_out is not None:
        out = Path(args.json_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"report written to {out}", file=sys.stderr)
    return 0


def _parse_metrics(pairs: list[str]) -> dict:
    metrics: dict[str, float | str] = {}
    for pair in pairs:
        key, separator, value = pair.partition("=")
        if not separator or not key:
            raise ValueError(f"--metric expects KEY=VALUE, got {pair!r}")
        try:
            metrics[key] = float(value)
        except ValueError:
            metrics[key] = value
    return metrics


def _cmd_registry(args: argparse.Namespace) -> int:
    from repro.corpus.suites import available_suites
    from repro.registry import (
        ModelRegistry,
        RegistryError,
        load_eval_tables,
        parse_suite_gate,
        run_gate,
    )

    registry = ModelRegistry(args.registry)
    try:
        if args.registry_command == "publish":
            try:
                metrics = _parse_metrics(args.metric)
            except ValueError as error:
                print(str(error), file=sys.stderr)
                return 2
            info = registry.publish(
                args.model,
                args.name,
                train_metrics=metrics,
                corpus_fingerprint=args.corpus_fingerprint,
                parent=args.parent,
            )
            print(
                f"published {args.name}/{info.version} "
                f"(fingerprint {info.fingerprint}, parent {info.parent or '-'})"
            )
            return 0

        if args.registry_command == "promote":
            gate_record = None
            if args.suite and not args.gate:
                print("--suite requires --gate", file=sys.stderr)
                return 2
            if args.gate:
                if args.eval_set is None:
                    print("--gate requires --eval-set", file=sys.stderr)
                    return 2
                try:
                    suite_gates = [parse_suite_gate(text) for text in args.suite]
                except ValueError as error:
                    print(str(error), file=sys.stderr)
                    return 2
                unknown = [
                    gate.suite
                    for gate in suite_gates
                    if gate.suite not in available_suites()
                ]
                if unknown:
                    print(
                        f"unknown suite(s): {', '.join(unknown)} "
                        f"(available: {', '.join(available_suites())})",
                        file=sys.stderr,
                    )
                    return 2
                try:
                    eval_tables = load_eval_tables(args.eval_set)
                except (OSError, ValueError) as error:
                    print(
                        f"cannot load eval set {args.eval_set}: {error}",
                        file=sys.stderr,
                    )
                    return 2
                candidate = Predictor.from_registry(
                    registry, args.name, version=args.version
                )
                incumbent = None
                current = registry.current_version(args.name)
                if current is not None and current != args.version:
                    incumbent = Predictor.from_registry(
                        registry, args.name, version=current
                    )
                result = run_gate(
                    candidate,
                    eval_tables,
                    min_macro_f1=args.min_f1,
                    min_agreement=args.min_agreement,
                    incumbent=incumbent,
                    shadow_agreement=args.shadow_agreement,
                    suite_gates=suite_gates,
                    suite_preset=args.suite_preset,
                    suite_tolerance=args.suite_tolerance,
                )
                agreement = (
                    f"{result.agreement:.3f}" if result.agreement is not None else "n/a"
                )
                print(
                    f"gate: macro F1={result.macro_f1:.3f} "
                    f"(min {args.min_f1:.3f}), agreement={agreement} "
                    f"(min {args.min_agreement:.3f})"
                )
                for suite in result.suites:
                    incumbent_f1 = (
                        f"{suite.incumbent_f1:.3f}"
                        if suite.incumbent_f1 is not None
                        else "n/a"
                    )
                    verdict = "ok" if suite.passed else "FAIL"
                    print(
                        f"gate suite {suite.suite} ({suite.preset}): "
                        f"macro F1={suite.macro_f1:.3f} "
                        f"(floor {suite.min_f1:.3f}, "
                        f"incumbent {incumbent_f1}) {verdict}"
                    )
                gate_record = result.to_dict()
                # Win or lose, the decision is appended to GATE_LOG.json so
                # a refused candidate leaves auditable evidence even though
                # the promotion below never runs.
                registry.record_gate(args.name, args.version, gate_record)
                if not result.passed:
                    for reason in result.reasons:
                        print(f"REFUSED: {reason}", file=sys.stderr)
                    return 1
            info = registry.promote(args.name, args.version, gate=gate_record)
            print(f"promoted {args.name}/{info.version}")
            return 0

        if args.registry_command == "rollback":
            info = registry.rollback(args.name)
            print(f"rolled back {args.name} to {info.version}")
            return 0

        if args.registry_command == "list":
            names = [args.name] if args.name else registry.names()
            if not names:
                print("registry is empty")
                return 0
            for name in names:
                current = registry.current_version(name)
                print(f"{name}:")
                for info in registry.list_versions(name):
                    marker = " *" if info.version == current else "  "
                    metrics = (
                        json.dumps(info.train_metrics, sort_keys=True)
                        if info.train_metrics
                        else "-"
                    )
                    print(
                        f" {marker} {info.version}  parent={info.parent or '-'}  "
                        f"fingerprint={info.fingerprint[:12]}  metrics={metrics}"
                    )
            return 0

        if args.registry_command == "gc":
            removed = registry.gc(args.name, keep_unpromoted=args.keep)
            if removed:
                print(f"removed {', '.join(removed)}")
            else:
                print("nothing to remove")
            return 0
    except RegistryError as error:
        print(f"registry error: {error}", file=sys.stderr)
        return 1
    raise AssertionError(f"unhandled registry command {args.registry_command!r}")


def _cmd_report(args: argparse.Namespace) -> int:
    presets = {
        "tiny": ExperimentConfig.tiny,
        "fast": ExperimentConfig.fast,
        "large": ExperimentConfig.large,
    }
    results = run_main_results(presets[args.preset]())
    print(reporting.format_table1(results))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "train": _cmd_train,
        "evaluate": _cmd_evaluate,
        "suites": _cmd_suites,
        "predict": _cmd_predict,
        "annotate": _cmd_annotate,
        "serve": _cmd_serve,
        "profile": _cmd_profile,
        "registry": _cmd_registry,
        "report": _cmd_report,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
