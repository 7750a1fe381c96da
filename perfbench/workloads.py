"""The four workloads: build inputs, drive the program, check it, measure.

Each ``run_*`` function returns an :class:`Outcome`: the end-to-end
metrics of an untraced run, or, for ``--trace 1``, the per-layer metrics
of a traced run measured after an untraced one.  The offline workloads'
timings are scaled to the reference speed of ``perfbench.hostspeed``;
serving timings are reported as measured.
"""

from __future__ import annotations

import csv
import json
import random
import statistics
import subprocess
from dataclasses import dataclass
from pathlib import Path

from perfbench import inputs
from perfbench.hostspeed import HostSpeed
from perfbench.layers import layer_metrics, unit
from perfbench.serve import (
    LoopResult,
    ServeError,
    ServerProcess,
    closed_loop,
    peak_rss_mb,
    python_argv,
    request,
)
from perfbench.stats import describe, median, percentile
from perfbench.trace import Span, clip, load_spans
from repro.evaluation.metrics import classification_report
from repro.serving import Predictor
from repro.tables import Column, Table, tables_to_jsonl
from repro.types import SEMANTIC_TYPES

ROOT = Path(__file__).resolve().parents[1]
#: Run directories, the cached served model and the traces written by
#: traced runs.  Everything the benchmark writes stays under here.
WORK = ROOT / ".perfbench"

#: ``setup_s`` of a measured serving run is the median of this many
#: ``serve`` launches: the one that takes the traffic, then the rest after
#: it, so the samples span the run rather than its first seconds.
SERVE_SETUPS = 5
#: Closed-loop clients (``nproc`` is 2: one process, at most two
#: connections and two threads of load).
CLIENTS = 2
#: Tables per ``serve_cold`` request, and fresh tables drawn per second
#: of measurement (about 4x today's uncached throughput; a faster program
#: runs out early and is measured over a shorter window).
COLD_BATCH = 4
COLD_TABLES_PER_S = 200
#: ``serve_hot``: the working set, small enough for every cache.
HOT_TABLES = 32
#: ``annotate_bulk``: long CSV tables with row counts spread over a range
#: (about 3 s a pass, so a 30 s run times every file about ten times).
ANNOTATE_FILES = 8
ANNOTATE_ROWS = (2000, 20000)
#: ``train``: tables fitted; the quality probe is the held-out split.
TRAIN_TABLES = 64
#: Traced runs fail below this share of wall time explained by layers.
MIN_COVERAGE = 0.9

END_TO_END_UNITS = {
    "setup_s": "s",
    "tables_per_s": "tables/s",
    "rows_per_s": "rows/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MiB",
    "weighted_f1": "ratio",
    "macro_f1": "ratio",
}


class CheckError(RuntimeError):
    """The program ran but the benchmark could not verify it."""


@dataclass
class Context:
    """One run's arguments and its scratch directory."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    run_dir: Path

    @staticmethod
    def log(text: str) -> None:
        print(text, flush=True)

    @property
    def trace_file(self) -> Path:
        """Where a traced run writes its spans and per-layer metrics."""
        return WORK / "traces" / f"{self.workload}-seed{self.seed}.json"


@dataclass
class Outcome:
    """A workload's metrics, units and operation counts."""

    metrics: dict[str, float]
    units: dict[str, str]
    attempted: int
    failed: int
    correct: bool


# ---------------------------------------------------------------- checking


def check_labels(labels, table) -> str:
    """Why ``labels`` is not a valid answer for ``table`` ('' when it is)."""
    if not isinstance(labels, list) or len(labels) != table.n_columns:
        return f"expected {table.n_columns} labels, got {labels!r:.80}"
    unknown = [label for label in labels if label not in SEMANTIC_TYPES]
    if unknown:
        return f"labels outside the type vocabulary: {unknown[:3]}"
    return ""


def scores(tables, labels) -> tuple[float, float]:
    """The paper's two scores: support-weighted and macro F1."""
    truth = [t for table in tables for t in (c.semantic_type for c in table.columns)]
    predicted = [label for table_labels in labels for label in table_labels]
    report = classification_report(truth, predicted)
    return report.weighted_f1, report.macro_f1


def timing_metrics(latencies_ms: list[float], ctx: Context, what: str) -> dict:
    ctx.log(f"latency per {what} (ms): {describe(latencies_ms, [0.5, 0.9, 0.99])}")
    return {
        "latency_p50_ms": percentile(latencies_ms, 0.5),
        "latency_p90_ms": percentile(latencies_ms, 0.9),
    }


def log_errors(ctx: Context, attempted: int, failures: list[str]) -> None:
    rate = len(failures) / attempted if attempted else 0.0
    ctx.log(f"error_rate: {rate:.4f} ({len(failures)} failed of {attempted} attempted)")
    for detail in failures[:5]:
        ctx.log(f"  failed: {detail}")


def layer_outcome(ctx, spans, background, counters, overhead, attempted, failed,
                  correct) -> Outcome:
    """Per-layer metrics of a traced window; fails below the coverage floor."""
    metrics = layer_metrics(spans, background, counters)
    metrics["trace.overhead"] = overhead
    write_trace(ctx.trace_file, spans, background, metrics)
    for name, value in metrics.items():
        ctx.log(f"{name}: {value:.6g} {unit(name)}")
    if metrics["trace.coverage"] < MIN_COVERAGE:
        raise CheckError(
            f"trace.coverage {metrics['trace.coverage']:.3f} is below {MIN_COVERAGE}: "
            "the layer spans do not explain the traced run's wall time"
        )
    return Outcome(metrics, {name: unit(name) for name in metrics}, attempted,
                   failed, correct)


def write_trace(path: Path, spans, background, metrics) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({
            "spans": [span.to_dict() for span in spans],
            "operations": [span.to_dict() for span in background],
            "metrics": metrics,
        }, handle)


def operation_spans(intervals) -> list:
    """The benchmark's own operation intervals as background spans."""
    return [
        Span(-(index + 1), None, "operation", "benchmark", "op", start, end, {})
        for index, (start, end) in enumerate(intervals)
    ]


# ----------------------------------------------------------------- serving


@dataclass
class Traffic:
    """Request ``i`` sends ``bodies[i]``, carrying ``tables[j]`` for j in ``groups[i]``."""

    path: str
    bodies: list[bytes]
    groups: list[list[int]]
    tables: list


def batch_traffic(tables, size: int) -> Traffic:
    """``/v1/predict_batch`` requests of ``size`` consecutive tables each."""
    groups = [list(range(i, min(i + size, len(tables))))
              for i in range(0, len(tables), size)]
    bodies = [
        json.dumps({"tables": [inputs.request_table(tables[i]) for i in group]}).encode()
        for group in groups
    ]
    return Traffic("/v1/predict_batch", bodies, groups, tables)


def serve_inputs(ctx: Context, hot: bool) -> tuple[Traffic, Traffic, list[bytes]]:
    """The timed traffic, the quality probe, and untimed warm-up requests."""
    seen: set = set()
    probe = batch_traffic(inputs.quality_probe(seen), COLD_BATCH)
    if hot:
        tables = inputs.realize(inputs.plan("hot", HOT_TABLES), ctx.seed, "hot", seen)
        bodies = [json.dumps({"table": inputs.request_table(t)}).encode()
                  for t in tables]
        order = random.Random(inputs.sub_seed(ctx.seed, "hot-order"))
        sequence = [order.randrange(HOT_TABLES) for _ in range(int(2000 * ctx.seconds))]
        traffic = Traffic("/v1/predict", [bodies[i] for i in sequence],
                          [[i] for i in sequence], tables)
        warmup = bodies
        ctx.log(f"inputs: {HOT_TABLES}-table working set, {len(sequence)} requests "
                f"planned, digest {inputs.digest_bytes(bodies + [bytes(sequence)])}")
    else:
        n_tables = COLD_BATCH * int(COLD_TABLES_PER_S * ctx.seconds / COLD_BATCH + 1)
        shapes = inputs.plan("serve", 500)
        traffic = batch_traffic(inputs.realize(
            [shapes[i % len(shapes)] for i in range(n_tables)], ctx.seed, "serve", seen,
        ), COLD_BATCH)
        warmup = []
        ctx.log(f"inputs: {len(traffic.bodies)} requests x {COLD_BATCH} new tables, "
                f"digest {inputs.digest_bytes(traffic.bodies)}")
    return traffic, probe, warmup


def parse_reply(traffic: Traffic, index: int, status: int, body: bytes):
    """``(ok, detail, labels per table)`` for one reply."""
    if status != 200:
        return False, f"HTTP {status}: {body[:120]!r}", None
    payload = json.loads(body)
    group = traffic.groups[index]
    if traffic.path == "/v1/predict_batch":
        results = payload.get("results")
        if not isinstance(results, list) or len(results) != len(group):
            return False, f"expected {len(group)} results", None
        labels = [result.get("labels") for result in results]
    else:
        labels = [payload.get("labels")]
    for table_labels, table_index in zip(labels, group):
        problem = check_labels(table_labels, traffic.tables[table_index])
        if problem:
            return False, problem, None
    return True, "", labels


@dataclass
class ServePhase:
    """One ``serve`` child's timed traffic, and the set-ups around it."""

    setup_s: list[float]
    loop: LoopResult
    served: dict[int, list]
    probe_labels: list
    before: dict
    after: dict
    rss_mb: float


def launch(ctx: Context, bundle: Path, traced: bool, tag: str) -> ServerProcess:
    serve_args = ["serve", "--model", str(bundle), "--port", "0"]
    if traced:
        argv = python_argv(str(ROOT / "perfbench" / "serve_child.py"),
                           str(ctx.run_dir / "serve-spans.json"), *serve_args)
    else:
        argv = python_argv("-m", "repro.cli", *serve_args)
    return ServerProcess(argv, inputs.program_env(ROOT), ROOT, ctx.run_dir, tag)


def stop(server: ServerProcess) -> None:
    code = server.stop()
    if code != 0:
        raise ServeError(f"serve exited with {code} after draining")


def serve_phase(ctx: Context, bundle: Path, traffic: Traffic, probe: Traffic,
                warmup: list[bytes], traced: bool, setups: int) -> ServePhase:
    """Time ``traffic`` on a fresh ``serve`` child, then launch ``setups - 1`` more."""
    server = launch(ctx, bundle, traced, f"serve-{int(traced)}-0")
    try:
        setup_s = [server.wait_ready()]
        # The quality probe goes first; with the warm-up requests it also
        # lets the server's lazy set-up finish before timing.
        probe_labels = []
        for index, body in enumerate(probe.bodies):
            status, reply, _ = request(server.port, "POST", probe.path, body)
            ok, detail, labels = parse_reply(probe, index, status, reply)
            if not ok:
                raise CheckError(f"quality probe request {index}: {detail}")
            probe_labels.extend(labels)
        for body in warmup:
            status, reply, _ = request(server.port, "POST", traffic.path, body)
            if status != 200:
                raise ServeError(f"warm-up request answered {status}: {reply[:200]!r}")
        before = server.metrics()
        replies: dict[int, tuple[int, bytes]] = {}
        port = server.port

        # Replies are checked after the loop: parsing them in the client
        # threads would compete with the next request for the interpreter.
        def operation(index: int):
            status, reply, interval = request(port, "POST", traffic.path,
                                              traffic.bodies[index])
            replies[index] = status, reply
            return status == 200, f"HTTP {status}", interval

        loop = closed_loop(operation, len(traffic.bodies), ctx.seconds, CLIENTS)
        after = server.metrics()
        rss_mb = peak_rss_mb(server.process.pid)
        stop(server)
    finally:
        server.kill()
    for number in range(1, setups):
        server = launch(ctx, bundle, traced, f"serve-{int(traced)}-{number}")
        try:
            setup_s.append(server.wait_ready())
            stop(server)
        finally:
            server.kill()
    if loop.exhausted:
        ctx.log("note: the planned inputs ran out before the measurement time")
    served: dict[int, list] = {}
    for sample in loop.samples:
        if sample.ok:
            sample.ok, sample.detail, labels = parse_reply(
                traffic, sample.index, *replies[sample.index])
            if sample.ok:
                served[sample.index] = labels
    return ServePhase(setup_s, loop, served, probe_labels, before, after, rss_mb)


def cache_ratios(before: dict, after: dict) -> dict:
    cache0, cache1 = before["cache"], after["cache"]

    def ratio(hits: str, misses: str) -> float:
        hit = cache1[hits] - cache0[hits]
        miss = cache1[misses] - cache0[misses]
        return hit / (hit + miss) if hit + miss else 0.0

    return {
        "feature_hit_ratio": ratio("hits", "misses"),
        "topic_hit_ratio": ratio("topic_hits", "topic_misses"),
        "queue_wait_ms_p50": after["queue_wait_ms"]["p50"],
    }


def served_tables_per_s(traffic: Traffic, phase: ServePhase) -> float:
    tables = sum(len(traffic.groups[i]) for i in phase.served)
    return tables / phase.loop.seconds


def run_serve(ctx: Context, hot: bool) -> Outcome:
    bundle = inputs.serving_bundle(ROOT, WORK, ctx.log)
    traffic, probe, warmup = serve_inputs(ctx, hot)
    if ctx.trace:
        # The untraced phase only gives trace.overhead, but its requests
        # are checked and counted like the traced ones.
        phases = [serve_phase(ctx, bundle, traffic, probe, warmup, traced, setups=1)
                  for traced in (False, True)]
    else:
        phases = [serve_phase(ctx, bundle, traffic, probe, warmup, False, SERVE_SETUPS)]
    phase = phases[-1]
    loop = phase.loop
    samples = [sample for each in phases for sample in each.loop.samples]
    attempted = len(samples)
    failures = [f"request {s.index}: {s.detail}" for s in samples if not s.ok]
    log_errors(ctx, attempted, failures)
    if not all(each.loop.samples for each in phases):
        raise CheckError("no request completed")

    # A fixed sample of served labels must match an in-process Predictor.
    predictor = Predictor.from_bundle(bundle)
    parity = True
    for each in phases:
        sample = sorted(each.served)[:8]
        sample_tables = [traffic.tables[t] for i in sample for t in traffic.groups[i]]
        got = [labels for i in sample for labels in each.served[i]]
        parity &= predictor.predict_tables(sample_tables) == got
    ctx.log(f"parity: {len(sample_tables)} served tables per phase "
            f"{'match' if parity else 'DIFFER from'} an in-process Predictor")

    counters = cache_ratios(phase.before, phase.after)
    ctx.log(f"server: feature cache hit ratio {counters['feature_hit_ratio']:.4f}, "
            f"topic cache hit ratio {counters['topic_hit_ratio']:.4f}, queue wait "
            f"p50 {counters['queue_wait_ms_p50']:.2f} ms, mean batch "
            f"{phase.after['batches']['mean_size']:.2f} tables")
    correct = parity and not failures
    if ctx.trace:
        spans = load_spans(ctx.run_dir / "serve-spans.json")
        start, end = loop.window
        overhead = served_tables_per_s(traffic, phases[0]) / served_tables_per_s(
            traffic, phase)
        return layer_outcome(
            ctx, clip(spans, start, end),
            operation_spans((s.start, s.end) for s in loop.samples),
            counters, overhead, attempted, len(failures), correct,
        )

    served_tables = [traffic.tables[t] for i in phase.served for t in traffic.groups[i]]
    weighted, macro = scores(probe.tables, phase.probe_labels)
    rows = sum(len(table.columns[0].values) for table in served_tables)
    ctx.log(f"setup_s samples: {', '.join(f'{s:.4f}' for s in phase.setup_s)}")
    metrics = {
        "setup_s": median(phase.setup_s),
        "tables_per_s": served_tables_per_s(traffic, phase),
        "rows_per_s": rows / loop.seconds,
        **timing_metrics([s.latency_ms for s in loop.samples], ctx, "request"),
        "peak_rss_mb": phase.rss_mb,
        "weighted_f1": weighted,
        "macro_f1": macro,
    }
    return Outcome(metrics, END_TO_END_UNITS, attempted, len(failures), correct)


# ----------------------------------------------------------------- offline


def run_child(ctx: Context, job: dict, tag: str) -> dict:
    """Run ``perfbench/offline.py`` on ``job``; returns its result file."""
    job = dict(job, seconds=ctx.seconds,
               result=str(ctx.run_dir / f"{tag}-result.json"),
               spans=str(ctx.run_dir / f"{tag}-spans.json"),
               records=str(ctx.run_dir / f"{tag}-records.jsonl"),
               probe_records=str(ctx.run_dir / f"{tag}-probe.jsonl"))
    job_path = ctx.run_dir / f"{tag}-job.json"
    job_path.write_text(json.dumps(job))
    stderr_path = ctx.run_dir / f"{tag}.err"
    with open(ctx.run_dir / f"{tag}.out", "wb") as out, open(stderr_path, "wb") as err:
        try:
            completed = subprocess.run(
                python_argv(str(ROOT / "perfbench" / "offline.py"), str(job_path)),
                cwd=ROOT, env=inputs.program_env(ROOT), stdout=out, stderr=err,
                stdin=subprocess.DEVNULL, timeout=30 + 3 * ctx.seconds,
            )
        except subprocess.TimeoutExpired:
            raise CheckError(f"{job['workload']} did not finish in time") from None
    if completed.returncode != 0:
        tail = "\n".join(stderr_path.read_text(errors="replace").splitlines()[-20:])
        raise CheckError(f"{job['workload']} exited with {completed.returncode}:\n{tail}")
    result = json.loads(Path(job["result"]).read_text())
    result["job"] = job
    return result


def offline_phases(ctx: Context, job: dict) -> list[dict]:
    """The measured child run; in traced runs an untraced one, then the traced one.

    The untraced run of a traced pair only gives ``trace.overhead``, but
    its operations are checked and counted like the traced ones.
    """
    if not ctx.trace:
        return [run_child(ctx, dict(job, trace=False), "measured")]
    return [run_child(ctx, dict(job, trace=traced), tag)
            for traced, tag in ((False, "untraced"), (True, "traced"))]


def offline_layers(ctx, runs, throughput, attempted, failed, correct):
    untraced, result = runs
    spans = load_spans(result["job"]["spans"])
    ops = result["ops"]
    start, end = ops[0]["start"], ops[-1]["end"]
    return layer_outcome(
        ctx, clip(spans, start, end),
        operation_spans((op["start"], op["end"]) for op in ops), {},
        throughput(untraced) / throughput(result), attempted, failed, correct,
    )


def write_csv(table, path: Path) -> None:
    """One table as CSV with neutral headers (the labels stay here)."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([f"c{index}" for index in range(table.n_columns)])
        writer.writerows(zip(*(column.values for column in table.columns)))


def write_csvs(tables, directory: Path) -> list[Path]:
    directory.mkdir()
    files = []
    for index, table in enumerate(tables):
        files.append(directory / f"table{index:03d}.csv")
        write_csv(table, files[-1])
    return files


def read_records(path: str) -> list[dict]:
    return [json.loads(line)
            for line in Path(path).read_text(encoding="utf-8").splitlines()]


def record_labels(record: dict) -> list[str]:
    return [column["predicted_type"] for column in record["columns"]]


def annotate_failures(runs, tables, files, probe) -> tuple[list[str], dict, list]:
    """Failed files over every run, each file's labels, and the probe's labels.

    Every pass over a file, in every run, must give it the same labels.
    The probe's labels come from the last run.
    """
    failures: list[str] = []
    first: dict[int, list] = {}
    for run in runs:
        records = read_records(run["job"]["records"])
        if len(records) != len(run["ops"]):
            raise CheckError(f"{len(records)} records for {len(run['ops'])} annotated files")
        for op, record in zip(run["ops"], records):
            table = tables[op["input"]]
            labels = record_labels(record)
            problem = check_labels(labels, table) or (
                "" if record["n_rows"] == len(table.columns[0].values)
                else f"n_rows {record['n_rows']}")
            if not problem and first.setdefault(op["input"], labels) != labels:
                problem = "labels changed between passes over the same file"
            if problem:
                failures.append(f"{files[op['input']].name}: {problem}")
        probe_labels = [record_labels(r) for r in read_records(run["job"]["probe_records"])]
        if len(probe_labels) != len(probe):
            raise CheckError(f"{len(probe_labels)} quality probe records for {len(probe)} files")
        problems = [problem for problem in map(check_labels, probe_labels, probe) if problem]
        if problems:
            raise CheckError(f"quality probe: {problems[0]}")
    return failures, first, probe_labels


def run_annotate(ctx: Context) -> Outcome:
    bundle = inputs.serving_bundle(ROOT, WORK, ctx.log)
    seen: set = set()
    probe = inputs.quality_probe(seen)
    tables = inputs.realize(inputs.long_shapes("annotate", ANNOTATE_FILES, *ANNOTATE_ROWS),
                            ctx.seed, "annotate", seen)
    probe_files = write_csvs(probe, ctx.run_dir / "probe")
    files = write_csvs(tables, ctx.run_dir / "tables")
    ctx.log(f"inputs: {len(files)} CSV files, "
            f"{sum(len(t.columns[0].values) for t in tables)} rows, "
            f"digest {inputs.digest_bytes(path.read_bytes() for path in files)}")
    job = {"workload": "annotate_bulk", "bundle": str(bundle),
           "files": [str(path) for path in files],
           "probe_files": [str(path) for path in probe_files]}
    runs = offline_phases(ctx, job)
    result = runs[-1]
    attempted = sum(len(run["ops"]) for run in runs)
    failures, first, probe_labels = annotate_failures(runs, tables, files, probe)
    log_errors(ctx, attempted, failures)

    smallest = min(range(len(tables)), key=lambda i: len(tables[i].columns[0].values))
    expected = Predictor.from_bundle(bundle).predict_tables([tables[smallest]])[0]
    parity = first.get(smallest) == expected
    ctx.log(f"parity: {files[smallest].name} "
            f"{'matches' if parity else 'DIFFERS from'} an in-process Predictor")
    correct = parity and not failures

    def file_ms(run) -> list[float]:
        """Each file's mean time over the passes, at the reference speed.

        The mean, like the host's speed (the mean reference piece), averages
        over the host's fast and slow moments, so the two match.
        """
        host = HostSpeed(run["host"])
        times: dict[int, list[float]] = {}
        for op in run["ops"]:
            times.setdefault(op["input"], []).append((op["end"] - op["start"]) * 1e3)
        return [host.scale(statistics.fmean(each)) for each in times.values()]

    rows = sum(len(table.columns[0].values) for table in tables)

    def rows_per_s(run) -> float:
        return rows * 1e3 / sum(file_ms(run))

    if ctx.trace:
        return offline_layers(ctx, runs, rows_per_s, attempted, len(failures), correct)
    ops = result["ops"]
    weighted, macro = scores(probe, probe_labels)
    host = HostSpeed(result["host"])
    ctx.log(host.summary())
    ctx.log(f"setup_s samples (unscaled): "
            f"{', '.join(f'{s:.4f}' for s in result['setup_s'])}; "
            f"{len(ops) // len(tables)} passes over the directory")
    metrics = {
        "setup_s": host.scale(median(result["setup_s"])),
        "tables_per_s": len(tables) * 1e3 / sum(file_ms(result)),
        "rows_per_s": rows_per_s(result),
        **timing_metrics(file_ms(result), ctx, "file"),
        "peak_rss_mb": result["peak_rss_mb"],
        "weighted_f1": weighted,
        "macro_f1": macro,
    }
    return Outcome(metrics, END_TO_END_UNITS, attempted, len(failures), correct)


def run_train(ctx: Context) -> Outcome:
    seen: set = set()
    held_out = inputs.quality_probe(seen)
    training = inputs.realize(inputs.plan("train", TRAIN_TABLES), inputs.QUALITY_SEED,
                              "train", seen)
    train_path = ctx.run_dir / "train.jsonl"
    held_out_path = ctx.run_dir / "held_out.jsonl"
    tables_to_jsonl(training, train_path)
    # The held-out split goes in as cell values only.
    tables_to_jsonl(
        [Table(columns=[Column(values=list(c.values)) for c in t.columns],
               table_id=t.table_id) for t in held_out],
        held_out_path,
    )
    digest = inputs.digest_bytes([train_path.read_bytes(), held_out_path.read_bytes()])
    ctx.log(f"inputs: {len(training)} training tables, the quality probe held out "
            f"(a fixed corpus: the seed does not change it), digest {digest}")
    job = {"workload": "train", "train": str(train_path), "held_out": str(held_out_path)}
    runs = offline_phases(ctx, job)
    result = runs[-1]

    # Every fit, in every run, must produce the same model.
    fingerprint = runs[0]["ops"][0]["fingerprint"]
    attempted = sum(len(run["ops"]) for run in runs)
    failures = [f"fit {number}: the model differs from the first fit's"
                for run in runs for number, op in enumerate(run["ops"])
                if op["fingerprint"] != fingerprint]
    log_errors(ctx, attempted, failures)
    for run in runs:
        problems = [problem for problem in map(check_labels, run["labels"], held_out)
                    if problem]
        if len(run["labels"]) != len(held_out) or problems:
            raise CheckError(f"held-out labels: {problems[:1]}")
    correct = not failures

    def fit_s(run) -> list[float]:
        host = HostSpeed(run["host"])
        return [host.scale(op["end"] - op["start"]) for op in run["ops"]]

    def fits_per_s(run):
        return 1.0 / median(fit_s(run))

    if ctx.trace:
        return offline_layers(ctx, runs, fits_per_s, attempted, len(failures), correct)
    ops = result["ops"]
    fits = fit_s(result)
    train_s = median(fits)
    rows = sum(len(table.columns[0].values) for table in training)
    weighted, macro = scores(held_out, result["labels"])
    host = HostSpeed(result["host"])
    ctx.log(host.summary())
    ctx.log(f"train_s: {train_s:.4f} s (median of {len(ops)} fits: "
            f"{', '.join(f'{s:.3f}' for s in fits)})")
    ctx.log(f"setup_s samples (unscaled): "
            f"{', '.join(f'{s:.4f}' for s in result['setup_s'])}")
    metrics = {
        "setup_s": host.scale(median(result["setup_s"])),
        "tables_per_s": len(training) / train_s,
        "rows_per_s": rows / train_s,
        **timing_metrics([s * 1e3 for s in fits], ctx, "fit"),
        "peak_rss_mb": result["peak_rss_mb"],
        "weighted_f1": weighted,
        "macro_f1": macro,
    }
    return Outcome(metrics, END_TO_END_UNITS, attempted, len(failures), correct)


RUNNERS = {
    "serve_cold": lambda ctx: run_serve(ctx, hot=False),
    "serve_hot": lambda ctx: run_serve(ctx, hot=True),
    "annotate_bulk": run_annotate,
    "train": run_train,
}
