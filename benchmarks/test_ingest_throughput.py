"""Bulk-ingest throughput and bounded-memory check.

Generates a CSV with a *bounded distinct-value domain* (accumulator state
is O(distinct values), not O(rows)), then ingests it through the real
streaming path — ``repro.ingest`` adapters folding chunks into
``ColumnAccumulator``s, then each finished accumulator's Char and Stat
vectors (``ColumnAccumulator.finalize``, where that work happens) — in a
child process that reports rows/sec and its own peak RSS
(``resource.getrusage``).  Two runs, 10k rows vs 100k rows:
peak RSS must be essentially independent of row count, which is the whole
point of the chunked-table core.  Results land in
``benchmarks/results/ingest.json`` (CI's ``ingest-throughput`` artifact);
``check_trend.py`` gates ``ingest.rows_per_sec`` against ``baselines.json``.

Row counts are deliberately preset-independent: the RSS comparison needs
both runs every time, and 100k rows streams in seconds at any preset.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

from conftest import emit, emit_json, run_once

import repro

SMALL_ROWS = 10_000
LARGE_ROWS = 100_000
CHUNK_ROWS = 4096
#: 10x the rows may cost at most 30% more peak RSS (interpreter + numpy
#: dominate; accumulator state is bounded by the distinct-value domain).
MAX_RSS_RATIO = 1.30

#: Runs inside a fresh interpreter so ``ru_maxrss`` measures only this
#: workload: ingest the CSV, fold every chunk into column accumulators,
#: compute each column's Char and Stat vectors, report throughput and
#: peak RSS as one JSON line.
_CHILD = """
import json, resource, sys, time
from repro.features import ColumnAccumulator
from repro.ingest import open_source

path, chunk_rows = sys.argv[1], int(sys.argv[2])
start = time.perf_counter()
rows = 0
for stream in open_source(path, chunk_rows):
    accumulators = [
        ColumnAccumulator(max_tokens=128) for _ in range(stream.n_columns)
    ]
    for chunk in stream.chunks:
        for accumulator, values in zip(accumulators, chunk.columns):
            accumulator.partial_fit(values)
        rows += chunk.n_rows
    for accumulator in accumulators:
        accumulator.finalize()
elapsed = time.perf_counter() - start
print(json.dumps({
    "rows": rows,
    "seconds": elapsed,
    "rows_per_sec": rows / max(elapsed, 1e-9),
    "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
}))
"""


def write_corpus_csv(path: Path, n_rows: int) -> None:
    cities = [f"city{i}" for i in range(50)]
    amounts = [f"{i * 37 % 9973}.{i % 100:02d}" for i in range(100)]
    codes = [f"AB-{i:03d}" for i in range(30)]
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["city", "amount", "code"])
        for i in range(n_rows):
            writer.writerow(
                [cities[i % 50], amounts[i % 100], codes[i % 30]]
            )


def ingest_in_child(path: Path) -> dict:
    env = dict(os.environ)
    src_root = str(Path(repro.__file__).parents[1])
    env["PYTHONPATH"] = src_root + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run(
        [sys.executable, "-c", _CHILD, str(path), str(CHUNK_ROWS)],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    return json.loads(result.stdout)


def _measure(tmp_path: Path) -> dict:
    runs = {}
    for label, n_rows in [("small", SMALL_ROWS), ("large", LARGE_ROWS)]:
        path = tmp_path / f"{label}.csv"
        write_corpus_csv(path, n_rows)
        runs[label] = ingest_in_child(path)
    return runs


def test_ingest_throughput(benchmark, tmp_path):
    runs = run_once(benchmark, _measure, tmp_path)
    small, large = runs["small"], runs["large"]

    assert small["rows"] == SMALL_ROWS
    assert large["rows"] == LARGE_ROWS
    rss_ratio = large["peak_rss_kb"] / small["peak_rss_kb"]
    assert rss_ratio <= MAX_RSS_RATIO, (
        f"peak RSS grew {rss_ratio:.2f}x for 10x the rows — streaming "
        f"ingest is no longer bounded-memory "
        f"({small['peak_rss_kb']} kB -> {large['peak_rss_kb']} kB)"
    )

    lines = [
        f"{'run':<8} {'rows':>8} {'rows/sec':>12} {'peak RSS kB':>12}",
        *(
            f"{label:<8} {run['rows']:>8d} {run['rows_per_sec']:>12.0f} "
            f"{run['peak_rss_kb']:>12d}"
            for label, run in runs.items()
        ),
        f"peak-RSS ratio (large/small): {rss_ratio:.3f} "
        f"(bound {MAX_RSS_RATIO})",
    ]
    emit("ingest", "\n".join(lines))
    emit_json(
        "ingest",
        {
            "rows_per_sec": large["rows_per_sec"],
            "rows": large["rows"],
            "seconds": large["seconds"],
            "peak_rss_small_kb": small["peak_rss_kb"],
            "peak_rss_large_kb": large["peak_rss_kb"],
            "rss_ratio": rss_ratio,
        },
    )
