"""Fleet scaling: prefork workers over one shared-memory bundle.

The multi-worker fleet only earns its complexity if adding workers
actually multiplies columns/sec without degrading tail latency.  This
benchmark makes that a tracked number: the same closed-loop load
generator as ``test_serving_throughput.py`` (``CLIENTS`` concurrent
clients, each waiting for its response before sending the next request)
drives the same fitted Sato bundle through a
:class:`~repro.serving.ServingFleet` at two sizes —

* **1 worker** — the single-process baseline (one predictor behind the
  pipe protocol, so IPC cost is paid in both arms and the comparison
  isolates parallelism),
* **4 workers** — the fleet: four prefork processes mapping the same
  shared-memory tensor store, with fingerprint-affinity routing.

Both arms serve with ``cache_size=0`` so every request pays real
featurization + topic-inference work; with warm caches the workload
degenerates to IPC ping-pong and measures the pipe, not the fleet.
Latency is measured client-side (submit to response), so queueing,
routing and IPC are all inside the number.

The acceptance bar (gated only on machines with >= ``MIN_BAR_CORES``
cores; CI runners have 4): 4 workers must reach ``MIN_FLEET_SPEEDUP`` x
the single-worker columns/sec while client-perceived p99 stays within
``MAX_P99_RATIO`` x the single-worker p99.  Results are persisted to
``benchmarks/results/fleet_scaling.json``, with ``gated`` saying whether
the bar applied on this host; CI uploads the file as an artifact and
``check_trend.py`` gates the speedup against ``baselines.json`` where
the bar applied (four workers cannot scale on fewer cores).
"""

from __future__ import annotations

import asyncio
import os
import tempfile
import time
from pathlib import Path

import pytest

from conftest import emit, emit_json, run_once

from repro.experiments.pipeline import build_corpus, make_model_factories
from repro.obs.trace import _percentile
from repro.serving import ServingFleet, save_model
from repro.serving.scheduler import (
    DEFAULT_MAX_BATCH_SIZE,
    DEFAULT_MAX_QUEUE,
    DEFAULT_MAX_WAIT_MS,
)

#: The tentpole acceptance bar: 4 workers must serve at least this many
#: times the single-worker columns/sec on identical closed-loop load.
MIN_FLEET_SPEEDUP = 2.5

#: The bar applies only on hosts with at least this many cores: four
#: workers sharing two cores read about 0.5x, not a scaling defect.
MIN_BAR_CORES = 4

#: ...while client-perceived p99 latency stays within this factor of the
#: single-worker p99 (with a floor so a microsecond baseline cannot make
#: the ratio meaninglessly strict).
MAX_P99_RATIO = 1.5
P99_FLOOR_MS = 5.0

#: Closed-loop load shape: each client has one request in flight at a time.
CLIENTS = 32
REQUESTS_PER_CLIENT = 6

FLEET_SIZES = (1, 4)


def _closed_loop(bundle_path: Path, tables, n_workers: int) -> dict:
    """Drive one fleet size with the closed-loop load generator."""

    async def client(fleet: ServingFleet, index: int, latencies: list) -> int:
        table = tables[index % len(tables)]
        columns = 0
        for _ in range(REQUESTS_PER_CLIENT):
            started = time.perf_counter()
            labels = await fleet.submit(table)
            latencies.append(time.perf_counter() - started)
            columns += len(labels)
        return columns

    async def run() -> tuple[int, float, list, dict]:
        fleet = ServingFleet(
            n_workers,
            bundle_path=str(bundle_path),
            cache_size=0,  # pay real per-request work; see module docstring
            max_batch_size=DEFAULT_MAX_BATCH_SIZE,
            max_wait_ms=DEFAULT_MAX_WAIT_MS,
            max_queue=DEFAULT_MAX_QUEUE,
            # Sized so a hot worker saturates at its fair share of the
            # closed-loop load and the excess spills to its ring
            # neighbours — few serve tables hash unevenly, and without
            # spill the skewed worker would bound the whole fleet.
            worker_queue=max(8, CLIENTS // n_workers),
        )
        await fleet.start()
        try:
            # Warm every worker's engine memos outside the timed window
            # (chunked so warmup stays inside the admission bound).
            for start in range(0, len(tables), CLIENTS // 2):
                chunk = tables[start : start + CLIENTS // 2]
                await asyncio.gather(*[fleet.submit(table) for table in chunk])
            latencies: list = []
            started = time.perf_counter()
            counts = await asyncio.gather(
                *[client(fleet, index, latencies) for index in range(CLIENTS)]
            )
            elapsed = time.perf_counter() - started
            stats = await fleet.fleet_metrics()
        finally:
            await fleet.drain()
        return sum(counts), elapsed, latencies, stats

    columns, elapsed, latencies, stats = asyncio.run(run())
    n_requests = CLIENTS * REQUESTS_PER_CLIENT
    assert len(latencies) == n_requests  # closed loop: no drops
    ordered = sorted(latencies)
    return {
        "n_workers": n_workers,
        "n_requests": n_requests,
        "n_columns": columns,
        "seconds": elapsed,
        "columns_per_sec": columns / max(elapsed, 1e-9),
        "requests_per_sec": n_requests / max(elapsed, 1e-9),
        "latency_ms": {
            "p50": _percentile(ordered, 0.50) * 1e3,
            "p95": _percentile(ordered, 0.95) * 1e3,
            "p99": _percentile(ordered, 0.99) * 1e3,
            "max": ordered[-1] * 1e3,
        },
        "routing": stats["routing"],
        "alive": stats["alive"],
        "restarts": stats["restarts"],
    }


def _scaling_comparison(config) -> dict:
    dataset = build_corpus(config)
    tables = dataset.multi_column().tables
    split = max(1, int(len(tables) * 0.8))
    train, serve = tables[:split], tables[split:] or tables[:1]
    model = make_model_factories(config)["Sato"]().fit(train)

    with tempfile.TemporaryDirectory(prefix="repro-fleet-bench-") as tmp:
        bundle = save_model(model, Path(tmp) / "bundle")
        arms = {
            f"workers_{n}": _closed_loop(bundle, serve, n)
            for n in FLEET_SIZES
        }

    one, four = arms["workers_1"], arms[f"workers_{FLEET_SIZES[-1]}"]
    return {
        "clients": CLIENTS,
        "requests_per_client": REQUESTS_PER_CLIENT,
        "n_serve_tables": len(serve),
        "cpu_count": os.cpu_count(),
        "gated": (os.cpu_count() or 1) >= MIN_BAR_CORES,
        **arms,
        "speedup_columns_per_sec": (
            four["columns_per_sec"] / max(one["columns_per_sec"], 1e-9)
        ),
        "p99_ratio": (
            four["latency_ms"]["p99"]
            / max(one["latency_ms"]["p99"], P99_FLOOR_MS)
        ),
    }


def test_fleet_scaling(benchmark, config):
    result = run_once(benchmark, _scaling_comparison, config)

    def line(name: str, cell: dict) -> str:
        return (
            f"  {name:<22s}: {cell['seconds']:7.3f}s "
            f"({cell['columns_per_sec']:>9,.0f} columns/sec, "
            f"{cell['requests_per_sec']:>7,.0f} req/sec, "
            f"p99 {cell['latency_ms']['p99']:.1f}ms, "
            f"affinity {cell['routing']['affinity_hits']}, "
            f"spills {cell['routing']['spills']})"
        )

    lines = [
        "Fleet scaling: closed loop, "
        f"{CLIENTS} clients x {REQUESTS_PER_CLIENT} requests, uncached",
        line("1 worker", result["workers_1"]),
        line(f"{FLEET_SIZES[-1]} workers", result[f"workers_{FLEET_SIZES[-1]}"]),
        f"  speedup               : {result['speedup_columns_per_sec']:.2f}x "
        f"columns/sec, p99 ratio {result['p99_ratio']:.2f} "
        f"({result['cpu_count']} cores)",
    ]
    emit("fleet_scaling", "\n".join(lines))
    emit_json("fleet_scaling", result)

    # No worker may have crashed (a restart would hide a serving gap).
    for n in FLEET_SIZES:
        assert result[f"workers_{n}"]["alive"] == n
        assert result[f"workers_{n}"]["restarts"] == 0

    if not result["gated"]:
        pytest.skip(
            f"fleet scaling bar needs >= {MIN_BAR_CORES} cores "
            f"(this machine has {os.cpu_count()}); numbers were still emitted"
        )

    # The acceptance bar: 4 workers must multiply throughput...
    assert result["speedup_columns_per_sec"] >= MIN_FLEET_SPEEDUP
    # ...without degrading client-perceived tail latency.
    four_p99 = result[f"workers_{FLEET_SIZES[-1]}"]["latency_ms"]["p99"]
    one_p99 = result["workers_1"]["latency_ms"]["p99"]
    assert four_p99 <= MAX_P99_RATIO * max(one_p99, P99_FLOOR_MS)
