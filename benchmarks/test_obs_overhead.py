"""Tracing overhead contract: the always-on tracer must stay under 5%.

The observability layer (``repro.obs``) is designed to be left on in
production — per-stage spans on every micro-batch, bounded-window
aggregates on every request.  That claim is enforced here, not asserted in
a docstring: the same serving-shaped workload (distinct tables, warm
model, ``predict_tables`` in micro-batch slices plus the JSON encode the
HTTP server pays) runs with the process tracer enabled and disabled in
*alternating* rounds, best-of each arm, so CPU-frequency drift hits both
arms equally.  Within a round the two arms take turns pass by pass, and
each arm replays the corpus often enough to add up to
:data:`MIN_SIDE_SECONDS`, so a host that slows for a second slows both
arms alike.  ``traced_vs_untraced`` is the throughput ratio (1.0 = free;
the in-test gate is :data:`MIN_TRACED_RATIO`).

The same run exercises the profiling CLI end to end: the replayed corpus
goes through :func:`repro.obs.profile_predictor` and the report must
attribute at least :data:`MIN_COVERAGE` of measured wall time to the
top-level pipeline stages — a profile that cannot account for its own
wall time is lying by omission.

Results land in ``benchmarks/results/obs_overhead.json`` and
``benchmarks/results/profile_report.json`` (CI's ``profile-report``
artifact); ``check_trend.py`` gates ``obs_overhead.traced_vs_untraced``
against ``baselines.json``.
"""

from __future__ import annotations

import math
import os
import time

from conftest import emit, emit_json, run_once

from repro.corpus import CorpusConfig, CorpusGenerator
from repro.experiments.pipeline import build_corpus, make_model_factories
from repro.obs import get_tracer, profile_predictor, render_flame, set_enabled
from repro.serving import Predictor

#: The tentpole contract: tracing may cost at most 5% throughput.
MIN_TRACED_RATIO = 0.95

#: The profile report must explain at least this fraction of wall time.
MIN_COVERAGE = 0.90

#: Alternating traced/untraced rounds (best-of per arm).
ROUNDS = 3

#: Timed work per arm and round.  One pass over the tiny preset's corpus
#: takes only 20-40 ms, and timing one pass per arm failed 4 of 25 runs on
#: a 2-vCPU VM; so did timing 1 s of passes in one block per arm.
MIN_SIDE_SECONDS = 0.5

BATCH_SIZE = 8

#: Serving corpus sizes per preset: distinct tables with realistic row
#: counts, so the measured work is featurization/forward-bound (the regime
#: the <=5% contract is about) rather than span bookkeeping on near-empty
#: batches.
N_TABLES = {"tiny": 48, "fast": 160, "large": 400}


def _serving_corpus(preset: str):
    config = CorpusConfig(
        n_tables=N_TABLES.get(preset, 160), min_rows=40, max_rows=80, seed=11
    )
    return CorpusGenerator(config).generate()


def _replay(predictor, tables) -> float:
    """One serving-shaped pass: micro-batch slices + the JSON encode."""
    import json

    started = time.perf_counter()
    for offset in range(0, len(tables), BATCH_SIZE):
        batch = tables[offset : offset + BATCH_SIZE]
        labels = predictor.predict_tables(batch)
        for table_labels in labels:
            json.dumps({"labels": table_labels})
    return time.perf_counter() - started


def _overhead_comparison(config) -> dict:
    dataset = build_corpus(config)
    multi = [t for t in dataset.tables if t.n_columns > 1]
    model = make_model_factories(config)["Base"]()
    model.fit(multi)
    predictor = Predictor(model, cache_size=1)  # no cache: measure real work

    preset = os.environ.get("REPRO_BENCH_PRESET", "fast").lower()
    serve = _serving_corpus(preset)
    n_columns = sum(t.n_columns for t in serve)

    _replay(predictor, serve)  # warm imports/allocators
    replays = math.ceil(MIN_SIDE_SECONDS / _replay(predictor, serve))
    tracer = get_tracer()
    was_enabled = tracer.enabled
    best = {True: float("inf"), False: float("inf")}
    try:
        for _ in range(ROUNDS):
            seconds = {True: 0.0, False: 0.0}
            for _ in range(replays):
                for enabled in (False, True):
                    set_enabled(enabled)
                    tracer.reset()
                    seconds[enabled] += _replay(predictor, serve)
            for enabled, total in seconds.items():
                best[enabled] = min(best[enabled], total)
    finally:
        set_enabled(was_enabled)
        tracer.reset()

    ratio = best[False] / max(best[True], 1e-9)
    report = profile_predictor(
        predictor, serve, batch_size=BATCH_SIZE, suite=f"generated:{preset}"
    )
    return {
        "preset": preset,
        "n_tables": len(serve),
        "n_columns": n_columns,
        "rounds": ROUNDS,
        "replays": replays,
        "batch_size": BATCH_SIZE,
        "untraced_seconds": best[False],
        "traced_seconds": best[True],
        "traced_vs_untraced": ratio,
        "overhead_fraction": max(0.0, 1.0 - ratio),
        "profile_report": report,
    }


def test_obs_overhead_and_profile_coverage(benchmark, config):
    result = run_once(benchmark, _overhead_comparison, config)
    report = result.pop("profile_report")

    emit_json("obs_overhead", result)
    emit_json("profile_report", report)
    emit(
        "obs_overhead",
        "\n".join(
            [
                "observability overhead "
                f"({result['n_tables']} tables / {result['n_columns']} columns, "
                f"best of {result['rounds']} alternating rounds of "
                f"{result['replays']} passes per arm):",
                f"  untraced: {result['untraced_seconds']:7.3f}s",
                f"  traced  : {result['traced_seconds']:7.3f}s",
                f"  ratio   : {result['traced_vs_untraced']:7.3f} "
                f"(overhead {result['overhead_fraction'] * 100:.1f}%)",
                "",
                render_flame(report),
            ]
        ),
    )

    assert result["traced_vs_untraced"] >= MIN_TRACED_RATIO, (
        f"tracing costs {result['overhead_fraction'] * 100:.1f}% "
        f"(contract: <= {(1 - MIN_TRACED_RATIO) * 100:.0f}%)"
    )
    assert report["coverage"] >= MIN_COVERAGE, (
        f"profile explains only {report['coverage'] * 100:.1f}% of wall time"
    )
