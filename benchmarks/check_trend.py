"""Benchmark trend gate: merge tracked JSONs, fail on throughput regressions.

CI runs the hot-path benchmarks (featurization, serving, model inference),
each of which persists a machine-readable JSON under ``benchmarks/results/``.
This script turns those one-off numbers into a tracked series:

1. every metric listed in the committed baseline file
   (``benchmarks/baselines.json``) is extracted from the current results,
2. the snapshot is appended to a ``bench-history.json`` file — CI downloads
   the previous run's ``bench-history`` artifact first, so the artifact
   accumulates one entry per run,
3. the script exits non-zero if any tracked metric fell more than
   ``--max-regression`` (default 30%) below its committed baseline.

A result file whose top-level ``"gated"`` is ``false`` comes from a
benchmark that found its own bar does not apply on this host
(``fleet_scaling`` below 4 cores: four workers cannot outrun one on two
cores).  Its metrics still enter the history, but no floor applies to
them.

Tracked metrics are *speedup ratios* (batched vs loop, vectorized vs loop,
micro-batched vs batch-1), not absolute columns/sec: ratios compare a fast
path against a reference path on the same hardware, so the gate is stable
across runner generations while still catching real hot-path regressions.

Usage::

    python benchmarks/check_trend.py [--results-dir benchmarks/results]
        [--baseline benchmarks/baselines.json] [--history bench-history.json]
        [--max-regression 0.30] [--require-all]

``--require-all`` (used by CI, where every tracked benchmark has just run)
also fails when a tracked result file or metric is missing; without it,
missing entries are reported but tolerated, so the script is usable locally
after running any subset of the benchmarks.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Container
from pathlib import Path

#: Bound on stored history entries (one per CI run).
MAX_HISTORY_ENTRIES = 500


def lookup(payload: dict, dotted: str) -> float | None:
    """Resolve a dotted path (``steady.speedup``) to a number, else None."""
    node = payload
    for key in dotted.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


def collect_metrics(
    results_dir: Path, baseline: dict
) -> tuple[dict[str, float], list[str]]:
    """Extract every baselined metric from the current result files.

    Returns ``(metrics, missing)`` where ``metrics`` maps
    ``"<file stem>.<dotted path>"`` to the measured value and ``missing``
    lists baselined entries with no corresponding result.
    """
    metrics: dict[str, float] = {}
    missing: list[str] = []
    for stem, tracked in baseline.items():
        if not isinstance(tracked, dict):  # documentation keys like _comment
            continue
        path = results_dir / f"{stem}.json"
        if not path.is_file():
            missing.extend(f"{stem}.{dotted}" for dotted in tracked)
            continue
        payload = json.loads(path.read_text(encoding="utf-8"))
        for dotted in tracked:
            value = lookup(payload, dotted)
            if value is None:
                missing.append(f"{stem}.{dotted}")
            else:
                metrics[f"{stem}.{dotted}"] = value
    return metrics, missing


def ungated_stems(results_dir: Path, baseline: dict) -> set[str]:
    """Baselined result files that report ``"gated": false`` for this host."""
    stems: set[str] = set()
    for stem, tracked in baseline.items():
        path = results_dir / f"{stem}.json"
        if isinstance(tracked, dict) and path.is_file():
            payload = json.loads(path.read_text(encoding="utf-8"))
            if isinstance(payload, dict) and payload.get("gated") is False:
                stems.add(stem)
    return stems


def find_regressions(
    metrics: dict[str, float],
    baseline: dict,
    max_regression: float,
    ungated: Container[str] = frozenset(),
) -> list[str]:
    """Tracked metrics that fell more than ``max_regression`` below baseline.

    Metrics of the result files named in ``ungated`` are not checked.
    """
    failures: list[str] = []
    for stem, tracked in baseline.items():
        if not isinstance(tracked, dict) or stem in ungated:
            continue  # documentation keys like _comment, or no bar here
        for dotted, reference in tracked.items():
            key = f"{stem}.{dotted}"
            if key not in metrics:
                continue
            floor = (1.0 - max_regression) * float(reference)
            if metrics[key] < floor:
                failures.append(
                    f"{key}: {metrics[key]:.3f} < {floor:.3f} "
                    f"(baseline {float(reference):.3f}, "
                    f"tolerance {max_regression:.0%})"
                )
    return failures


def merge_history(history_path: Path, entry: dict) -> list[dict]:
    """Append one snapshot to the history file (created if absent)."""
    entries: list[dict] = []
    if history_path.is_file():
        loaded = json.loads(history_path.read_text(encoding="utf-8"))
        if isinstance(loaded, list):
            entries = loaded
    entries.append(entry)
    entries = entries[-MAX_HISTORY_ENTRIES:]
    history_path.parent.mkdir(parents=True, exist_ok=True)
    history_path.write_text(
        json.dumps(entries, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return entries


def main(argv: list[str] | None = None) -> int:
    root = Path(__file__).resolve().parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results-dir", type=Path, default=root / "results")
    parser.add_argument("--baseline", type=Path, default=root / "baselines.json")
    parser.add_argument("--history", type=Path, default=root / "bench-history.json")
    parser.add_argument("--max-regression", type=float, default=0.30)
    parser.add_argument(
        "--require-all",
        action="store_true",
        help="fail when a tracked result file or metric is missing",
    )
    args = parser.parse_args(argv)

    baseline = json.loads(args.baseline.read_text(encoding="utf-8"))
    metrics, missing = collect_metrics(args.results_dir, baseline)
    ungated = ungated_stems(args.results_dir, baseline)

    entry = {
        "sha": os.environ.get("GITHUB_SHA", ""),
        "run": os.environ.get("GITHUB_RUN_NUMBER", ""),
        "metrics": metrics,
        "ungated": sorted(ungated),
    }
    entries = merge_history(args.history, entry)
    print(f"bench-history: {len(entries)} entries ({args.history})")
    for key in sorted(metrics):
        stem = key.split(".")[0]
        note = " (no floor: bar does not apply here)" if stem in ungated else ""
        print(f"  {key} = {metrics[key]:.3f}{note}")

    status = 0
    if missing:
        for key in missing:
            print(f"missing tracked metric: {key}", file=sys.stderr)
        if args.require_all:
            status = 1
    failures = find_regressions(metrics, baseline, args.max_regression, ungated)
    for failure in failures:
        print(f"REGRESSION {failure}", file=sys.stderr)
    if failures:
        status = 1
    if status == 0:
        print("benchmark trend gate: OK")
    return status


if __name__ == "__main__":
    sys.exit(main())
