"""Run one benchmark workload against the program and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve_cold --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs the same
workload untraced and then traced, and prints the per-layer metrics.  The
report goes to standard output; its last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any failure to
run or check the program exits non-zero without that line.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("serve_cold", "serve_hot", "annotate_bulk", "train")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import numpy

    from perfbench import workloads

    run_dir = workloads.WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ctx = workloads.Context(args.workload, args.seed, args.seconds, bool(args.trace),
                            run_dir)
    ctx.log(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
            f"trace={args.trace}")
    ctx.log(f"environment: nproc={os.cpu_count()} python={platform.python_version()} "
            f"numpy={numpy.__version__}")
    started = time.monotonic()
    try:
        outcome = workloads.RUNNERS[args.workload](ctx)
    except Exception as error:
        print(f"perfbench: {args.workload} failed: {type(error).__name__}: {error}",
              file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if not ctx.trace:
        for name, value in outcome.metrics.items():
            ctx.log(f"{name}: {value:.6g} {outcome.units[name]}")
    ctx.log(f"run took {time.monotonic() - started:.1f}s; correct={outcome.correct}")
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": outcome.units[name]}
            for name, value in outcome.metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
