"""Seeded inputs for every workload, and the model the workloads serve.

Inputs are drawn in two steps.  A *plan* fixes each table's shape (its
semantic types, in column order, and its row count); it comes from the
corpus generator under a constant seed, so every run measures the same
mix of shapes.  The run's ``--seed`` then draws every cell value, so two
seeds give different tables of the same shapes.  Throughput depends far
more on shapes (columns, rows, tokens) than on values, which keeps the
spread across seeds small without fixing the inputs.

Quality is scored on one *probe* drawn the same way under a constant
seed, so a score moves only when the program's labels move, never with
``--seed``.  The ``train`` workload fits on a fixed corpus as well and
scores on the same probe, so its scores compare across runs too.

Every table the program sees is new within a run: a table whose content
repeats an earlier table or column is drawn again with the next sub-seed.
The corpus generator lives in ``repro.corpus``, so a change there changes
every workload's inputs (the printed digests show it).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, replace
from pathlib import Path

from repro.corpus import CorpusConfig, CorpusGenerator
from repro.corpus.schemas import ColumnSlot, TableSchema
from repro.tables import Table
from repro.types import SEMANTIC_TYPES

#: The served model is ``repro-sato train`` at its defaults (the full Sato
#: variant, 24 topics, 16 inference sweeps) on ``repro-sato generate`` with
#: these arguments.  160 tables keep most traffic tokens inside the LDA
#: dictionary; a 70-table corpus would understate topic cost.
MODEL_CORPUS = ["--n-tables", "160", "--seed", "1701"]


#: Seed of the quality probe and of the ``train`` corpus.
QUALITY_SEED = 20200831
#: The quality probe: this many short multi-column tables, then one-column
#: tables until every type has :data:`PROBE_SUPPORT` columns (478 tables
#: and 1131 columns in all).
PROBE_TABLES = 280
PROBE_SUPPORT = 10


@dataclass(frozen=True)
class Shape:
    """One planned table: its column types and its row count."""

    types: tuple[str, ...]
    n_rows: int


def sub_seed(*parts) -> int:
    """A 63-bit seed derived from ``parts`` (stable across processes)."""
    digest = hashlib.blake2b(repr(parts).encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


def plan(purpose: str, count: int, **config) -> list[Shape]:
    """``count`` table shapes from the generator under a constant seed."""
    generator = CorpusGenerator(
        CorpusConfig(n_tables=count, seed=sub_seed("plan", purpose), **config)
    )
    return [
        Shape(
            tuple(column.semantic_type for column in table.columns),
            table.metadata["n_rows"],
        )
        for table in generator.generate()
    ]


def realize(shapes: list[Shape], seed: int, purpose: str,
            seen: set | None = None) -> list[Table]:
    """Draw every cell of every planned table from ``seed``.

    No table repeats a column (by values) of an earlier table, or of any
    column in ``seen`` (which is updated), so served tables miss every
    content-keyed cache.
    """
    seen = set() if seen is None else seen
    tables = []
    for index, shape in enumerate(shapes):
        schema = TableSchema(
            name=f"{purpose}-{index}",
            slots=tuple(ColumnSlot(semantic_type) for semantic_type in shape.types),
            min_columns=1,
        )
        for attempt in range(100):
            config = CorpusConfig(
                n_tables=1,
                min_rows=shape.n_rows,
                max_rows=shape.n_rows,
                singleton_rate=0.0,
                seed=sub_seed(seed, purpose, index, attempt),
            )
            table = CorpusGenerator(config, schemas=(schema,)).generate_table(
                table_id=f"{purpose}{index:05d}"
            )
            keys = [tuple(column.values) for column in table.columns]
            if not seen.intersection(keys):
                seen.update(keys)
                tables.append(table)
                break
        else:
            raise RuntimeError(f"cannot draw a new table for {purpose} #{index}")
    return tables


def long_shapes(purpose: str, count: int, low: int, high: int) -> list[Shape]:
    """``count`` multi-column shapes with row counts spread over [low, high]."""
    base = plan(purpose, count, singleton_rate=0.0)
    rows = [low + round(i * (high - low) / max(1, count - 1)) for i in range(count)]
    order = sorted(range(count), key=lambda i: sub_seed(purpose, "order", i))
    return [replace(base[i], n_rows=rows[j]) for j, i in enumerate(order)]


def quality_probe(seen: set | None = None) -> list[Table]:
    """The tables on which every workload's scores are measured.

    They are the same in every run, whatever ``--seed`` is, so a score
    moves only when the program's labels do.  With over 1000 columns and
    every type at least :data:`PROBE_SUPPORT` times, one flipped label
    moves either score by under 0.5% of its value.  Rows stay short (4 to
    10) to keep the probe cheap, since topic inference costs grow with a
    table's tokens.
    """
    shapes = plan("probe", PROBE_TABLES, singleton_rate=0.0, max_rows=10)
    support = Counter(t for shape in shapes for t in shape.types)
    for semantic_type in SEMANTIC_TYPES:
        for _ in range(PROBE_SUPPORT - support[semantic_type]):
            rows = shapes[len(shapes) % PROBE_TABLES].n_rows
            shapes.append(Shape((semantic_type,), rows))
    return realize(shapes, QUALITY_SEED, "probe", seen)


def request_table(table: Table) -> dict:
    """The wire form of a table: cell values only (no headers, no labels)."""
    return {"columns": [{"values": list(column.values)} for column in table.columns]}


def digest_bytes(chunks) -> str:
    """Short SHA-256 digest over a sequence of byte strings."""
    hasher = hashlib.sha256()
    for chunk in chunks:
        hasher.update(len(chunk).to_bytes(8, "big"))
        hasher.update(chunk)
    return hasher.hexdigest()[:16]


def source_digest(src: Path) -> str:
    """Digest of every file under ``src`` (paths and contents)."""
    hasher = hashlib.sha256()
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            hasher.update(str(path.relative_to(src)).encode("utf-8") + b"\0")
            hasher.update(path.read_bytes())
    return hasher.hexdigest()[:16]


def serving_bundle(root: Path, cache: Path, log) -> Path:
    """The trained bundle every serving/annotate workload uses.

    Built once per version of ``src/`` and of :data:`MODEL_CORPUS` (the
    cache key is a digest of both) through the real CLI, then reused; a
    bundle from another code version is never reused.
    """
    key = hashlib.sha256(
        (source_digest(root / "src") + json.dumps(MODEL_CORPUS)).encode()
    ).hexdigest()[:16]
    bundle = cache / f"model-{key}"
    if (bundle / "manifest.json").is_file():
        return bundle
    cache.mkdir(parents=True, exist_ok=True)
    staging = cache / f"staging-{key}-{os.getpid()}"
    shutil.rmtree(staging, ignore_errors=True)
    staging.mkdir()
    env = program_env(root)
    started = time.monotonic()
    try:
        corpus = str(staging / "corpus.jsonl")
        for command, args in (
            ("generate", [*MODEL_CORPUS, "--out", corpus]),
            ("train", ["--corpus", corpus, "--out", str(staging / "model")]),
        ):
            with open(staging / f"{command}.log", "wb") as output:
                completed = subprocess.run(
                    [sys.executable, "-m", "repro.cli", command, *args],
                    cwd=root, env=env, stdout=output, stderr=subprocess.STDOUT,
                    timeout=900,
                )
            if completed.returncode != 0:
                tail = (staging / f"{command}.log").read_text(errors="replace")[-2000:]
                raise RuntimeError(f"repro-sato {command} failed:\n{tail}")
        try:
            os.replace(staging / "model", bundle)
        except OSError:
            if not (bundle / "manifest.json").is_file():
                raise
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    log(f"trained the served model in {time.monotonic() - started:.1f}s ({bundle.name})")
    return bundle


def program_env(root: Path) -> dict:
    """Environment for child processes that run the program from source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src"), str(root)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env
