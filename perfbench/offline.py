"""The offline workloads, each run in a process of its own.

``python -u perfbench/offline.py JOB.json`` runs ``annotate_bulk`` or
``train`` as the job file describes and writes a result file next to it:
set-up times, one record per operation, the reference-piece timings, the
process's peak RSS, and (when traced) the spans.  A process of its own keeps the benchmark's input
generation out of the peak-memory figure.

* ``annotate_bulk`` follows the path ``repro-sato annotate`` drives: an
  ingest adapter streams each CSV file in chunks into
  ``StreamingAnnotator``, and every record is written out as JSON.
* ``train`` fits the full Sato variant at the ``repro-sato train``
  defaults as often as the time allows, then labels the held-out split
  with the last fit (every fit must produce the same model).

Each pass over the directory, and each fit, starts with a set-up of its
own, as one ``repro-sato`` command would, so the set-up times sample the
whole run rather than its first instant.  Reference pieces are timed
before and after every set-up, file and fit (see ``perfbench.hostspeed``).
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from perfbench.hostspeed import HostSpeed
from perfbench.layers import ANNOTATE, INGEST_READ, TRAIN
from perfbench.serve import peak_rss_mb
from perfbench.trace import Recorder, install
from repro.experiments import ExperimentConfig
from repro.experiments.pipeline import make_model_factories
from repro.ingest import StreamingAnnotator, adapter_for
from repro.serving import load_model
from repro.serving.bundle import model_fingerprint
from repro.tables import tables_from_jsonl


def timed(setups: list[float], set_up, host: HostSpeed):
    """Call ``set_up``, append its duration to ``setups``, then sample ``host``."""
    started = time.monotonic()
    result = set_up()
    setups.append(time.monotonic() - started)
    host.sample()
    return result


def annotate(job: dict, recorder, host: HostSpeed) -> dict:
    setups: list[float] = []

    def set_up() -> StreamingAnnotator:
        return StreamingAnnotator(load_model(job["bundle"]))

    chunk_rows = ExperimentConfig().ingest_chunk_rows

    def annotate_file(annotator, path: Path, out) -> int:
        rows = 0
        for stream in adapter_for(path).streams(path, chunk_rows):
            if recorder is not None:
                stream = replace(stream, chunks=recorder.iterate(
                    stream.chunks, INGEST_READ, "ingest", "read",
                    meta=lambda chunk: {"rows": chunk.n_rows},
                ))
            record = annotator.annotate_stream(stream)
            rows += record["n_rows"]
            out.write(json.dumps(record, ensure_ascii=False))
            out.write("\n")
        return rows

    # The quality probe goes first; it also warms the path up.
    annotator = timed(setups, set_up, host)
    with open(job["probe_records"], "w", encoding="utf-8") as out:
        for path in job["probe_files"]:
            annotate_file(annotator, Path(path), out)
    host.sample()
    files = [Path(path) for path in job["files"]]
    ops = []
    deadline = time.monotonic() + job["seconds"]
    # Whole passes over the directory, so every file is timed as often as
    # the others whatever the speed.
    with open(job["records"], "w", encoding="utf-8") as out:
        while not ops or time.monotonic() < deadline:
            annotator = timed(setups, set_up, host)
            for index, path in enumerate(files):
                started = time.monotonic()
                rows = annotate_file(annotator, path, out)
                ops.append({"input": index, "start": started,
                            "end": time.monotonic(), "rows": rows})
                host.sample()
    return {"setup_s": setups, "ops": ops}


def train(job: dict, recorder, host: HostSpeed) -> dict:
    setups: list[float] = []

    def set_up():
        return tables_from_jsonl(job["train"]), tables_from_jsonl(job["held_out"])

    build = make_model_factories(ExperimentConfig(nn_epochs=15))["Sato"]
    ops = []
    deadline = time.monotonic() + job["seconds"]
    while not ops or time.monotonic() < deadline:
        training, held_out = timed(setups, set_up, host)
        started = time.monotonic()
        model = build().fit(training)
        ops.append({"input": 0, "start": started, "end": time.monotonic(),
                    "fingerprint": model_fingerprint(model)})
        host.sample()
    return {"setup_s": setups, "ops": ops,
            "labels": model.predict_tables(held_out)}


WORKLOADS = {"annotate_bulk": annotate, "train": train}


def main(argv: list[str]) -> int:
    job_path = Path(argv[0])
    job = json.loads(job_path.read_text())
    recorder = None
    if job["trace"]:
        recorder = Recorder()
        install(recorder, ANNOTATE if job["workload"] == "annotate_bulk" else TRAIN)
    host = HostSpeed()
    host.sample()
    result = WORKLOADS[job["workload"]](job, recorder, host)
    result["peak_rss_mb"] = peak_rss_mb()
    result["host"] = host.samples
    if recorder is not None:
        recorder.dump(job["spans"])
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
