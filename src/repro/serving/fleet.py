"""Prefork serving fleet: N workers, one shared copy of the weights.

A single serving process is bounded by the GIL: featurization, LDA
inference and the column-network forward are pure-Python/NumPy work, so
one process saturates one core.  :class:`ServingFleet` scales the serving
layer across cores without multiplying its memory footprint:

* **Shared-memory bundles** — the parent packs the bundle's tensors once
  into a file-backed store under ``/dev/shm``
  (:mod:`repro.serving.shm`); every worker maps it read-only, so the
  fleet holds one physical copy of the weights regardless of worker
  count.
* **Prefork workers** — each worker is a real OS process owning a full
  :class:`~repro.serving.Predictor` (feature cache, topic cache,
  micro-batching) over the shared tensors, fed over a duplex pipe.
* **Fingerprint-affinity routing** — the front end routes each table by
  a consistent hash of its column-content fingerprints
  (:class:`HashRing`), so repeated traffic over the same tables lands on
  the same worker and its LRU caches stay hot.  When the preferred
  worker's queue is full the request *spills* to the next live worker on
  the ring instead of being refused.
* **Fleet-wide convergence** — promoting a registry version swaps every
  worker in two phases (``prepare`` stages the new model next to the old
  one on every worker; ``commit`` flips them), so a rolling promote
  never leaves the fleet half-old/half-new for longer than one batch and
  no single batch ever mixes model versions (each worker commits under
  its predictor's swap lock, between batches).
* **Supervision** — a crashed worker fails its in-flight requests, is
  respawned from the *current* bundle/store (post-promote state, not
  boot state), and the fleet keeps serving on the survivors meanwhile.

The fleet quacks like both halves of the single-process serving stack:
it has the :class:`~repro.serving.Predictor` identity surface
(``model_version`` / ``fingerprint`` / ``swap_count`` / ``close``) *and*
the :class:`~repro.serving.scheduler.MicroBatcher` scheduling surface
(``start`` / ``submit_traced`` / ``drain`` / ``pending``), so
:class:`~repro.serving.server.ServingServer` serves a fleet by being
handed one object as both ``predictor`` and ``batcher``.
"""

from __future__ import annotations

import asyncio
import bisect
import hashlib
import itertools
import multiprocessing
import os
import shutil
import signal
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

from repro.obs import get_tracer
from repro.serving.predictor import Predictor
from repro.serving.scheduler import (
    DEFAULT_MAX_BATCH_SIZE,
    DEFAULT_MAX_QUEUE,
    DEFAULT_MAX_WAIT_MS,
    DrainingError,
    QueueFullError,
    ServingMetrics,
    _Pending,
    dispatch_batch,
)
from repro.serving.shm import (
    default_store_dir,
    load_model_shared,
    pack_bundle,
    remove_store,
)
from repro.tables import Table

__all__ = [
    "DEFAULT_RING_REPLICAS",
    "FleetError",
    "HashRing",
    "ServingFleet",
    "WorkerSpec",
    "table_routing_key",
]

#: Virtual nodes per worker on the consistent-hash ring.  Enough that the
#: keyspace splits near-evenly across a handful of workers; cheap enough
#: that ring construction is instant.
DEFAULT_RING_REPLICAS = 64

#: Seconds the parent waits for a freshly spawned worker to report ready
#: (imports + bundle manifest read + shared-store mmap).
SPAWN_TIMEOUT_SECONDS = 120.0

#: Reserved request id for the one unsolicited message a worker ever
#: sends: its readiness report.  Real requests count from 1.
_READY_ID = 0


class FleetError(RuntimeError):
    """The fleet cannot serve (not started, no live workers, bad spec)."""


# --------------------------------------------------------------------- routing


def table_routing_key(table: Table) -> int:
    """Stable 64-bit routing key: the first 8 bytes of the table fingerprint.

    The table fingerprint (:attr:`~repro.tables.Table.fingerprint`) is the
    one the predictor's topic cache is keyed on, so two requests that
    would hit the same cache entries hash to the same key — and therefore
    (via :class:`HashRing`) to the same worker.  Headers and table ids are
    excluded, exactly like the cache keys.  Routing hashes each column
    once: the fingerprints ride to the worker inside the pickled frame.
    """
    return int(table.fingerprint[:16], 16)


class HashRing:
    """Consistent hashing over worker ids with virtual nodes.

    Keys are 64-bit integers; each worker owns ``replicas`` points on the
    ring.  :meth:`lookup` gives the preferred owner; :meth:`walk` yields
    every worker in ring order starting from the preferred owner, which
    is the spill order when queues fill up.  Adding or removing one
    worker moves only ~1/N of the keyspace, so cache locality survives
    fleet resizes and worker restarts.

    Examples:
        >>> ring = HashRing([0, 1, 2])
        >>> ring.lookup(1234) in (0, 1, 2)
        True
        >>> ring.lookup(1234) == ring.lookup(1234)   # deterministic
        True
        >>> sorted(ring.walk(1234)) == [0, 1, 2]     # spill order covers all
        True
    """

    def __init__(
        self, worker_ids: Sequence[int], replicas: int = DEFAULT_RING_REPLICAS
    ) -> None:
        if not worker_ids:
            raise ValueError("HashRing needs at least one worker id")
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.worker_ids = list(worker_ids)
        self.replicas = replicas
        points: list[tuple[int, int]] = []
        for wid in self.worker_ids:
            for replica in range(replicas):
                token = f"{wid}:{replica}".encode("ascii")
                digest = hashlib.blake2b(token, digest_size=8).digest()
                points.append((int.from_bytes(digest, "big"), wid))
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [wid for _, wid in points]

    def lookup(self, key: int) -> int:
        """The preferred worker for a routing key."""
        index = bisect.bisect_right(self._points, key) % len(self._points)
        return self._owners[index]

    def walk(self, key: int) -> Iterator[int]:
        """Every worker id in ring order from the preferred owner (no dups)."""
        start = bisect.bisect_right(self._points, key) % len(self._points)
        seen: set[int] = set()
        for offset in range(len(self._points)):
            wid = self._owners[(start + offset) % len(self._points)]
            if wid not in seen:
                seen.add(wid)
                yield wid


# ---------------------------------------------------------------- worker side


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a worker process needs to build its serving runtime.

    Shipped through the spawn pickle; every field is a plain value, so a
    spec is also the restart recipe — a respawned worker gets the spec of
    the fleet's *current* state, not its boot state.
    """

    bundle_path: str
    store_path: str
    model_name: str | None
    model_version: str | None
    cache_size: int
    max_batch_size: int
    max_wait_ms: float
    metrics_window: int


def _pending(message: tuple) -> _Pending:
    """The queued request of a ``("predict", rid, table, context)`` frame."""
    _kind, rid, table, context = message
    return _Pending(table=table, reply=rid, context=context)


class _WorkerRuntime:
    """The serving loop living inside one fleet worker process."""

    def __init__(self, conn, spec: WorkerSpec) -> None:
        self.conn = conn
        self.spec = spec
        self.predictor = Predictor.from_shared_bundle(
            spec.bundle_path,
            spec.store_path,
            cache_size=spec.cache_size,
            model_name=spec.model_name,
            model_version=spec.model_version,
        )
        self.metrics = ServingMetrics(window=spec.metrics_window)
        self.max_wait = spec.max_wait_ms / 1e3
        # Models staged by ``prepare`` and not yet committed/discarded:
        # token -> (model, shared store, version tag).
        self._staged: dict[str, tuple] = {}

    # The run loop: greedy micro-batching straight off the pipe.  The
    # first predict message anchors a batch; companions are collected
    # while the pipe keeps delivering (bounded by max_batch_size and the
    # same max_wait_ms policy as the single-process MicroBatcher).  A
    # control message ends the batch — pipes are FIFO, so handling it
    # *after* dispatching the batch preserves the ordering guarantee the
    # two-phase swap relies on (every predict sent before a ``commit``
    # is served by the pre-commit model).

    def run(self) -> None:
        trailing = None
        running = True
        while running:
            if trailing is not None:
                message, trailing = trailing, None
            else:
                try:
                    message = self.conn.recv()
                except (EOFError, OSError):
                    break
            if message[0] != "predict":
                running = self._handle_control(message)
                continue
            batch = [_pending(message)]
            deadline = batch[0].enqueued_at + self.max_wait
            while len(batch) < self.spec.max_batch_size:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or not self.conn.poll(remaining):
                    break
                try:
                    companion = self.conn.recv()
                except (EOFError, OSError):
                    running = False
                    break
                if companion[0] != "predict":
                    trailing = companion
                    break
                batch.append(_pending(companion))
            self._dispatch(batch)

    def _dispatch(self, batch: list[_Pending]) -> None:
        for _ in batch:
            self.metrics.record_admitted()
        outcomes, anchor = dispatch_batch(
            self.predictor, batch, self.metrics, "worker.batch"
        )
        # The worker's spans (worker.batch and everything the predictor
        # opens inside it) were recorded under the anchor request's
        # propagated context; they ride back with the first traced reply,
        # so the front end can reassemble one whole trace.
        spans = get_tracer().take(anchor[0]) if anchor is not None else []
        for pending, outcome in zip(batch, outcomes):
            if isinstance(outcome, Exception):
                reason = f"{type(outcome).__name__}: {outcome}"
                self._send(("err", pending.reply, reason))
                continue
            if spans and pending.context is not None:
                outcome[2]["spans"], spans = spans, []
            self._send(("ok", pending.reply, outcome))

    def _handle_control(self, message: tuple) -> bool:
        kind, rid, payload = message
        try:
            if kind == "ping":
                self._send(("ok", rid, self._identity()))
            elif kind == "metrics":
                self._send(
                    (
                        "ok",
                        rid,
                        {
                            "pid": os.getpid(),
                            "metrics": self.metrics.snapshot(),
                            "stages": get_tracer().stages.snapshot(),
                            "cache": self.predictor.cache_info(),
                            "predictor": self.predictor.predict_info(),
                        },
                    )
                )
            elif kind == "prepare":
                model, store = load_model_shared(
                    payload["bundle_path"], payload["store_path"]
                )
                self._staged[payload["token"]] = (model, store, payload["version"])
                self._send(("ok", rid, {"pid": os.getpid()}))
            elif kind == "commit":
                model, store, version = self._staged.pop(payload["token"])
                # swap_model serializes against in-flight batches via the
                # predictor's swap lock: the current batch finishes on the
                # old model, every later batch runs on the new one.
                summary = self.predictor.swap_model(
                    model, model_name=self.spec.model_name, model_version=version
                )
                old_store, self.predictor.shared_store = (
                    self.predictor.shared_store, store
                )
                if old_store is not None:
                    old_store.close()
                self._send(("ok", rid, summary))
            elif kind == "discard":
                staged = self._staged.pop(payload["token"], None)
                if staged is not None:
                    staged[1].close()
                self._send(("ok", rid, {"discarded": staged is not None}))
            elif kind == "drain":
                self._send(("ok", rid, {"pid": os.getpid()}))
                return False
            else:
                self._send(("err", rid, f"unknown command {kind!r}"))
        except Exception as error:
            self._send(("err", rid, f"{type(error).__name__}: {error}"))
        return True

    def _identity(self) -> dict:
        return {
            "pid": os.getpid(),
            "version": self.predictor.model_version,
            "fingerprint": self.predictor.fingerprint,
            "model_name": self.predictor.model_name,
        }

    def _send(self, message: tuple) -> None:
        try:
            self.conn.send(message)
        except (BrokenPipeError, OSError):
            pass  # parent is gone; the worker will notice on the next recv

    def close(self) -> None:
        for _model, store, _version in self._staged.values():
            store.close()
        self._staged.clear()
        self.predictor.close()


def _fleet_worker_main(conn, spec: WorkerSpec) -> None:
    """Entry point of a fleet worker process."""
    # Ctrl-C goes to the parent's drain path; workers must outlive the
    # signal so in-flight batches finish and the drain handshake runs.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    try:
        runtime = _WorkerRuntime(conn, spec)
    except Exception as error:
        try:
            conn.send(("err", _READY_ID, f"{type(error).__name__}: {error}"))
        except (BrokenPipeError, OSError):
            pass
        conn.close()
        return
    try:
        conn.send(("ok", _READY_ID, runtime._identity()))
        runtime.run()
    except (BrokenPipeError, OSError):
        pass
    finally:
        runtime.close()
        conn.close()


# ---------------------------------------------------------------- parent side


@dataclass
class _WorkerHandle:
    """Parent-side bookkeeping for one worker process."""

    wid: int
    process: object
    conn: object
    pid: int
    alive: bool = True
    retired: bool = False
    inflight: int = 0
    send_lock: threading.Lock = field(default_factory=threading.Lock)
    # rid -> (future, kind, submitted_at, n_columns); n_columns is 0 for
    # control round-trips.
    pending: dict = field(default_factory=dict)
    reader: threading.Thread | None = None
    ready_payload: dict = field(default_factory=dict)


class ServingFleet:
    """A supervised pool of prefork serving workers behind one front end.

    Parameters
    ----------
    n_workers:
        Worker process count (>= 1).  Throughput scales with cores until
        featurization saturates memory bandwidth; see
        ``docs/operations.md`` for sizing guidance.
    bundle_path / registry + model_name / model_version:
        The model source, exactly like :class:`~repro.serving.Predictor`:
        either a loose bundle directory, or a registry name (serving the
        promoted version unless ``model_version`` pins one).
    cache_size:
        Forwarded to every worker's :class:`~repro.serving.Predictor`.
    max_batch_size / max_wait_ms:
        Per-worker greedy micro-batching policy (same meaning as
        :class:`~repro.serving.scheduler.MicroBatcher`).
    max_queue:
        Fleet-wide in-flight bound; beyond it submissions raise
        :class:`~repro.serving.scheduler.QueueFullError` (HTTP 429).
    worker_queue:
        Per-worker in-flight bound before a request spills to the next
        worker on the ring.  Defaults to ``max(1, max_queue // n_workers)``.
    ring_replicas:
        Virtual nodes per worker on the routing ring.
    metrics:
        Optional shared :class:`~repro.serving.scheduler.ServingMetrics`;
        the fleet records front-end admission/latency into it (worker-side
        batch metrics are aggregated separately by :meth:`fleet_metrics`).
    store_dir:
        Parent directory for the shared tensor store (default: ``/dev/shm``
        when available).  The fleet creates a private subdirectory and
        removes it on drain.
    mp_context:
        ``multiprocessing`` start method (default ``spawn``: no inherited
        locks/threads, identical behavior on every platform).
    """

    def __init__(
        self,
        n_workers: int,
        bundle_path: str | Path | None = None,
        registry=None,
        model_name: str | None = None,
        model_version: str | None = None,
        cache_size: int = 4096,
        max_batch_size: int = DEFAULT_MAX_BATCH_SIZE,
        max_wait_ms: float = DEFAULT_MAX_WAIT_MS,
        max_queue: int = DEFAULT_MAX_QUEUE,
        worker_queue: int | None = None,
        ring_replicas: int = DEFAULT_RING_REPLICAS,
        metrics: ServingMetrics | None = None,
        store_dir: str | Path | None = None,
        mp_context: str = "spawn",
    ) -> None:
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if (bundle_path is None) == (registry is None):
            raise ValueError("exactly one of bundle_path / registry is required")
        if registry is not None and model_name is None:
            raise ValueError("registry mode requires model_name")
        self.n_workers = n_workers
        self.registry = registry
        self.model_name = model_name
        self.cache_size = cache_size
        self.max_batch_size = max_batch_size
        self.max_wait_ms = max_wait_ms
        self.max_queue = max_queue
        self.worker_queue = worker_queue or max(1, max_queue // n_workers)
        self.metrics = metrics if metrics is not None else ServingMetrics()
        self._requested_version = model_version
        self._requested_bundle = Path(bundle_path) if bundle_path is not None else None
        self._requested_store_dir = Path(store_dir) if store_dir is not None else None
        self._ctx = multiprocessing.get_context(mp_context)
        self._ring = HashRing(list(range(n_workers)), replicas=ring_replicas)
        self._handles: dict[int, _WorkerHandle] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._rids = itertools.count(1)
        self._started = False
        self._draining = False
        self._closed = False
        self._promote_lock: asyncio.Lock | None = None
        self._store_dir: Path | None = None
        self._store_seq = 0
        self._swap_count = 0
        self._restarts = 0
        self._affinity_hits = 0
        self._spills = 0
        # Current fleet-wide model state (what a respawn serves).
        self._version: str | None = model_version
        self._fingerprint: str | None = None
        self._bundle_path_active: Path | None = self._requested_bundle
        self._store_path_active: Path | None = None

    # -------------------------------------------------- predictor facade

    @property
    def model_version(self) -> str | None:
        """Version tag the fleet currently serves (fleet-wide, post-commit)."""
        return self._version

    @property
    def fingerprint(self) -> str | None:
        """Model content fingerprint the fleet currently serves."""
        return self._fingerprint

    @property
    def swap_count(self) -> int:
        """How many fleet-wide two-phase swaps have completed."""
        return self._swap_count

    @property
    def pending(self) -> int:
        """Requests dispatched to workers and not yet answered."""
        return sum(handle.inflight for handle in self._handles.values())

    @property
    def draining(self) -> bool:
        """True once :meth:`drain` has begun."""
        return self._draining

    # ----------------------------------------------------------- lifecycle

    async def start(self) -> "ServingFleet":
        """Pack the shared store and spawn the workers (idempotent)."""
        if self._started:
            return self
        self._loop = asyncio.get_running_loop()
        self._promote_lock = asyncio.Lock()
        await self._loop.run_in_executor(None, self._start_sync)
        self._started = True
        return self

    def _start_sync(self) -> None:
        if self.registry is not None:
            version = self._requested_version or self.registry.current_version(
                self.model_name
            )
            if version is None:
                from repro.registry import RegistryError

                raise RegistryError(f"{self.model_name} has no promoted version")
            info = self.registry.verify(self.model_name, version)
            self._version = info.version
            self._fingerprint = info.fingerprint
            self._bundle_path_active = Path(info.path)
        self._store_dir = Path(
            tempfile.mkdtemp(
                prefix="repro-fleet-",
                dir=self._requested_store_dir or default_store_dir(),
            )
        )
        try:
            self._store_path_active = self._next_store_path()
            pack_bundle(self._bundle_path_active, self._store_path_active)
            for wid in range(self.n_workers):
                self._handles[wid] = self._spawn_worker(wid)
        except Exception:
            self._shutdown_processes()
            raise
        # Loose bundles carry no registry tags; adopt the identity the
        # first worker computed from the model itself.
        ready = next(iter(self._handles.values())).ready_payload
        if self._version is None:
            self._version = ready.get("version")
        if self._fingerprint is None:
            self._fingerprint = ready.get("fingerprint")

    def _next_store_path(self) -> Path:
        self._store_seq += 1
        return self._store_dir / f"tensors-{self._store_seq:04d}.bin"

    def _current_spec(self) -> WorkerSpec:
        return WorkerSpec(
            bundle_path=str(self._bundle_path_active),
            store_path=str(self._store_path_active),
            model_name=self.model_name,
            model_version=self._version,
            cache_size=self.cache_size,
            max_batch_size=self.max_batch_size,
            max_wait_ms=self.max_wait_ms,
            metrics_window=self.metrics.window,
        )

    def _spawn_worker(self, wid: int) -> _WorkerHandle:
        """Spawn one worker and wait for its readiness report (blocking)."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_fleet_worker_main,
            args=(child_conn, self._current_spec()),
            name=f"repro-fleet-{wid}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        try:
            if not parent_conn.poll(SPAWN_TIMEOUT_SECONDS):
                raise FleetError(f"worker {wid} did not report ready in time")
            status, _rid, payload = parent_conn.recv()
            if status != "ok":
                raise FleetError(f"worker {wid} failed to start: {payload}")
        except (EOFError, OSError) as error:
            parent_conn.close()
            process.join(timeout=5)
            raise FleetError(f"worker {wid} died during startup: {error}") from error
        except FleetError:
            parent_conn.close()
            if process.is_alive():
                process.terminate()
            process.join(timeout=5)
            raise
        handle = _WorkerHandle(
            wid=wid, process=process, conn=parent_conn, pid=payload["pid"]
        )
        handle.ready_payload = payload
        handle.reader = threading.Thread(
            target=self._read_loop,
            args=(handle,),
            name=f"repro-fleet-reader-{wid}",
            daemon=True,
        )
        handle.reader.start()
        return handle

    def _read_loop(self, handle: _WorkerHandle) -> None:
        """Reader thread: pump one worker's replies onto the event loop."""
        while True:
            try:
                message = handle.conn.recv()
            except (EOFError, OSError):
                break
            if not self._post(self._on_message, handle, message):
                return
        self._post(self._on_worker_exit, handle)

    def _post(self, callback, *args) -> bool:
        try:
            self._loop.call_soon_threadsafe(callback, *args)
            return True
        except RuntimeError:
            return False  # event loop already closed (teardown)

    # ------------------------------------------------------------- delivery

    def _on_message(self, handle: _WorkerHandle, message: tuple) -> None:
        status, rid, payload = message
        entry = handle.pending.pop(rid, None)
        if entry is None:
            return  # reply to a cancelled/failed-over request
        future, kind, submitted_at, _n_columns = entry
        if kind == "predict":
            handle.inflight -= 1
            if status == "ok":
                self.metrics.record_request(time.monotonic() - submitted_at)
                payload = self._absorb_worker_info(handle, payload)
            else:
                self.metrics.record_error()
        if future.done():
            return
        if status == "ok":
            future.set_result(payload)
        else:
            future.set_exception(FleetError(f"worker {handle.wid}: {payload}"))

    def _absorb_worker_info(self, handle: _WorkerHandle, payload: tuple) -> tuple:
        """Fold a predict reply's observability info into the front end.

        Spans shipped by the batch's anchor request are re-parented here
        tagged ``wid:pid`` — a respawned worker shows its new pid — and the
        worker-measured queue wait (both endpoints on the worker's own
        monotonic clock; cross-process clock deltas never enter a metric)
        feeds the front end's queue-wait window.
        """
        labels, version, info = payload
        wire_spans = info.pop("spans", None)
        if wire_spans:
            get_tracer().adopt(wire_spans, worker=f"{handle.wid}:{handle.pid}")
        self.metrics.record_queue_wait(info["queue_wait"])
        return (labels, version, info)

    def _on_worker_exit(self, handle: _WorkerHandle) -> None:
        handle.alive = False
        for future, kind, _at, _cols in handle.pending.values():
            if kind == "predict":
                handle.inflight -= 1
                self.metrics.record_error()
            if not future.done():
                future.set_exception(
                    FleetError(f"worker {handle.wid} exited mid-request")
                )
        handle.pending.clear()
        if self._draining or handle.retired or self._closed:
            return
        self._loop.create_task(self._restart_worker(handle.wid))

    async def _restart_worker(self, wid: int) -> None:
        """Respawn a crashed worker from the fleet's current model state."""
        for attempt in range(3):
            try:
                replacement = await self._loop.run_in_executor(
                    None, self._spawn_worker, wid
                )
            except Exception:
                await asyncio.sleep(0.2 * (attempt + 1))
                continue
            if self._draining or self._closed:
                replacement.retired = True
                await self._loop.run_in_executor(None, self._stop_one, replacement)
                return
            self._handles[wid] = replacement
            self._restarts += 1
            return

    # ------------------------------------------------------------ submission

    def _select_worker(self, table: Table) -> _WorkerHandle:
        """Route a table: preferred ring owner first, spill along the ring."""
        key = table_routing_key(table)
        preferred = self._ring.lookup(key)
        chosen: _WorkerHandle | None = None
        any_alive = False
        for wid in self._ring.walk(key):
            handle = self._handles.get(wid)
            if handle is None or not handle.alive:
                continue
            any_alive = True
            if handle.inflight < self.worker_queue:
                chosen = handle
                break
        if chosen is None:
            if not any_alive:
                raise FleetError("no live workers in the fleet")
            self.metrics.record_rejected_queue_full()
            raise QueueFullError(
                f"every live worker is at its queue bound ({self.worker_queue})"
            )
        if chosen.wid == preferred:
            self._affinity_hits += 1
        else:
            self._spills += 1
        return chosen

    def _admit(self, n_tables: int) -> None:
        """Check admission for ``n_tables`` more tables (raises on refusal).

        The whole request is checked against the fleet bound and the live
        workers' free slots before any frame is sent, and callers send
        without an intervening ``await``: a multi-table admission is
        all-or-nothing, as in ``MicroBatcher._admit``.
        """
        if self._draining:
            self.metrics.record_rejected_draining()
            raise DrainingError("fleet is draining")
        if not self._started:
            raise FleetError("fleet is not started")
        live = self._live_handles()
        if not live:
            raise FleetError("no live workers in the fleet")
        free = sum(max(0, self.worker_queue - handle.inflight) for handle in live)
        if self.pending + n_tables > self.max_queue or n_tables > free:
            self.metrics.record_rejected_queue_full()
            raise QueueFullError(
                f"fleet cannot admit {n_tables} more table(s) (bound "
                f"{self.max_queue}, {free} free worker slot(s))"
            )

    def _dispatch_one(self, table: Table) -> asyncio.Future:
        """Route + send one admitted table; returns its response future."""
        # The request's span context rides in the frame (as a plain tuple)
        # so the worker can record its spans under the same trace.
        tracer = get_tracer()
        context = tracer.current()
        wire_context = tuple(context) if context is not None else None
        # A worker can die between selection and send; fail over along the
        # ring instead of surfacing a broken pipe to the client.
        for _ in range(self.n_workers):
            with tracer.span("route") as route_span:
                handle = self._select_worker(table)
                route_span.meta = {"worker": handle.wid}
            rid = next(self._rids)
            future = self._loop.create_future()
            handle.pending[rid] = (
                future,
                "predict",
                time.monotonic(),
                table.n_columns,
            )
            handle.inflight += 1
            try:
                with handle.send_lock:
                    handle.conn.send(("predict", rid, table, wire_context))
            except (BrokenPipeError, OSError):
                handle.pending.pop(rid, None)
                handle.inflight -= 1
                handle.alive = False
                continue
            self.metrics.record_admitted()
            return future
        raise FleetError("no live workers in the fleet")

    async def submit_traced(self, table: Table) -> tuple[list[str], str | None, dict]:
        """Serve one table; resolves to ``(labels, version, info)``.

        The version is the tag of the model that served the request's
        batch on its worker (captured under that worker's swap lock), so
        responses stay honestly attributed during a rolling promote.
        ``info`` mirrors :meth:`MicroBatcher.submit_traced`: the worker's
        batch size and the worker-side ``queue_wait`` in seconds (any
        shipped trace spans have already been folded into the front-end
        tracer by the time the future resolves).
        """
        self._admit(1)
        return await self._dispatch_one(table)

    async def submit(self, table: Table) -> list[str]:
        """Serve one table; resolves to its per-column labels."""
        labels, _version, _info = await self.submit_traced(table)
        return labels

    async def submit_many_versioned(
        self, tables: Sequence[Table]
    ) -> list[tuple[list[str], str | None]]:
        """Serve several tables, admitted as one decision (all-or-nothing)."""
        self._admit(len(tables))
        futures: list[asyncio.Future] = []
        try:
            for table in tables:
                futures.append(self._dispatch_one(table))
        except Exception:
            for future in futures:
                future.cancel()
            raise
        results = await asyncio.gather(*futures, return_exceptions=True)
        for result in results:
            if isinstance(result, BaseException):
                raise result
        return [(labels, version) for labels, version, _info in results]

    async def submit_many(self, tables: Sequence[Table]) -> list[list[str]]:
        """Serve several tables; resolves to their label lists."""
        results = await self.submit_many_versioned(tables)
        return [labels for labels, _version in results]

    # ------------------------------------------------------------- controls

    async def _control(self, handle: _WorkerHandle, command: str, payload) -> dict:
        """One control round-trip (prepare/commit/metrics/...) to a worker."""
        if not handle.alive:
            raise FleetError(f"worker {handle.wid} is not alive")
        rid = next(self._rids)
        future = self._loop.create_future()
        handle.pending[rid] = (future, command, time.monotonic(), 0)
        try:
            await self._loop.run_in_executor(
                None, self._send_locked, handle, (command, rid, payload)
            )
        except (BrokenPipeError, OSError) as error:
            handle.pending.pop(rid, None)
            raise FleetError(f"worker {handle.wid} unreachable: {error}") from error
        return await future

    @staticmethod
    def _send_locked(handle: _WorkerHandle, message: tuple) -> None:
        with handle.send_lock:
            handle.conn.send(message)

    def _live_handles(self) -> list[_WorkerHandle]:
        return [handle for handle in self._handles.values() if handle.alive]

    # ------------------------------------------------------------- promotion

    async def promote_version(self, version: str | None = None) -> dict:
        """Converge the whole fleet onto a registry version (two-phase).

        Phase 1 (*prepare*) stages the new model on every live worker —
        each maps the freshly packed shared store and rebuilds the model
        around it, while still serving the old one.  Only when every
        worker has staged successfully does phase 2 (*commit*) flip them;
        a prepare failure discards the staged state everywhere and leaves
        the fleet untouched.  Commits run under each worker's swap lock,
        so no batch anywhere in the fleet mixes model versions.
        """
        if self.registry is None:
            raise FleetError("promote_version requires registry mode")
        async with self._promote_lock:
            def resolve():
                target = version or self.registry.current_version(self.model_name)
                if target is None:
                    from repro.registry import RegistryError

                    raise RegistryError(f"{self.model_name} has no promoted version")
                return self.registry.verify(self.model_name, target)

            info = await self._loop.run_in_executor(None, resolve)
            return await self._two_phase_swap(
                Path(info.path), info.version, info.fingerprint
            )

    async def reload_bundle(self) -> dict:
        """Re-read the (loose) bundle directory and swap it fleet-wide."""
        if self.registry is not None:
            raise FleetError("reload_bundle is for bundle mode; use promote_version")
        async with self._promote_lock:
            return await self._two_phase_swap(self._bundle_path_active, None, None)

    async def _two_phase_swap(
        self, bundle_path: Path, version: str | None, fingerprint: str | None
    ) -> dict:
        store_path = self._next_store_path()
        await self._loop.run_in_executor(None, pack_bundle, bundle_path, store_path)
        token = f"swap-{self._store_seq}"
        live = self._live_handles()
        if not live:
            await self._loop.run_in_executor(None, remove_store, store_path)
            raise FleetError("no live workers to swap")
        prepare = {
            "token": token,
            "bundle_path": str(bundle_path),
            "store_path": str(store_path),
            "version": version,
        }
        staged = await asyncio.gather(
            *[self._control(handle, "prepare", prepare) for handle in live],
            return_exceptions=True,
        )
        failures = [r for r in staged if isinstance(r, BaseException)]
        if failures:
            await asyncio.gather(
                *[
                    self._control(handle, "discard", {"token": token})
                    for handle, result in zip(live, staged)
                    if not isinstance(result, BaseException)
                ],
                return_exceptions=True,
            )
            await self._loop.run_in_executor(None, remove_store, store_path)
            raise FleetError(
                f"prepare failed on {len(failures)}/{len(live)} workers: "
                f"{failures[0]}"
            )
        commits = await asyncio.gather(
            *[self._control(handle, "commit", {"token": token}) for handle in live],
            return_exceptions=True,
        )
        summaries = [c for c in commits if not isinstance(c, BaseException)]
        if not summaries:
            # Every committer died mid-commit; respawns will pick up the
            # new store below, so flip the fleet state anyway.
            summaries = [{"version": version, "fingerprint": fingerprint,
                          "changed": True, "swap_count": 0}]
        old_store = self._store_path_active
        self._store_path_active = store_path
        self._bundle_path_active = Path(bundle_path)
        self._version = version if version is not None else summaries[0].get("version")
        self._fingerprint = (
            fingerprint if fingerprint is not None
            else summaries[0].get("fingerprint")
        )
        self._swap_count += 1
        if old_store is not None:
            await self._loop.run_in_executor(None, remove_store, old_store)
        return {
            "version": self._version,
            "fingerprint": self._fingerprint,
            "changed": bool(summaries[0].get("changed", True)),
            "swap_count": self._swap_count,
            "workers": len(live),
            "commit_failures": len(commits) - len(summaries),
        }

    # ------------------------------------------------------------ observability

    async def fleet_metrics(self) -> dict:
        """Aggregate worker metrics: per-worker snapshots + fleet totals.

        Fleet-wide latency and queue-wait percentiles need no merge: the
        front end's own :class:`ServingMetrics` already records every reply
        (``latency_ms`` as the front end measured it, ``queue_wait_ms`` as
        its worker did).  Each worker's own windows stay in its snapshot.
        """
        live = self._live_handles()
        replies = await asyncio.gather(
            *[self._control(handle, "metrics", None) for handle in live],
            return_exceptions=True,
        )
        workers = []
        total_columns = 0
        total_batches = 0
        for handle, reply in zip(live, replies):
            if isinstance(reply, BaseException):
                workers.append({"worker": handle.wid, "error": str(reply)})
                continue
            snapshot = reply["metrics"]
            total_columns += snapshot["columns"]["served"]
            total_batches += snapshot["batches"]["count"]
            workers.append(
                {
                    "worker": handle.wid,
                    "pid": reply["pid"],
                    "inflight": handle.inflight,
                    "qps": snapshot["requests"]["qps"],
                    "columns_per_sec": snapshot["columns"]["columns_per_sec"],
                    "metrics": snapshot,
                    "stages": reply.get("stages", {}),
                    "cache": reply["cache"],
                    "predictor": reply["predictor"],
                }
            )
        return {
            "size": self.n_workers,
            "alive": len(live),
            "restarts": self._restarts,
            "queue_depth": self.pending,
            "worker_queue": self.worker_queue,
            "routing": {
                "affinity_hits": self._affinity_hits,
                "spills": self._spills,
                "ring_replicas": self._ring.replicas,
            },
            "swap": {
                "version": self._version,
                "fingerprint": self._fingerprint,
                "swap_count": self._swap_count,
            },
            "columns_served": total_columns,
            "batches": total_batches,
            "workers": workers,
        }

    def health(self) -> dict:
        """Liveness summary for ``/healthz`` (synchronous, no worker I/O)."""
        return {
            "size": self.n_workers,
            "alive": sum(1 for handle in self._handles.values() if handle.alive),
            "restarts": self._restarts,
            "draining": self._draining,
            "workers": [
                {
                    "worker": handle.wid,
                    "pid": handle.pid,
                    "alive": handle.alive,
                    "inflight": handle.inflight,
                }
                for handle in self._handles.values()
            ],
        }

    # -------------------------------------------------------------- shutdown

    async def drain(self) -> None:
        """Graceful fleet shutdown: finish in-flight work, then stop workers.

        Pipes are FIFO per worker, so the ``drain`` control is answered
        only after every previously dispatched predict — by the time the
        handshake completes, no request is left behind.
        """
        if self._closed:
            return
        self._draining = True
        live = self._live_handles()
        for handle in self._handles.values():
            handle.retired = True
        await asyncio.gather(
            *[self._control(handle, "drain", None) for handle in live],
            return_exceptions=True,
        )
        await self._loop.run_in_executor(None, self._shutdown_processes)
        self._closed = True

    def _stop_one(self, handle: _WorkerHandle) -> None:
        try:
            handle.conn.close()
        except OSError:
            pass
        handle.process.join(timeout=5)
        if handle.process.is_alive():
            handle.process.terminate()
            handle.process.join(timeout=2)
        if handle.process.is_alive():
            handle.process.kill()
            handle.process.join(timeout=2)

    def _shutdown_processes(self) -> None:
        for handle in self._handles.values():
            self._stop_one(handle)
        if self._store_dir is not None:
            shutil.rmtree(self._store_dir, ignore_errors=True)
            self._store_dir = None

    def close(self) -> None:
        """Synchronous best-effort teardown (idempotent; used after drain).

        The server calls this through the predictor facade at the end of
        ``stop()``; a drained fleet has nothing left to do.  An undrained
        fleet (e.g. a test bailing out) gets its processes terminated and
        its shared store removed.
        """
        if self._closed:
            return
        self._draining = True
        self._closed = True
        for handle in self._handles.values():
            handle.retired = True
        self._shutdown_processes()
