"""Tests for the prefork serving fleet and its shared-memory bundles.

Three layers are covered:

* ``repro.serving.shm`` — the packed tensor store round-trips every model
  variant bit-exactly and hands out read-only views,
* ``repro.serving.fleet`` routing units — consistent-hash ring
  determinism/coverage and the spill policy, without any processes,
* end-to-end fleets — real worker processes behind a real HTTP server:
  prediction parity with the single-process predictor, aggregated
  ``/metrics``/``/healthz``, crash-restart supervision, graceful drain,
  and a request flood across a mid-flight fleet-wide promote (zero 5xx,
  every response attributed to a version that was live when its batch
  dispatched).
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.registry import ModelRegistry
from repro.serving import (
    Predictor,
    ServingFleet,
    SharedTensorStore,
    ShmFormatError,
    read_state,
    save_model,
    serve_in_thread,
)
from repro.serving.fleet import HashRing, table_routing_key
from repro.serving.scheduler import DrainingError, QueueFullError
from repro.serving.shm import pack_bundle
from repro.tables import Column, Table, combine_fingerprints, values_fingerprint

TIMEOUT = 60


def request(port, method, path, payload=None):
    """One HTTP request; returns (status, json body, response headers)."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=TIMEOUT)
    try:
        body = json.dumps(payload).encode("utf-8") if payload is not None else None
        connection.request(
            method, path, body=body, headers={"Content-Type": "application/json"}
        )
        reply = connection.getresponse()
        return (
            reply.status,
            json.loads(reply.read().decode("utf-8")),
            dict(reply.getheaders()),
        )
    finally:
        connection.close()


# ---------------------------------------------------------------- shared store


class TestSharedTensorStore:
    def test_round_trip_is_bit_identical(self, tmp_path):
        state = {
            "w": np.arange(12, dtype=np.float64).reshape(3, 4),
            "b": np.array([1.5, -2.5]),
            "empty": np.zeros((0, 3)),
        }
        path = SharedTensorStore.pack(state, tmp_path / "tensors.bin")
        store = SharedTensorStore.open(path)
        try:
            views = store.state_dict()
            assert sorted(views) == sorted(state)
            for key, tensor in state.items():
                assert views[key].dtype == tensor.dtype
                assert views[key].shape == tensor.shape
                assert np.array_equal(views[key], tensor)
        finally:
            store.close()

    def test_views_are_read_only(self, tmp_path):
        path = SharedTensorStore.pack(
            {"w": np.ones((2, 2))}, tmp_path / "tensors.bin"
        )
        store = SharedTensorStore.open(path)
        try:
            view = store.state_dict()["w"]
            assert not view.flags.writeable
            with pytest.raises(ValueError):
                view[0, 0] = 99.0
        finally:
            store.close()

    def test_open_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "tensors.bin"
        path.write_bytes(b"\0")
        (tmp_path / "tensors.bin.layout.json").write_text(
            json.dumps({"format": "something-else", "tensors": {}})
        )
        with pytest.raises(ShmFormatError):
            SharedTensorStore.open(path)


class TestSharedBundleParity:
    """Satellite: shm tensors bit-identical to the PR-1 .npz load path,
    for all four model variants."""

    def test_packed_store_matches_npz_state(self, fitted_variant, tmp_path):
        bundle = save_model(fitted_variant, tmp_path / "bundle")
        store_path = pack_bundle(bundle, tmp_path / "tensors.bin")
        npz_state = read_state(bundle)
        store = SharedTensorStore.open(store_path)
        try:
            shared = store.state_dict()
            assert sorted(shared) == sorted(npz_state)
            for key in npz_state:
                assert shared[key].dtype == npz_state[key].dtype, key
                assert np.array_equal(shared[key], npz_state[key]), key
        finally:
            store.close()

    def test_shared_predictor_matches_classic_load(
        self, fitted_variant, serving_split, tmp_path
    ):
        _, test = serving_split
        bundle = save_model(fitted_variant, tmp_path / "bundle")
        store_path = pack_bundle(bundle, tmp_path / "tensors.bin")
        classic = Predictor.from_bundle(bundle)
        shared = Predictor.from_shared_bundle(bundle, store_path)
        try:
            assert shared.fingerprint == classic.fingerprint
            for table in test[:4]:
                assert shared.predict_table(table) == classic.predict_table(table)
                assert np.array_equal(
                    shared.predict_proba_table(table),
                    classic.predict_proba_table(table),
                )
        finally:
            classic.close()
            shared.close()


# -------------------------------------------------------------------- routing


class TestHashRing:
    def test_lookup_is_deterministic_and_covered(self):
        ring = HashRing([0, 1, 2, 3])
        keys = [hash(("key", i)) & (2**64 - 1) for i in range(500)]
        owners = [ring.lookup(key) for key in keys]
        assert owners == [ring.lookup(key) for key in keys]
        # With 64 replicas per worker, 500 keys should reach every worker.
        assert set(owners) == {0, 1, 2, 3}

    def test_walk_starts_at_preferred_and_covers_all(self):
        ring = HashRing([0, 1, 2])
        for key in range(50):
            order = list(ring.walk(key))
            assert order[0] == ring.lookup(key)
            assert sorted(order) == [0, 1, 2]

    def test_removing_a_worker_moves_only_its_keys(self):
        before = HashRing([0, 1, 2, 3])
        after = HashRing([0, 1, 2])
        keys = list(range(1000))
        moved = sum(
            1
            for key in keys
            if before.lookup(key) != after.lookup(key)
            and before.lookup(key) != 3
        )
        # Keys not owned by the removed worker overwhelmingly stay put.
        assert moved == 0

    def test_routing_key_ignores_headers_and_ids(self):
        columns = [Column(values=["a", "b"]), Column(values=["c"])]
        renamed = [
            Column(values=["a", "b"], header="x"),
            Column(values=["c"], header="y"),
        ]
        t1 = Table(columns=columns, table_id="one")
        t2 = Table(columns=renamed, table_id="two")
        assert table_routing_key(t1) == table_routing_key(t2)
        t3 = Table(columns=[Column(values=["a", "b"])], table_id="one")
        assert table_routing_key(t1) != table_routing_key(t3)
        # The key is the leading 8 bytes of the one table fingerprint.
        fingerprint = combine_fingerprints(
            [values_fingerprint(column.values) for column in columns]
        )
        assert table_routing_key(t1).to_bytes(8, "big") == bytes.fromhex(
            fingerprint
        )[:8]


class TestSpillPolicy:
    def _fleet_with_fake_workers(self, inflight):
        fleet = ServingFleet(
            len(inflight), bundle_path="unused", worker_queue=2, max_queue=100
        )
        fleet._handles = {
            wid: SimpleNamespace(wid=wid, alive=True, inflight=count)
            for wid, count in enumerate(inflight)
        }
        return fleet

    def test_prefers_ring_owner_when_it_has_room(self):
        fleet = self._fleet_with_fake_workers([0, 0, 0])
        table = Table(columns=[Column(values=["spill", "test"])])
        preferred = fleet._ring.lookup(table_routing_key(table))
        chosen = fleet._select_worker(table)
        assert chosen.wid == preferred
        assert fleet._affinity_hits == 1 and fleet._spills == 0

    def test_spills_to_next_live_worker_when_owner_full(self):
        fleet = self._fleet_with_fake_workers([0, 0, 0])
        table = Table(columns=[Column(values=["spill", "test"])])
        key = table_routing_key(table)
        walk = list(fleet._ring.walk(key))
        fleet._handles[walk[0]].inflight = 2  # owner at its bound
        chosen = fleet._select_worker(table)
        assert chosen.wid == walk[1]
        assert fleet._spills == 1

    def test_all_full_raises_queue_full(self):
        fleet = self._fleet_with_fake_workers([2, 2, 2])
        table = Table(columns=[Column(values=["spill", "test"])])
        with pytest.raises(QueueFullError):
            fleet._select_worker(table)

    def test_dead_workers_are_skipped(self):
        fleet = self._fleet_with_fake_workers([0, 0, 0])
        table = Table(columns=[Column(values=["spill", "test"])])
        walk = list(fleet._ring.walk(table_routing_key(table)))
        fleet._handles[walk[0]].alive = False
        assert fleet._select_worker(table).wid == walk[1]

    @pytest.mark.parametrize(
        "max_queue, inflight, n_tables",
        [
            (4, [1, 1], 3),  # 2 of the fleet's 4 slots free
            (100, [2, 1], 2),  # 1 free worker slot, fleet bound far away
        ],
        ids=["fleet-bound", "worker-slots"],
    )
    def test_batch_admission_is_all_or_nothing(self, max_queue, inflight, n_tables):
        """A refused multi-table request sends no frame and holds no slot."""
        fleet = ServingFleet(
            len(inflight), bundle_path="unused", worker_queue=2, max_queue=max_queue
        )
        sent = []
        fleet._handles = {
            wid: SimpleNamespace(
                wid=wid,
                alive=True,
                inflight=count,
                pending={},
                send_lock=threading.Lock(),
                conn=SimpleNamespace(send=sent.append),
            )
            for wid, count in enumerate(inflight)
        }
        fleet._started = True
        tables = [Table(columns=[Column(values=[f"t{i}"])]) for i in range(n_tables)]

        async def submit():
            fleet._loop = asyncio.get_running_loop()
            await fleet.submit_many_versioned(tables)

        with pytest.raises(QueueFullError):
            asyncio.run(submit())
        assert sent == []
        assert fleet.pending == sum(inflight)
        assert fleet.metrics.admitted == 0
        assert fleet.metrics.rejected_queue_full == 1


# ----------------------------------------------------------------- end to end


@pytest.fixture(scope="module")
def base_bundle(tmp_path_factory, trained_base):
    return save_model(trained_base, tmp_path_factory.mktemp("fleet") / "bundle")


@pytest.fixture(scope="module")
def reference(base_bundle):
    predictor = Predictor.from_bundle(base_bundle)
    yield predictor
    predictor.close()


@pytest.fixture(scope="module")
def fleet_server(base_bundle):
    fleet = ServingFleet(
        2, bundle_path=base_bundle, max_wait_ms=5.0, max_queue=64
    )
    with serve_in_thread(fleet, port=0, batcher=fleet) as handle:
        yield handle


class TestFleetServing:
    def test_healthz_reports_fleet_liveness(self, fleet_server):
        status, payload, _ = request(fleet_server.port, "GET", "/healthz")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["fleet"]["size"] == 2
        assert payload["fleet"]["alive"] == 2
        assert len(payload["fleet"]["workers"]) == 2

    def test_predict_parity_with_single_process(
        self, fleet_server, reference, serving_split
    ):
        _, test = serving_split
        for table in test[:6]:
            status, payload, headers = request(
                fleet_server.port, "POST", "/v1/predict", {"table": table.to_dict()}
            )
            assert status == 200
            assert payload["labels"] == reference.predict_table(table)
            assert headers["X-Model-Version"] == payload["model_version"]

    def test_predict_batch_parity(self, fleet_server, reference, serving_split):
        _, test = serving_split
        tables = test[:5]
        status, payload, _ = request(
            fleet_server.port,
            "POST",
            "/v1/predict_batch",
            {"tables": [table.to_dict() for table in tables]},
        )
        assert status == 200
        got = [result["labels"] for result in payload["results"]]
        assert got == [reference.predict_table(table) for table in tables]

    def test_metrics_aggregates_across_workers(self, fleet_server, serving_split):
        _, test = serving_split
        for table in test[:4]:
            status, _, _ = request(
                fleet_server.port, "POST", "/v1/predict", {"table": table.to_dict()}
            )
            assert status == 200
        status, payload, _ = request(fleet_server.port, "GET", "/metrics")
        assert status == 200
        fleet = payload["fleet"]
        assert fleet["size"] == 2 and fleet["alive"] == 2
        assert fleet["columns_served"] > 0
        # The front end records every reply, so the fleet-wide windows are
        # the top-level blocks; no worker window is copied into "fleet".
        for block in ("latency_ms", "queue_wait_ms"):
            assert payload[block]["window"] >= 4
            assert payload[block]["p50"] <= payload[block]["p99"]
            assert block not in fleet
        routing = fleet["routing"]
        assert routing["affinity_hits"] + routing["spills"] > 0
        per_worker = [w for w in fleet["workers"] if "metrics" in w]
        assert len(per_worker) == 2
        assert sum(w["metrics"]["columns"]["served"] for w in per_worker) == (
            fleet["columns_served"]
        )
        # Each worker keeps its own windows.
        assert sum(w["metrics"]["queue_wait_ms"]["window"] for w in per_worker) >= 4
        # Front-end latency accounting feeds the top-level snapshot.
        assert payload["requests"]["completed"] > 0

    def test_routed_tables_repeat_onto_the_same_worker(
        self, fleet_server, serving_split
    ):
        _, test = serving_split
        table = test[0]
        _, before, _ = request(fleet_server.port, "GET", "/metrics")
        for _ in range(3):
            status, _, _ = request(
                fleet_server.port, "POST", "/v1/predict", {"table": table.to_dict()}
            )
            assert status == 200
        _, after, _ = request(fleet_server.port, "GET", "/metrics")
        # All three repeats land on one worker (affinity), and its column
        # cache serves the repeats: fleet-wide hits grow by at least
        # 2 * n_columns.
        hits = lambda m: sum(
            w["cache"]["hits"] for w in m["fleet"]["workers"] if "cache" in w
        )
        assert hits(after) >= hits(before) + 2 * table.n_columns

    def test_worker_crash_is_supervised_and_restarted(
        self, fleet_server, reference, serving_split
    ):
        _, test = serving_split
        _, health, _ = request(fleet_server.port, "GET", "/healthz")
        victim = health["fleet"]["workers"][0]["pid"]
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + TIMEOUT
        while time.monotonic() < deadline:
            _, health, _ = request(fleet_server.port, "GET", "/healthz")
            fleet = health["fleet"]
            if fleet["alive"] == 2 and fleet["restarts"] >= 1:
                break
            time.sleep(0.1)
        assert fleet["alive"] == 2 and fleet["restarts"] >= 1
        pids = {worker["pid"] for worker in fleet["workers"]}
        assert victim not in pids
        status, payload, _ = request(
            fleet_server.port, "POST", "/v1/predict", {"table": test[0].to_dict()}
        )
        assert status == 200
        assert payload["labels"] == reference.predict_table(test[0])


class TestFleetDrain:
    def test_drain_finishes_inflight_then_rejects(self, base_bundle, serving_split):
        _, test = serving_split

        async def scenario():
            fleet = ServingFleet(1, bundle_path=base_bundle, max_queue=16)
            await fleet.start()
            labels = await fleet.submit(test[0])
            assert labels
            await fleet.drain()
            with pytest.raises(DrainingError):
                await fleet.submit(test[0])

        asyncio.run(scenario())


# --------------------------------------------------- fleet-wide promote flood


@pytest.fixture(scope="module")
def promote_registry(tmp_path_factory, trained_base):
    root = tmp_path_factory.mktemp("fleet-registry")
    registry = ModelRegistry(root)
    v1 = registry.publish(trained_base, "demo")
    v2 = registry.publish(trained_base, "demo")
    registry.promote("demo", v1.version)
    return registry, v1.version, v2.version


class TestFleetPromotion:
    def test_flood_across_promote_yields_no_5xx_and_honest_versions(
        self, promote_registry, serving_split
    ):
        registry, v1, v2 = promote_registry
        _, test = serving_split
        fleet = ServingFleet(
            2,
            registry=registry,
            model_name="demo",
            max_wait_ms=5.0,
            max_queue=64,
        )
        with serve_in_thread(
            fleet,
            port=0,
            registry=registry,
            model_name="demo",
            watch_interval=0.2,
            batcher=fleet,
        ) as handle:
            assert fleet.model_version == v1
            tables = [test[i % len(test)] for i in range(240)]

            def shoot(table):
                status, payload, headers = request(
                    handle.port, "POST", "/v1/predict", {"table": table.to_dict()}
                )
                return status, payload.get("model_version"), headers

            with ThreadPoolExecutor(max_workers=16) as pool:
                futures = [pool.submit(shoot, table) for table in tables[:40]]
                # Promote mid-flight: the registry watcher notices within
                # ~watch_interval and drives the two-phase fleet swap while
                # the flood keeps running.
                registry.promote("demo", v2)
                futures += [pool.submit(shoot, table) for table in tables[40:]]
                results = [future.result() for future in futures]

            statuses = [status for status, _v, _h in results]
            assert all(status == 200 for status in statuses), statuses
            versions = {version for _s, version, _h in results}
            assert versions <= {v1, v2}
            for _status, version, headers in results:
                assert headers["X-Model-Version"] == version

            deadline = time.monotonic() + TIMEOUT
            while time.monotonic() < deadline and fleet.model_version != v2:
                time.sleep(0.1)
            assert fleet.model_version == v2
            status, payload, _ = request(
                handle.port, "POST", "/v1/predict", {"table": test[0].to_dict()}
            )
            assert status == 200 and payload["model_version"] == v2
            status, admin, _ = request(handle.port, "GET", "/v1/admin/status")
            assert admin["model"]["version"] == v2
            assert admin["swap_count"] >= 1

    def test_admin_reload_runs_two_phase_swap(self, promote_registry, serving_split):
        registry, v1, v2 = promote_registry
        _, test = serving_split
        fleet = ServingFleet(
            2, registry=registry, model_name="demo", model_version=v1, max_queue=32
        )
        with serve_in_thread(
            fleet, port=0, registry=registry, model_name="demo", batcher=fleet
        ) as handle:
            status, payload, _ = request(
                handle.port, "POST", "/v1/admin/reload", {"version": v2}
            )
            assert status == 200
            assert payload["version"] == v2
            assert payload["workers"] == 2
            status, reply, _ = request(
                handle.port, "POST", "/v1/predict", {"table": test[0].to_dict()}
            )
            assert status == 200 and reply["model_version"] == v2


# ------------------------------------------------------------ signal handling


class TestServeSignals:
    """Satellite: the serve CLI drains gracefully on SIGTERM (not just ^C)."""

    @pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGINT])
    def test_serve_drains_on_signal(self, base_bundle, signum):
        env = dict(os.environ)
        env["PYTHONUNBUFFERED"] = "1"
        env["PYTHONPATH"] = (
            str(Path(__file__).resolve().parents[1] / "src")
            + os.pathsep
            + env.get("PYTHONPATH", "")
        )
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--model",
                str(base_bundle),
                "--port",
                "0",
                "--fleet-workers",
                "2",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
        )
        try:
            line = process.stdout.readline()
            assert "serving" in line, line
            process.send_signal(signum)
            stdout, stderr = process.communicate(timeout=TIMEOUT)
        except BaseException:
            process.kill()
            process.communicate()
            raise
        assert process.returncode == 0, stderr
        assert "draining" in stderr
