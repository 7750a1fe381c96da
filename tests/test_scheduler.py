"""Unit tests for the micro-batching request scheduler.

These run against stub predictors (recording batch shapes, injecting
latency or failures) so the batching policy, admission control, drain
semantics and metrics accounting are tested in isolation from the model.
End-to-end behaviour over a real socket lives in ``test_server.py``.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.obs import SpanContext, get_tracer
from repro.obs.trace import _percentile
from repro.serving import (
    DrainingError,
    MicroBatcher,
    QueueFullError,
    ServingMetrics,
)
from repro.serving.scheduler import _Pending, dispatch_batch
from repro.tables import Column, Table


def make_table(n_columns: int = 2, tag: str = "t") -> Table:
    return Table(
        columns=[
            Column(values=[f"{tag}{i}a", f"{tag}{i}b"]) for i in range(n_columns)
        ],
        table_id=tag,
    )


class RecordingPredictor:
    """Counts calls and batch sizes; optionally sleeps to simulate model time."""

    def __init__(self, delay: float = 0.0):
        self.delay = delay
        self.batch_sizes: list[int] = []

    def predict_tables(self, tables):
        self.batch_sizes.append(len(tables))
        if self.delay:
            time.sleep(self.delay)
        return [["label"] * table.n_columns for table in tables]


class FailingPredictor:
    def predict_tables(self, tables):
        raise RuntimeError("model exploded")


class BadTablePredictor:
    """Fails any call holding a table tagged ``bad``; labels echo the tag.

    Each successful call stamps ``last_batch_version`` with the tags it
    served, so an outcome shows which call served it.
    """

    def __init__(self):
        self.batch_sizes: list[int] = []
        self.last_batch_version = None

    def predict_tables(self, tables):
        self.batch_sizes.append(len(tables))
        if any(table.table_id == "bad" for table in tables):
            raise ValueError("bad table")
        self.last_batch_version = "+".join(table.table_id for table in tables)
        return [[table.table_id] * table.n_columns for table in tables]


class TestMicroBatcher:
    def test_concurrent_requests_coalesce_into_one_batch(self):
        predictor = RecordingPredictor(delay=0.01)

        async def run():
            async with MicroBatcher(
                predictor, max_batch_size=16, max_wait_ms=50.0
            ) as batcher:
                results = await asyncio.gather(
                    *[batcher.submit(make_table(tag=f"t{i}")) for i in range(8)]
                )
            return results

        results = asyncio.run(run())
        assert results == [["label", "label"]] * 8
        # All 8 landed within the wait window -> far fewer dispatches than 8.
        assert len(predictor.batch_sizes) <= 2
        assert max(predictor.batch_sizes) >= 4

    def test_max_batch_size_bounds_every_dispatch(self):
        predictor = RecordingPredictor()

        async def run():
            async with MicroBatcher(
                predictor, max_batch_size=3, max_wait_ms=20.0
            ) as batcher:
                await asyncio.gather(
                    *[batcher.submit(make_table(tag=f"t{i}")) for i in range(10)]
                )

        asyncio.run(run())
        assert sum(predictor.batch_sizes) == 10
        assert max(predictor.batch_sizes) <= 3

    def test_batch_size_one_serves_requests_individually(self):
        predictor = RecordingPredictor()

        async def run():
            async with MicroBatcher(
                predictor, max_batch_size=1, max_wait_ms=50.0
            ) as batcher:
                await asyncio.gather(
                    *[batcher.submit(make_table(tag=f"t{i}")) for i in range(5)]
                )

        asyncio.run(run())
        assert predictor.batch_sizes == [1] * 5

    def test_lone_request_is_served_after_max_wait(self):
        predictor = RecordingPredictor()

        async def run():
            async with MicroBatcher(
                predictor, max_batch_size=64, max_wait_ms=5.0
            ) as batcher:
                started = time.monotonic()
                labels = await batcher.submit(make_table())
                return labels, time.monotonic() - started

        labels, elapsed = asyncio.run(run())
        assert labels == ["label", "label"]
        assert elapsed < 2.0  # waited ~max_wait_ms, not forever

    def test_request_queued_during_a_dispatch_waits_for_the_answered_caller(self):
        """A closed-loop caller answered by a batch joins the next one.

        ``b`` queues while ``a``'s batch runs and has waited past
        ``max_wait_ms`` by the time it ends; ``a``'s caller resubmits as
        soon as it is answered.  Both land in one batch, so two callers
        never settle into being served alternately, one per batch.
        """
        release = threading.Event()
        served: list[list[str]] = []

        class BlockingPredictor:
            def predict_tables(self, tables):
                served.append([table.table_id for table in tables])
                release.wait(5.0)
                return [["label"] * table.n_columns for table in tables]

        async def run():
            async with MicroBatcher(
                BlockingPredictor(), max_batch_size=8, max_wait_ms=200.0
            ) as batcher:
                first = asyncio.create_task(batcher.submit(make_table(tag="a")))
                deadline = time.monotonic() + 5.0
                while not served and time.monotonic() < deadline:
                    await asyncio.sleep(0.005)
                second = asyncio.create_task(batcher.submit(make_table(tag="b")))
                await asyncio.sleep(0.25)  # b is now past its own window
                release.set()
                await first
                await asyncio.gather(second, batcher.submit(make_table(tag="c")))

        asyncio.run(run())
        assert served == [["a"], ["b", "c"]]

    def test_queue_bound_rejects_with_queue_full(self):
        predictor = RecordingPredictor(delay=0.05)

        async def run():
            async with MicroBatcher(
                predictor, max_batch_size=1, max_wait_ms=0.0, max_queue=2
            ) as batcher:
                tasks = [
                    asyncio.create_task(batcher.submit(make_table(tag=f"t{i}")))
                    for i in range(12)
                ]
                return await asyncio.gather(*tasks, return_exceptions=True)

        outcomes = asyncio.run(run())
        rejected = [o for o in outcomes if isinstance(o, QueueFullError)]
        served = [o for o in outcomes if isinstance(o, list)]
        assert rejected, "flooding a queue of 2 must reject something"
        assert served, "admitted requests must still be served"
        assert len(rejected) + len(served) == 12  # nothing silently dropped

    def test_draining_rejects_new_work_but_serves_queued(self):
        predictor = RecordingPredictor(delay=0.02)

        async def run():
            batcher = MicroBatcher(predictor, max_batch_size=4, max_wait_ms=1.0)
            await batcher.start()
            accepted = asyncio.create_task(batcher.submit(make_table(tag="pre")))
            await asyncio.sleep(0)  # let the submit enqueue
            await batcher.drain()
            assert await accepted == ["label", "label"]
            with pytest.raises(DrainingError):
                await batcher.submit(make_table(tag="post"))
            return batcher.metrics

        metrics = asyncio.run(run())
        assert metrics.completed == 1
        assert metrics.rejected_draining == 1

    def test_model_failure_propagates_per_request(self):
        async def run():
            async with MicroBatcher(
                FailingPredictor(), max_batch_size=4, max_wait_ms=1.0
            ) as batcher:
                with pytest.raises(RuntimeError, match="model exploded"):
                    await batcher.submit(make_table())
                return batcher.metrics

        metrics = asyncio.run(run())
        assert metrics.errors == 1
        assert metrics.completed == 0

    def test_bad_table_fails_only_its_own_request(self):
        predictor = BadTablePredictor()
        tags = ["t0", "t1", "bad", "t3", "t4", "t5"]

        async def run():
            async with MicroBatcher(
                predictor, max_batch_size=len(tags), max_wait_ms=1000.0
            ) as batcher:
                outcomes = await asyncio.gather(
                    *[batcher.submit(make_table(tag=tag)) for tag in tags],
                    return_exceptions=True,
                )
            return outcomes, batcher.metrics

        outcomes, metrics = asyncio.run(run())
        assert predictor.batch_sizes[0] == len(tags)  # one shared batch
        assert isinstance(outcomes.pop(2), ValueError)
        assert outcomes == [[tag, tag] for tag in tags if tag != "bad"]
        assert metrics.errors == 1
        assert metrics.completed == 5

    def test_submit_many_round_trips_order(self):
        predictor = RecordingPredictor()
        tables = [make_table(n_columns=i + 1, tag=f"t{i}") for i in range(4)]

        async def run():
            async with MicroBatcher(
                predictor, max_batch_size=8, max_wait_ms=10.0
            ) as batcher:
                return await batcher.submit_many(tables)

        results = asyncio.run(run())
        assert [len(labels) for labels in results] == [1, 2, 3, 4]

    def test_submit_many_rejected_wholesale_when_over_bound(self):
        predictor = RecordingPredictor()
        tables = [make_table(tag=f"t{i}") for i in range(5)]

        async def run():
            async with MicroBatcher(
                predictor, max_batch_size=8, max_wait_ms=1.0, max_queue=3
            ) as batcher:
                with pytest.raises(QueueFullError):
                    await batcher.submit_many(tables)

        asyncio.run(run())
        assert predictor.batch_sizes == []  # nothing was admitted

    def test_submit_many_admission_is_atomic_under_concurrent_traffic(self):
        """A rejected batch enqueues nothing, even while singles race it."""
        predictor = RecordingPredictor(delay=0.02)
        batch = [make_table(tag=f"b{i}") for i in range(3)]

        async def run():
            async with MicroBatcher(
                predictor, max_batch_size=1, max_wait_ms=0.0, max_queue=4
            ) as batcher:
                singles = [
                    asyncio.create_task(batcher.submit(make_table(tag=f"s{i}")))
                    for i in range(3)
                ]
                await asyncio.sleep(0)  # let the singles enqueue first
                outcome: list = []
                try:
                    outcome.append(await batcher.submit_many(batch))
                except QueueFullError as error:
                    outcome.append(error)
                await asyncio.gather(*singles, return_exceptions=True)
                return outcome[0], batcher.metrics

        outcome, metrics = asyncio.run(run())
        # 3 singles fill the queue to 3 of 4; the 3-table batch cannot fit,
        # so it must be rejected with not a single table of it enqueued.
        assert isinstance(outcome, QueueFullError)
        assert metrics.admitted == 3  # only the singles
        assert metrics.completed == 3
        assert sum(predictor.batch_sizes) == 3  # no batch table reached the model

    def test_policy_validation(self):
        predictor = RecordingPredictor()
        with pytest.raises(ValueError):
            MicroBatcher(predictor, max_batch_size=0)
        with pytest.raises(ValueError):
            MicroBatcher(predictor, max_wait_ms=-1.0)
        with pytest.raises(ValueError):
            MicroBatcher(predictor, max_queue=0)


class TestDispatchBatch:
    """The shared batch core (MicroBatcher and fleet workers both run it)."""

    def test_bisects_a_failing_batch_and_accounts_every_request(self):
        tags = ["t0", "bad", "t2", "t3"]
        batch = [
            _Pending(table=make_table(tag=tag), reply=rid)
            for rid, tag in enumerate(tags)
        ]
        context = SpanContext("a" * 16, "b" * 8)
        batch[2].context = context
        metrics = ServingMetrics()
        outcomes, anchor = dispatch_batch(
            BadTablePredictor(), batch, metrics, "worker.batch"
        )
        assert anchor == context
        assert isinstance(outcomes[1], ValueError)
        served = [outcomes[0], outcomes[2], outcomes[3]]
        assert [labels for labels, _version, _info in served] == [
            ["t0", "t0"], ["t2", "t2"], ["t3", "t3"]
        ]
        # Each outcome carries the version of the call that served it.
        assert [version for _labels, version, _info in served] == [
            "t0", "t2+t3", "t2+t3"
        ]
        assert all(info["batch_size"] == 4 for _labels, _version, info in served)
        snap = metrics.snapshot()
        assert snap["requests"]["errors"] == 1
        assert snap["requests"]["completed"] == 3
        assert snap["columns"]["tables"] == 3
        assert snap["queue_wait_ms"]["window"] == 4
        # The batch span was recorded under the anchor request's context.
        spans = get_tracer().trace(context.trace_id)
        assert [span.name for span in spans] == ["worker.batch"]
        assert spans[0].parent_id == context.span_id

    def test_each_queue_wait_is_recorded_once(self):
        """A queue wait is not a span: it lands in the metrics window only."""
        batch = [
            _Pending(table=make_table(tag=f"t{rid}"), reply=rid) for rid in range(5)
        ]
        metrics = ServingMetrics()
        dispatch_batch(RecordingPredictor(), batch, metrics, "worker.batch")
        assert metrics.snapshot()["queue_wait_ms"]["window"] == len(batch)
        stages = get_tracer().stages.snapshot()
        assert "worker.batch" in stages  # the tracer is recording
        assert "queue.wait" not in stages


class TestServingMetrics:
    def test_snapshot_shape_and_counters(self):
        metrics = ServingMetrics(window=8)
        for latency in (0.001, 0.002, 0.003):
            metrics.record_admitted()
            metrics.record_request(latency)
        metrics.record_batch(n_tables=3, n_columns=7, seconds=0.004)
        metrics.record_rejected_queue_full()
        metrics.record_rejected_draining()
        metrics.record_malformed()
        metrics.record_error()
        snap = metrics.snapshot()
        assert snap["requests"]["admitted"] == 3
        assert snap["requests"]["completed"] == 3
        assert snap["requests"]["rejected_queue_full"] == 1
        assert snap["requests"]["rejected_draining"] == 1
        assert snap["requests"]["malformed"] == 1
        assert snap["requests"]["errors"] == 1
        assert snap["requests"]["qps"] > 0
        assert snap["batches"] == {
            "count": 1,
            "mean_size": 3.0,
            "size_histogram": {"3": 1},
            "model_seconds_total": 0.004,
        }
        assert snap["columns"]["served"] == 7
        assert snap["latency_ms"]["p50"] == pytest.approx(2.0)
        assert snap["latency_ms"]["max"] == pytest.approx(3.0)

    def test_latency_window_is_bounded(self):
        metrics = ServingMetrics(window=4)
        for i in range(100):
            metrics.record_request(float(i))
        snap = metrics.snapshot()
        assert snap["latency_ms"]["window"] == 4
        assert metrics.completed == 100  # the counter is not windowed

    def test_percentile_nearest_rank(self):
        assert _percentile([], 0.5) == 0.0
        values = [1.0, 2.0, 3.0, 4.0]
        assert _percentile(values, 0.0) == 1.0
        assert _percentile(values, 1.0) == 4.0
        assert _percentile(values, 0.5) in (2.0, 3.0)

    def test_concurrent_writers_lose_no_counts(self):
        """ServingMetrics is shared by the fleet's event loop, reader
        threads and worker dispatch; concurrent recording must be exact."""
        import threading

        metrics = ServingMetrics(window=256)
        n_threads, per_thread = 8, 500
        barrier = threading.Barrier(n_threads)
        snapshots: list[dict] = []

        def writer(index: int) -> None:
            barrier.wait()
            for i in range(per_thread):
                metrics.record_admitted()
                metrics.record_request(0.001 * (index + 1))
                metrics.record_batch(n_tables=1, n_columns=3, seconds=0.0005)
                if i % 50 == 0:
                    metrics.record_error()
                    metrics.record_rejected_queue_full()
                    snapshots.append(metrics.snapshot())

        threads = [
            threading.Thread(target=writer, args=(index,))
            for index in range(n_threads)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        expected = n_threads * per_thread
        snap = metrics.snapshot()
        assert snap["requests"]["admitted"] == expected
        assert snap["requests"]["completed"] == expected
        assert snap["requests"]["errors"] == n_threads * (per_thread // 50)
        assert snap["requests"]["rejected_queue_full"] == n_threads * (
            per_thread // 50
        )
        assert snap["batches"]["count"] == expected
        assert snap["columns"]["served"] == expected * 3
        assert snap["latency_ms"]["window"] == 256
        # Mid-flight snapshots taken under contention are internally sane.
        for mid in snapshots:
            assert mid["requests"]["completed"] <= expected
            assert mid["batches"]["count"] <= expected
