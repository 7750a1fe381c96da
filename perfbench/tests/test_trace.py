"""Spans, self time from nested and concurrent spans, and layer metrics."""

import asyncio
import threading

import pytest

from perfbench.layers import layer_metrics
from perfbench.trace import (
    EntryPoint,
    Recorder,
    Span,
    clip,
    depths,
    exclusive_times,
    install,
    roots,
)


def span(id, parent, start, end, layer="x", kind="k", meta=None):
    return Span(id, parent, f"s{id}", layer, kind, start, end, meta or {})


def test_self_time_is_the_span_minus_its_children():
    spans = [
        span(1, None, 0.0, 10.0),
        span(2, 1, 1.0, 4.0),
        span(3, 2, 2.0, 3.0),
        span(4, 1, 6.0, 9.0),
    ]
    assert exclusive_times(spans) == pytest.approx({1: 4.0, 2: 2.0, 3: 1.0, 4: 3.0})


def test_concurrent_trees_partition_wall_time():
    # Two requests overlap; the deepest open span owns each instant, so the
    # self times add up to the union of the spans, not to their sum.
    spans = [
        span(1, None, 0.0, 6.0),
        span(2, 1, 1.0, 5.0),
        span(3, None, 2.0, 8.0),
        span(4, 3, 3.0, 4.0),
    ]
    result = exclusive_times(spans)
    assert sum(result.values()) == pytest.approx(8.0)
    # Span 2 (depth 1) beats span 3 (depth 0) while both are open, except
    # where span 4 (depth 1, started later) wins the tie.
    assert result == pytest.approx({1: 1.0, 2: 3.0, 3: 3.0, 4: 1.0})


def test_background_spans_only_keep_uncovered_time():
    spans = [span(1, None, 1.0, 3.0), span(-1, None, 0.0, 4.0)]
    result = exclusive_times(spans, background={-1})
    assert result == pytest.approx({1: 2.0, -1: 2.0})


def test_depths_and_roots_treat_a_missing_parent_as_a_root():
    spans = [span(2, 1, 0.0, 1.0), span(3, 2, 0.0, 1.0), span(4, 3, 0.0, 1.0)]
    assert depths(spans) == {2: 0, 3: 1, 4: 2}
    assert roots(spans) == {2: 2, 3: 2, 4: 2}


def test_clip_cuts_spans_to_the_window():
    kept = clip([span(1, None, 0.0, 5.0), span(2, None, 6.0, 7.0)], 1.0, 5.5)
    assert [(s.id, s.start, s.end) for s in kept] == [(1, 1.0, 5.0)]


class Worker:
    def outer(self, items):
        return [self.inner(item) for item in items]

    def inner(self, item):
        return item * 2

    async def handle(self, value):
        await asyncio.sleep(0.001)
        return self.inner(value)


MODULE = __name__


def test_install_wraps_methods_and_nests_spans():
    recorder = Recorder()
    restore = install(recorder, [
        EntryPoint(MODULE, "Worker.outer", "a", "batch",
                   meta=lambda args, kwargs, result: {"n": len(args[1])}),
        EntryPoint(MODULE, "Worker.inner", "b", "item"),
    ])
    try:
        assert Worker().outer([1, 2]) == [2, 4]
    finally:
        restore()
    outer = [s for s in recorder.spans if s.name == "Worker.outer"]
    inner = [s for s in recorder.spans if s.name == "Worker.inner"]
    assert len(outer) == 1 and outer[0].meta == {"n": 2}
    assert [s.parent for s in inner] == [outer[0].id] * 2


def test_concurrent_tasks_keep_separate_parents():
    recorder = Recorder()
    restore = install(recorder, [
        EntryPoint(MODULE, "Worker.handle", "server", "request"),
        EntryPoint(MODULE, "Worker.inner", "b", "item"),
    ])

    async def main():
        worker = Worker()
        return await asyncio.gather(*(worker.handle(i) for i in range(4)))

    try:
        assert asyncio.run(main()) == [0, 2, 4, 6]
    finally:
        restore()
    handles = {s.id for s in recorder.spans if s.name == "Worker.handle"}
    inner = [s for s in recorder.spans if s.name == "Worker.inner"]
    assert len(handles) == 4
    assert sorted(s.parent for s in inner) == sorted(handles)


def test_a_span_on_another_thread_adopts_the_oldest_open_anchor():
    recorder = Recorder()
    first = recorder.open("submit")
    second = recorder.open("submit")
    restore = install(recorder, [
        EntryPoint(MODULE, "Worker.inner", "predictor", "batch", adopt=("submit",)),
    ])
    try:
        thread = threading.Thread(target=Worker().inner, args=(1,))
        thread.start()
        thread.join(5)
        assert not thread.is_alive()
    finally:
        restore()
    recorder.close(second, "submit", "scheduler", "submit", {})
    recorder.close(first, "submit", "scheduler", "submit", {})
    batch = next(s for s in recorder.spans if s.layer == "predictor")
    assert batch.parent == first[0]


class Boom:
    def call(self, item):
        raise ValueError(item)


def test_a_failed_call_is_recorded_reraised_and_undone():
    recorder = Recorder()
    original = Boom.__dict__["call"]
    restore = install(recorder, [
        EntryPoint(MODULE, "Boom.call", "x", "k", meta=lambda *a: {"never": 1}),
    ])
    try:
        with pytest.raises(ValueError):
            Boom().call(3)
    finally:
        restore()
    assert Boom.__dict__["call"] is original
    assert recorder.spans[0].meta == {"error": True}


def test_iterate_records_one_span_per_item():
    recorder = Recorder()
    items = list(recorder.iterate(iter([3, 4]), "read", "ingest", "read",
                                  meta=lambda item: {"rows": item}))
    assert items == [3, 4]
    rows = [s.meta.get("rows") for s in recorder.spans]
    assert rows == [3, 4, None]  # the last span is the final, empty read


def test_layer_metrics_shares_and_coverage():
    spans = [
        span(1, None, 0.0, 10.0, "server", "request"),
        span(2, 1, 0.0, 8.0, "predictor", "batch", {"tables": 4}),
        span(3, 2, 1.0, 7.0, "topic", "infer", {"tables": 4, "tokens": 400}),
    ]
    background = [span(-1, None, 0.0, 12.0, "benchmark", "op")]
    metrics = layer_metrics(spans, background)
    assert metrics["topic.share"] == pytest.approx(0.6)
    assert metrics["predictor.share"] == pytest.approx(0.2)
    assert metrics["server.share"] == pytest.approx(0.2)
    assert metrics["trace.coverage"] == pytest.approx(10.0 / 12.0)
    assert metrics["topic.tables"] == 4
    assert metrics["topic.tokens_per_table"] == 100
    assert metrics["topic.ms_per_table"] == pytest.approx(1500.0)
    assert metrics["scheduler.batches"] == 1
    assert metrics["server.requests"] == 1
    assert metrics["ingest.rows"] == 0
