"""Failure accounting in the closed loop."""

import math
import threading
import time

from perfbench.serve import closed_loop


def test_every_attempt_is_counted_and_failures_are_infinitely_slow():
    def operation(index):
        if index % 4 == 1:
            return False, "HTTP 500", None
        if index % 4 == 2:
            raise ConnectionResetError("peer went away")
        return True, "", None

    result = closed_loop(operation, n_inputs=40, seconds=5.0, clients=2)
    assert result.exhausted
    assert sorted(s.index for s in result.samples) == list(range(40))
    failed = result.failed
    assert len(failed) == 20
    assert all(math.isinf(s.latency_ms) for s in failed)
    assert any("ConnectionResetError" in s.detail for s in failed)
    assert all(not math.isinf(s.latency_ms) for s in result.samples if s.ok)


def test_no_operation_starts_after_the_deadline_and_clients_bound_concurrency():
    in_flight = [0]
    peak = [0]
    lock = threading.Lock()

    def operation(index):
        with lock:
            in_flight[0] += 1
            peak[0] = max(peak[0], in_flight[0])
        time.sleep(0.01)
        with lock:
            in_flight[0] -= 1
        return True, "", None

    started = time.monotonic()
    result = closed_loop(operation, n_inputs=10_000, seconds=0.2, clients=2)
    assert not result.exhausted
    assert peak[0] <= 2
    assert all(s.start < started + 0.2 for s in result.samples)
    assert result.seconds >= 0.2
    assert 10 <= len(result.samples) < 100


def test_the_operation_interval_replaces_the_call_time():
    def operation(index):
        now = time.monotonic()
        return True, "", (now, now + 0.5)

    result = closed_loop(operation, n_inputs=3, seconds=5.0, clients=1)
    assert [round(s.latency_ms) for s in result.samples] == [500, 500, 500]
