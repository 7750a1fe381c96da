"""Scaling timings to the reference speed."""

import pytest

from perfbench.hostspeed import REFERENCE_MS, HostSpeed, reference_piece


def test_a_slow_host_scales_timings_down_and_a_fast_one_up():
    slow = HostSpeed([REFERENCE_MS * 2] * 3)
    fast = HostSpeed([REFERENCE_MS / 2] * 3)
    assert slow.scale(10.0) == pytest.approx(5.0)
    assert fast.scale(10.0) == pytest.approx(20.0)


def test_the_mean_piece_sets_the_speed():
    # One slow moment in four pieces slows the host by a quarter on average.
    host = HostSpeed([REFERENCE_MS, REFERENCE_MS, REFERENCE_MS, 2 * REFERENCE_MS])
    assert host.scale(1.25) == pytest.approx(1.0)


def test_sampling_times_the_reference_piece():
    host = HostSpeed()
    host.sample(pieces=2)
    assert len(host.samples) == 2
    assert all(ms > 0 for ms in host.samples)
    assert "reference piece mean" in host.summary()


def test_scaling_without_samples_fails():
    with pytest.raises(ValueError):
        HostSpeed().scale(1.0)


def test_the_reference_piece_does_the_same_work_every_time():
    assert reference_piece() == reference_piece()
