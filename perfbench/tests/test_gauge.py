"""The host-speed gauge's scaling arithmetic."""

import gc
from types import SimpleNamespace

import pytest

from pbench import gauge
from pbench.gauge import REFERENCE_S, Gauge


@pytest.fixture
def readings(monkeypatch):
    """Feed the gauge a fixed sequence of readings instead of timing."""
    queue = []
    monkeypatch.setattr(gauge, "read", lambda: queue.pop(0))
    monkeypatch.setattr(gauge, "reference_work", lambda: 0)
    return queue


def test_factor_uses_the_readings_around_a_slice(readings):
    readings.extend([1e-3, 3e-3, 2e-3])
    g = Gauge()
    # work between the 1 ms and the 3 ms reading ran at a mean of 2 ms
    assert g.factor() == pytest.approx(REFERENCE_S / 2e-3)
    assert g.factor() == pytest.approx(REFERENCE_S / 2.5e-3)
    assert g.readings == [1e-3, 3e-3, 2e-3]
    assert g.median_reading() == 2e-3


def test_timed_scales_the_call_by_the_readings_around_it(readings, monkeypatch):
    # the stale first reading is replaced by a fresh one before the call
    readings.extend([5e-3, 0.5e-3, 0.5e-3])
    clock = iter([10.0, 10.004])
    monkeypatch.setattr(gauge, "time", SimpleNamespace(thread_time=lambda: next(clock)))
    calls = []
    scaled = Gauge().timed(calls.append, "x")
    assert calls == ["x"]
    # 4 ms on a host running the reference in 0.5 ms: 8 ms at 1 ms
    assert scaled == pytest.approx(0.004 * REFERENCE_S / 0.5e-3)


def test_reading_leaves_the_collector_as_it_was():
    assert gauge.timed_reference() > 0
    assert gc.isenabled()
    gc.disable()
    try:
        gauge.timed_reference()
        assert not gc.isenabled()
    finally:
        gc.enable()
