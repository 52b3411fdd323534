"""The host clock: calibration factors, burst reuse, the calibration
process's lifetime."""

import os

import hostspeed
from hostspeed import REFERENCE_KERNEL_S, HostClock


def fake_clock(monkeypatch, kernel_s):
    """A calibrated clock whose bursts report *kernel_s* per kernel run,
    without a calibration process; returns it and the list that counts
    the bursts."""
    calls = []

    def ask(self):
        calls.append(1)
        return [kernel_s] * hostspeed.BURST
    monkeypatch.setattr(HostClock, "_ask", ask)
    return HostClock(), calls


def test_a_unit_is_scaled_to_reference_speed(monkeypatch):
    clock, _ = fake_clock(monkeypatch, 2 * REFERENCE_KERNEL_S)
    with clock.unit() as unit:
        pass
    # The host ran the kernel at half the reference speed.
    assert unit.factor == 0.5
    assert unit.seconds == unit.wall * 0.5
    assert clock.factors == [0.5]


def test_back_to_back_units_share_a_burst(monkeypatch):
    clock, calls = fake_clock(monkeypatch, REFERENCE_KERNEL_S)
    with clock.unit():
        pass
    with clock.unit():
        pass
    # before + after for the first, only after for the second.
    assert len(calls) == 3


def test_a_stale_burst_is_not_reused(monkeypatch):
    clock, calls = fake_clock(monkeypatch, REFERENCE_KERNEL_S)
    with clock.unit():
        pass
    clock._last_at -= 2 * hostspeed.REUSE_S
    calls.clear()
    with clock.unit():
        pass
    assert len(calls) == 2


def test_uncalibrated_units_are_wall_time():
    with HostClock(calibrated=False) as clock:
        with clock.unit() as unit:
            pass
    assert clock._proc is None
    assert unit.factor == 1.0 and unit.seconds == unit.wall
    assert clock.factors == []


def test_the_calibration_process_answers_and_ends():
    allowed = os.sched_getaffinity(0)
    with HostClock() as clock:
        proc = clock._proc
        # Both processes share one CPU while the clock is open.
        pinned = os.sched_getaffinity(0)
        assert len(pinned) == 1 and pinned <= allowed
        assert os.sched_getaffinity(proc.pid) == pinned
        with clock.unit() as unit:
            pass
        assert len(clock._last) == hostspeed.BURST
    assert unit.factor > 0
    assert proc.returncode == 0
    assert os.sched_getaffinity(0) == allowed


def test_the_kernel_is_deterministic():
    table = hostspeed.make_table(10)
    first = hostspeed.kernel(table, 500)
    assert first == hostspeed.kernel(hostspeed.make_table(10), 500) > 0
