"""Tests for the host-speed probe.

    python3 -m pytest perfbench/tests
"""

import signal
import time

import hostspeed as hs


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_scale_uses_the_mean_speed_over_the_probes():
    # Half the region at reference speed, half at half of it.
    probes = [hs.REFERENCE_S, 2 * hs.REFERENCE_S]
    assert abs(hs.scale(4.0, probes) - 4.0 * 0.75) < 1e-12


def test_timed_subtracts_probes_inside_and_scales_by_them():
    clock = FakeClock()
    speed = hs.HostSpeed(clock, lambda: setattr(clock, "now", clock.now + 0.01))

    def fn():
        for _ in range(hs.BRACKET):
            clock.now += 1.0
            speed._on_alarm(signal.SIGALRM, None)    # as if the timer fired
        return "done"

    out, elapsed, scaled = speed.timed(fn, sample=False)
    assert out == "done"
    assert abs(elapsed - hs.BRACKET) < 1e-9
    assert len(speed.probes) == hs.BRACKET
    assert abs(scaled - hs.BRACKET * hs.REFERENCE_S / 0.01) < 1e-9


def test_a_short_region_is_scaled_by_probes_after_it():
    clock = FakeClock()
    step = {"dt": 0.01}
    speed = hs.HostSpeed(clock, lambda: setattr(clock, "now", clock.now + step["dt"]))

    def fn():
        clock.now += 1.0
        step["dt"] = 0.02

    _, elapsed, scaled = speed.timed(fn, sample=False)
    assert elapsed == 1.0
    assert len(speed.probes) == hs.BRACKET
    assert all(abs(p - 0.02) < 1e-9 for p in speed.probes)
    assert abs(scaled - hs.REFERENCE_S / 0.02) < 1e-9


def test_the_unprobed_clock_stands_still_during_a_probe():
    clock = FakeClock()
    speed = hs.HostSpeed(clock, lambda: setattr(clock, "now", clock.now + 0.5))
    start = speed.unprobed_clock()
    clock.now += 1.0
    speed._on_alarm(signal.SIGALRM, None)
    clock.now += 1.0
    assert speed.unprobed_clock() - start == 2.0


def test_sampling_probes_during_the_block_and_restores_the_timer():
    def handler(signum, frame):
        pass

    previous = signal.signal(signal.SIGALRM, handler)
    try:
        speed = hs.HostSpeed(work=lambda: None)
        with speed.sampling(interval=0.01):
            end = time.monotonic() + 0.2
            while time.monotonic() < end:
                pass
        assert len(speed.probes) >= 5
        assert speed.stolen > 0
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert signal.getsignal(signal.SIGALRM) is handler
    finally:
        signal.signal(signal.SIGALRM, previous)
