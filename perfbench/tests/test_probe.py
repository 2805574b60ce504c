"""The host-speed probe and the reference-seconds correction."""

import math
import os
import sys
import time

import pytest

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HERE)

import probe  # noqa: E402
from probe import SpeedProbe, schedulable_cpus  # noqa: E402
from run import to_reference  # noqa: E402


def synthetic(samples):
    """A probe without threads, holding *samples*."""
    fake = SpeedProbe([])
    fake.samples = list(samples)
    return fake


def at_speed(times, slowdown):
    """Samples at *times* of a host *slowdown* times slower than the
    reference, as both probe parts see it."""
    return [
        (t, probe.REFERENCE_COMPUTE_S * slowdown,
         probe.REFERENCE_MEMORY_S * slowdown)
        for t in times
    ]


def test_reference_seconds_divide_by_the_slowdown_inside_the_interval():
    # Normal speed over [0, 10), half speed over [10, 20].
    samples = at_speed([0.5 * k for k in range(20)], 1.0)
    samples += at_speed([10 + 0.5 * k for k in range(21)], 2.0)
    fake = synthetic(samples)
    assert fake.reference(0.0, 9.9) == pytest.approx(9.9)
    assert fake.reference(10.0, 20.0) == pytest.approx(5.0)
    assert fake.slowdown(10.0, 20.0) == pytest.approx(2.0)


def test_slowdown_is_the_geometric_mean_of_the_two_parts():
    fake = synthetic([
        (k, probe.REFERENCE_COMPUTE_S * 1.21, probe.REFERENCE_MEMORY_S)
        for k in range(10)
    ])
    assert fake.slowdown() == pytest.approx(math.sqrt(1.21))


def test_an_interval_with_few_samples_uses_all_of_them():
    samples = at_speed(range(10), 1.0) + at_speed(range(10, 20), 3.0)
    fake = synthetic(samples)
    assert len([s for s in samples if 19 <= s[0] <= 30]) < probe.MIN_SAMPLES
    # All twenty samples: both parts average twice the reference time.
    assert fake.slowdown(19.0, 30.0) == pytest.approx(2.0)


def test_to_reference_keeps_the_measured_seconds_under_raw():
    fake = synthetic(at_speed([0.1 * k for k in range(200)], 2.0))
    m = {
        "setup_s": 2.0, "wall_s": 12.0, "campaign_s": 8.0,
        "artifacts_s": 1.0, "epochs_s": [9.0],
        "windows": {
            "setup_s": [(0.0, 2.0)],
            "wall_s": [(0.0, 12.0)],
            "campaign_s": [(2.5, 10.5)],
            "epochs_s": [[(2.5, 10.5), (10.5, 11.5)]],
        },
    }
    to_reference(m, fake)
    assert "windows" not in m
    assert m["raw"]["wall_s"] == 12.0 and m["raw"]["epochs_s"] == [9.0]
    assert m["setup_s"] == pytest.approx(1.0)
    assert m["wall_s"] == pytest.approx(6.0)
    assert m["campaign_s"] == pytest.approx(4.0)
    assert m["epochs_s"] == [pytest.approx(4.5)]
    assert m["slowdown"] == pytest.approx(2.0)


@pytest.mark.skipif(not schedulable_cpus(), reason="no CPU affinity here")
def test_probe_threads_sample_on_their_cpu():
    before = schedulable_cpus()
    cpu = before[-1]
    live = SpeedProbe([cpu], period=0.05)
    live.start()
    time.sleep(0.6)
    live.stop()
    assert len(live.samples) >= 3
    assert all(c > 0 and m > 0 for _t, c, m in live.samples)
    # Pinning the probe thread leaves the calling thread's CPUs alone.
    assert schedulable_cpus() == before
