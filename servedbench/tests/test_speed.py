import pytest

from servedbench.speed import BIN_SECONDS, REF_SECONDS, Scale, SpeedProbe


def test_scale_uses_the_median_of_each_window():
    b = BIN_SECONDS
    samples = [(0.1 * b, 2 * REF_SECONDS), (0.4 * b, 2 * REF_SECONDS), (0.7 * b, 9.0),
               (10.2 * b, REF_SECONDS), (10.5 * b, 3.0), (10.8 * b, REF_SECONDS / 4)]
    scale = Scale(samples)
    assert scale.factor(0.5 * b) == pytest.approx(0.5)
    assert scale.factor(10.6 * b) == pytest.approx(1.0)


def test_scale_falls_back_to_the_nearest_window():
    scale = Scale([(0.0, REF_SECONDS), (100 * BIN_SECONDS, REF_SECONDS / 2)])
    assert scale.factor(20 * BIN_SECONDS) == pytest.approx(1.0)
    assert scale.factor(80 * BIN_SECONDS) == pytest.approx(2.0)
    assert scale.factor(1000 * BIN_SECONDS) == pytest.approx(2.0)
    assert scale.factor(-3.0) == pytest.approx(1.0)


def test_scale_needs_samples():
    with pytest.raises(ValueError):
        Scale([])


def test_probe_rate_limits_bursts():
    probe = SpeedProbe()
    probe.tick()
    count = len(probe.samples)
    assert count > 0 and all(seconds > 0 for _, seconds in probe.samples)
    probe.tick()
    assert len(probe.samples) == count
    probe.tick(force=True)
    assert len(probe.samples) == 2 * count
