import pytest

from servedbench.metrics import median, percentile, samples_needed


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 95) == 95
    assert percentile([3.0], 95) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_p95_needs_200_samples_for_ten_beyond():
    assert samples_needed(95) == 200
    assert samples_needed(50) == 20
    for n, beyond in ((200, 10), (199, 9)):
        samples = list(range(n))
        cut = percentile(samples, 95)
        assert sum(1 for value in samples if value > cut) == beyond


def test_shared_batch_latencies_count_once_per_batch():
    # 16 reads share each batch's latency: 200 batches keep 10 batches
    # (160 read samples) strictly above the read p95.
    batches = [float(b) for b in range(200)]
    reads = [latency for latency in batches for _ in range(16)]
    cut = percentile(reads, 95)
    assert sum(1 for latency in batches if latency > cut) == 10


def test_median_even_and_odd():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5
