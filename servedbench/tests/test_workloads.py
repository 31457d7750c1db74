import random

from servedbench.workloads import (
    CLIENTS,
    DELETE,
    INSERT,
    READ,
    WORKLOADS,
    Traffic,
    ZipfSampler,
    make_points,
    range_pool,
)


def _zipf_draws(seed, count=2000):
    sampler = ZipfSampler(512, 1.1, random.Random(seed))
    return [sampler.draw() for _ in range(count)]


def test_zipf_repeats_for_the_same_seed_and_is_skewed():
    draws = _zipf_draws(7)
    assert draws == _zipf_draws(7)
    assert draws != _zipf_draws(8)
    assert all(0 <= rank < 512 for rank in draws)
    assert draws.count(0) > draws.count(1) > draws.count(100)


def test_range_pool_repeats_for_the_same_seed_and_stays_in_bounds():
    pool = range_pool(3)
    assert pool == range_pool(3)
    assert pool != range_pool(4)
    for predicate in pool:
        width = predicate.hi - predicate.lo
        assert 0.01 * 1e6 <= width <= 0.5 * 1e6
        assert 0.0 <= predicate.lo and predicate.hi <= 1e6


def test_points_have_distinct_weights_and_repeat():
    points = make_points(1000, 5)
    assert points == make_points(1000, 5)
    assert len({p.weight for p in points}) == 1000


def _stream(name, seed, steps=50):
    points = make_points(100, seed)
    traffic = Traffic(WORKLOADS[name], seed, (p.weight for p in points))
    return [traffic.step() for _ in range(steps)]


def test_traffic_repeats_for_the_same_seed():
    for name in WORKLOADS:
        assert _stream(name, 2) == _stream(name, 2)
        assert _stream(name, 2) != _stream(name, 3)


def test_mixed_write_deletes_only_points_it_inserted():
    steps = _stream("mixed-write", 4, steps=200)
    inserted = set()
    kinds = set()
    for ops in steps:
        assert len(ops) == CLIENTS
        for op in ops:
            kinds.add(op.kind)
            if op.kind == INSERT:
                inserted.add(op.element)
            elif op.kind == DELETE:
                assert op.element in inserted
                inserted.remove(op.element)
    assert kinds == {READ, INSERT, DELETE}


def test_selective_reads_are_narrow_and_fresh():
    reads = [op for ops in _stream("selective-cold", 1) for op in ops]
    assert all(op.kind == READ and op.k == 10 for op in reads)
    assert all(abs(op.predicate.hi - op.predicate.lo - 400.0) < 1e-6 for op in reads)
    assert len({(op.predicate.lo, op.predicate.hi) for op in reads}) == len(reads)
