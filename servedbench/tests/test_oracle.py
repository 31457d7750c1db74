import random

import pytest

from repro.core.problem import Element, top_k_of
from repro.structures import RangePredicate1D
from servedbench.oracle import RangeOracle


@pytest.mark.parametrize("seed", range(5))
def test_oracle_matches_top_k_of_through_writes(seed):
    rng = random.Random(seed)
    weights = rng.sample(range(10_000), 400)
    live = [Element(float(rng.randrange(100)), float(w)) for w in weights[:200]]
    spare = [Element(float(rng.randrange(100)), float(w)) for w in weights[200:]]
    oracle = RangeOracle(live)
    for _ in range(300):
        roll = rng.random()
        if roll < 0.2 and spare:
            element = spare.pop()
            live.append(element)
            oracle.insert(element)
        elif roll < 0.4 and live:
            element = live.pop(rng.randrange(len(live)))
            oracle.delete(element)
        lo = float(rng.randrange(100))
        hi = lo + rng.randrange(30)
        k = rng.randint(1, 40)
        expected = [e.weight for e in top_k_of(live, RangePredicate1D(lo, hi), k)]
        assert oracle.top_weights(lo, hi, k) == expected
        assert len(oracle) == len(live)


def test_oracle_memo_serves_smaller_and_larger_k():
    points = [Element(float(i), float(i)) for i in range(50)]
    oracle = RangeOracle(points)
    assert oracle.top_weights(10, 40, 3) == [40.0, 39.0, 38.0]
    assert oracle.top_weights(10, 40, 25) == [float(w) for w in range(40, 15, -1)]
    assert oracle.top_weights(45, 60, 30) == [49.0, 48.0, 47.0, 46.0, 45.0]


def test_oracle_delete_of_missing_point_raises():
    oracle = RangeOracle([Element(1.0, 0.5)])
    with pytest.raises(KeyError):
        oracle.delete(Element(1.0, 0.25))
