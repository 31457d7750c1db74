"""Tests for the Theorem 2 (expected, no-degradation) reduction."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import oracle_top_k
from repro.core.params import TuningParams
from repro.core.problem import Element
from repro.core.theorem2 import ExpectedTopKIndex
from repro.structures.range1d import RangePredicate1D
from repro.structures.range1d_dynamic import DynamicRangeTreap
from toy import BrokenMax, LyingMax, RangePredicate, ToyMax, ToyPrioritized, make_toy_elements


def build(n=600, seed=0, max_factory=ToyMax, **kwargs):
    elements = make_toy_elements(n, seed)
    index = ExpectedTopKIndex(elements, ToyPrioritized, max_factory, seed=seed, **kwargs)
    return elements, index


def random_predicate(rng, n):
    a, b = sorted((rng.uniform(0, 10 * n), rng.uniform(0, 10 * n)))
    return RangePredicate(a, b)


class TestCorrectness:
    def test_exact_across_k(self):
        elements, index = build()
        rng = random.Random(1)
        for _ in range(40):
            p = random_predicate(rng, 600)
            for k in (1, 3, 17, 80, 400):
                assert index.query(p, k) == oracle_top_k(elements, p, k)

    def test_k_one_is_max_reporting(self):
        elements, index = build(n=300)
        rng = random.Random(2)
        for _ in range(25):
            p = random_predicate(rng, 300)
            expect = oracle_top_k(elements, p, 1)
            assert index.query(p, 1) == expect

    def test_k_zero(self):
        _, index = build(n=50)
        assert index.query(RangePredicate(0, 100), 0) == []

    def test_empty_dataset(self):
        index = ExpectedTopKIndex([], ToyPrioritized, ToyMax)
        assert index.query(RangePredicate(0, 1), 5) == []

    def test_k_beyond_ladder_scans(self):
        elements, index = build(n=400)
        before = index.stats.full_scans
        p = RangePredicate(-1, math.inf)
        result = index.query(p, 399)
        assert result == oracle_top_k(elements, p, 399)
        assert index.stats.full_scans > before

    def test_sorted_descending(self):
        elements, index = build(n=300)
        result = index.query(RangePredicate(0, math.inf), 40)
        weights = [e.weight for e in result]
        assert weights == sorted(weights, reverse=True)


class TestLadder:
    def test_ladder_heights(self):
        _, index = build(n=2000)
        assert index.num_levels == len(index.ladder_sample_sizes())
        # K_h <= n/4 with K_1 = B * log2(n) and ratio (1 + sigma).
        K1 = 2 * math.log2(2000)
        expected_h = int(math.log((2000 / 4) / K1) / math.log(1 + index.params.sigma)) + 1
        assert abs(index.num_levels - expected_h) <= 1

    def test_sample_sizes_decrease_in_expectation(self):
        _, index = build(n=4000)
        sizes = index.ladder_sample_sizes()
        assert sizes[0] > sizes[-1]

    def test_tiny_input_has_no_ladder(self):
        _, index = build(n=10)
        assert index.num_levels == 0  # every query scans

    def test_space_dominated_by_ground_plus_small_ladder(self):
        elements, index = build(n=3000)
        ground = index._ground.space_units()
        assert index.space_units() <= ground + 3 * sizes_sum(index)


def sizes_sum(index):
    return max(1, sum(index.ladder_sample_sizes()))


class TestFailureInjection:
    def test_broken_max_still_exact(self):
        """A max structure that never answers forces every round to fail;
        escalation must end in the exact full scan.  Pin ``columnar=False``
        so every query exercises the ladder rounds rather than the
        columnar bounded scan (which never consults the max structure)."""
        elements, index = build(n=400, max_factory=BrokenMax, columnar=False)
        rng = random.Random(3)
        for _ in range(20):
            p = random_predicate(rng, 400)
            k = rng.choice([1, 5, 40])
            assert index.query(p, k) == oracle_top_k(elements, p, k)
        assert index.stats.fallbacks > 0

    def test_lying_max_still_exact(self):
        """A max structure probing the *minimum* gives thresholds that
        overshoot the cost monitor; rounds must detect and escalate."""
        elements, index = build(n=400, max_factory=LyingMax)
        rng = random.Random(4)
        for _ in range(20):
            p = random_predicate(rng, 400)
            k = rng.choice([1, 5, 40])
            assert index.query(p, k) == oracle_top_k(elements, p, k)


class TestUpdates:
    def test_insert_then_query(self):
        elements, index = build(n=200, seed=5)
        extra = make_toy_elements(80, seed=99, weight_offset=2000.0)
        current = list(elements)
        for e in extra:
            index.insert(e)
            current.append(e)
        rng = random.Random(6)
        for _ in range(20):
            p = random_predicate(rng, 300)
            assert index.query(p, 9) == oracle_top_k(current, p, 9)

    def test_delete_then_query(self):
        elements, index = build(n=300, seed=7)
        current = list(elements)
        for e in elements[:120]:
            index.delete(e)
            current.remove(e)
        rng = random.Random(8)
        for _ in range(20):
            p = random_predicate(rng, 300)
            assert index.query(p, 6) == oracle_top_k(current, p, 6)

    def test_insert_duplicate_raises(self):
        elements, index = build(n=50)
        with pytest.raises(KeyError):
            index.insert(elements[0])

    def test_delete_missing_raises(self):
        _, index = build(n=50)
        from repro.core.problem import Element

        with pytest.raises(KeyError):
            index.delete(Element(-12345, 0.5))

    def test_mixed_workload(self):
        elements, index = build(n=250, seed=9)
        pool = make_toy_elements(400, seed=123, weight_offset=2500.0)[250:]
        current = list(elements)
        rng = random.Random(10)
        for step, e in enumerate(pool):
            index.insert(e)
            current.append(e)
            if step % 3 == 0:
                victim = current.pop(rng.randrange(len(current)))
                index.delete(victim)
            if step % 10 == 0:
                p = random_predicate(rng, 400)
                assert index.query(p, 8) == oracle_top_k(current, p, 8)

    def test_rebuild_triggers_on_growth(self):
        elements, index = build(n=64, seed=11)
        built = index._built_n
        for e in make_toy_elements(200, seed=321, weight_offset=640.0)[64:]:
            index.insert(e)
        assert index._built_n > built  # at least one rebuild happened

    def test_update_requires_dynamic_structures(self):
        from repro.core.interfaces import OpCounter, PrioritizedResult, PrioritizedIndex
        from repro.core.problem import Element

        class StaticPrioritized(PrioritizedIndex):
            def __init__(self, elements):
                self.ops = OpCounter()
                self._elements = list(elements)

            @property
            def n(self):
                return len(self._elements)

            def query(self, predicate, tau, limit=None):
                out = [
                    e
                    for e in self._elements
                    if e.weight >= tau and predicate.matches(e.obj)
                ]
                return PrioritizedResult(out, truncated=False)

        elements = make_toy_elements(50, 12)
        index = ExpectedTopKIndex(elements, StaticPrioritized, ToyMax)
        with pytest.raises(TypeError, match="Dynamic"):
            index.insert(Element(-1, 0.25))


class TestPreconditions:
    def test_duplicate_weights_rejected_at_construction(self):
        from repro.core.problem import Element
        from repro.resilience.errors import ContractViolation

        tied = [Element(0, 5.0), Element(1, 5.0)]
        with pytest.raises(ContractViolation, match="distinct-weights"):
            ExpectedTopKIndex(tied, ToyPrioritized, ToyMax)

    def test_insert_colliding_weight_rejected(self):
        from repro.core.problem import Element
        from repro.resilience.errors import ContractViolation

        elements, index = build(n=60, seed=20)
        clash = Element(-99, elements[0].weight)  # new element, old weight
        with pytest.raises(ContractViolation, match="duplicates an indexed weight"):
            index.insert(clash)
        # The failed insert left no trace: a fresh weight still works.
        index.insert(Element(-99, elements[0].weight + 0.5))


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(5, 200),
    seed=st.integers(0, 1000),
    k=st.integers(1, 250),
    qseed=st.integers(0, 1000),
)
def test_property_matches_oracle(n, seed, k, qseed):
    elements = make_toy_elements(n, seed)
    index = ExpectedTopKIndex(elements, ToyPrioritized, ToyMax, seed=seed)
    rng = random.Random(qseed)
    p = random_predicate(rng, n)
    assert index.query(p, k) == oracle_top_k(elements, p, k)


class CountingTreap(DynamicRangeTreap):
    """The prioritized black box, counting its prioritized calls."""

    prioritized_calls = 0

    def query(self, predicate, tau=None, limit=None):
        if tau is not None:
            CountingTreap.prioritized_calls += 1
        return super().query(predicate, tau, limit)


#: Column positions one query may examine, at every n: the bounded
#: direct scan's ceiling (16 * cap, reached only when the observed match
#: rate predicts k matches within it) with cap <= 160 at these sizes.
COLUMN_POSITION_BUDGET = 2560
#: The typical selective query stops at 4 * cap, about one 512-position
#: chunk.
MEAN_COLUMN_POSITIONS = 1024


@pytest.fixture(scope="module", params=[5_000, 40_000])
def treap_index(request):
    n = request.param
    rng = random.Random(n)
    weights = rng.sample(range(10 * n), n)
    elements = [Element(rng.uniform(0, 1e6), float(w)) for w in weights]
    index = ExpectedTopKIndex(elements, CountingTreap, DynamicRangeTreap, seed=n)
    return n, elements, index


class TestCostBound:
    """Theorem 2's cost on the RAM (auto-columnar) path, not only answers."""

    def test_index_is_columnar(self, treap_index):
        assert treap_index[2]._columnar

    def test_selective_queries_scan_a_bounded_prefix(self, treap_index):
        n, elements, index = treap_index
        xs = sorted(e.obj for e in elements)
        rng = random.Random(1)
        CountingTreap.prioritized_calls = 0
        positions = 0
        for _ in range(50):
            i = rng.randrange(1, n - 21)
            matches = rng.randint(0, 20)
            lo = (xs[i - 1] + xs[i]) / 2
            hi = (xs[i + matches - 1] + xs[i + matches]) / 2 if matches else lo
            p = RangePredicate1D(lo, hi)
            index.stats.reset()
            assert index.query(p, 10) == oracle_top_k(elements, p, 10)
            assert index.stats.column_positions <= COLUMN_POSITION_BUDGET, (
                f"n={n}: a query with {matches} matches examined "
                f"{index.stats.column_positions} column positions"
            )
            positions += index.stats.column_positions
        assert positions / 50 <= MEAN_COLUMN_POSITIONS
        # The scan could not decide most of them, so the paper's rounds ran.
        assert CountingTreap.prioritized_calls >= 25

    def test_repeat_answers_from_the_rounds_seed(self, treap_index):
        """A repeat at larger k (the sharded coordinator's k' escalation)
        answers from what the first visit's rounds seeded, not by
        scanning again."""
        n, elements, index = treap_index
        xs = sorted(e.obj for e in elements)
        i = n // 2
        p = RangePredicate1D((xs[i - 1] + xs[i]) / 2, (xs[i + 14] + xs[i + 15]) / 2)
        index.stats.reset()
        assert index.query(p, 10) == oracle_top_k(elements, p, 10)
        assert index.stats.monitored_probes >= 1  # the rounds answered
        CountingTreap.prioritized_calls = 0
        index.stats.reset()
        assert index.query(p, 20) == oracle_top_k(elements, p, 20)
        assert CountingTreap.prioritized_calls == 0
        assert index.stats.column_positions == 0
        assert index.stats.column_scans == 1

    def test_broad_queries_make_no_structure_calls(self, treap_index):
        n, elements, index = treap_index
        rng = random.Random(2)
        CountingTreap.prioritized_calls = 0
        index.stats.reset()
        for _ in range(50):
            width = rng.uniform(0.05, 0.5) * 1e6
            lo = rng.uniform(0, 1e6 - width)
            p = RangePredicate1D(lo, lo + width)
            assert index.query(p, 10) == oracle_top_k(elements, p, 10)
        assert CountingTreap.prioritized_calls == 0
        assert index.stats.column_scans == 50
        assert index.stats.monitored_probes == 0
