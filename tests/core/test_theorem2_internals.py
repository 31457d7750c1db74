"""White-box tests for Theorem 2's ladder and round machinery."""

import math
import random

import pytest

from oracles import oracle_top_k
from repro.core.params import TuningParams
from repro.core.theorem2 import ExpectedTopKIndex
from toy import RangePredicate, ToyMax, ToyPrioritized, make_toy_elements


def build(n=1000, seed=0, **kwargs):
    elements = make_toy_elements(n, seed)
    return elements, ExpectedTopKIndex(elements, ToyPrioritized, ToyMax, seed=seed, **kwargs)


class TestLadderConstruction:
    def test_K_follows_geometric_formula(self):
        _, index = build(n=4000)
        sigma = index.params.sigma
        for a, b in zip(index._K, index._K[1:]):
            assert b == pytest.approx(a * (1 + sigma))

    def test_K1_is_B_times_qmax(self):
        elements = make_toy_elements(4000, 1)
        index = ExpectedTopKIndex(elements, ToyPrioritized, ToyMax, B=8, seed=1)
        assert index._K[0] == pytest.approx(8 * math.log2(4000))

    def test_custom_q_max_bound(self):
        elements = make_toy_elements(1000, 2)
        index = ExpectedTopKIndex(
            elements, ToyPrioritized, ToyMax, B=2, seed=2, q_max_bound=lambda n: 50.0
        )
        assert index._K[0] == pytest.approx(100.0)

    def test_ladder_capped_at_quarter_n(self):
        _, index = build(n=2000)
        assert all(K <= 2000 / 4 for K in index._K)

    def test_membership_bookkeeping_matches_samples(self):
        _, index = build(n=1500)
        for i, sample in enumerate(index._samples):
            for element in sample:
                assert i in index._membership[element]
        for element, levels in index._membership.items():
            for level in levels:
                assert element in index._samples[level]

    def test_samples_support_constant_time_membership_updates(self):
        """Level samples are ordered hash sets (dicts), so ``delete``
        is O(#levels containing the element), not O(|R_i|) list scans."""
        elements, index = build(n=1500)
        assert all(isinstance(sample, dict) for sample in index._samples)
        victim = elements[17]
        index.delete(victim)
        for sample in index._samples:
            assert victim not in sample
        assert victim not in index._membership

    def test_expected_membership_is_constant(self):
        """Each element sits in O(1) samples in expectation (update cost)."""
        _, index = build(n=4000)
        total_memberships = sum(len(v) for v in index._membership.values())
        assert total_memberships <= 1.2 * 4000  # sum of 1/K_i is < 1 here


class TestLevelSelection:
    def test_first_level_at_least(self):
        _, index = build(n=4000)
        for target in (index._K[0], index._K[0] + 1, index._K[-1]):
            i = index._first_level_at_least(target)
            assert index._K[i] >= target
            if i > 0:
                assert index._K[i - 1] < target

    def test_small_k_promoted_to_K1(self):
        """k below B*Q_max is answered as a top-ceil(K_1) query."""
        elements, index = build(n=2000, seed=3)
        rng = random.Random(4)
        for _ in range(10):
            p = RangePredicate(*sorted((rng.uniform(0, 20000), rng.uniform(0, 20000))))
            assert index.query(p, 2) == oracle_top_k(elements, p, 2)


class TestRoundAccounting:
    def test_round_success_counts_probe(self):
        # Pinned to the rounds: in columnar mode a dense predicate is
        # answered by the bounded direct scan, which is no round.
        elements, index = build(n=800, seed=5, columnar=False)
        index.stats.reset()
        p = RangePredicate(-1, math.inf)
        index.query(p, 5)
        assert index.stats.monitored_probes >= 1
        assert index.stats.queries == 1

    def test_budgeted_query_runs_rounds_not_the_scan(self):
        """A round budget bounds ladder rounds, so the bounded direct
        scan must not answer in its place."""
        from repro.resilience.errors import RetryBudgetExhausted

        elements, index = build(n=800, seed=5)
        p = RangePredicate(-1, math.inf)
        with pytest.raises(RetryBudgetExhausted):
            index.query(p, 5, round_budget=0)
        assert index.query(p, 5, round_budget=50) == oracle_top_k(elements, p, 5)
        assert index.stats.column_scans == 0
        assert index.stats.monitored_probes >= 1

    def test_direct_scan_is_not_booked_as_a_probe(self):
        elements, index = build(n=800, seed=5)
        index.stats.reset()
        p = RangePredicate(-1, math.inf)
        assert index.query(p, 5) == oracle_top_k(elements, p, 5)
        assert index.stats.column_scans == 1
        assert index.stats.monitored_probes == 0
        assert index.stats.threshold_fetches == 0
        assert 0 < index.stats.column_positions <= 512

    def test_sigma_controls_ladder_height(self):
        elements = make_toy_elements(4000, 6)
        steep = ExpectedTopKIndex(
            elements, ToyPrioritized, ToyMax, params=TuningParams(sigma=1.0), seed=6
        )
        shallow = ExpectedTopKIndex(
            elements,
            ToyPrioritized,
            ToyMax,
            params=TuningParams.paper_faithful(),  # sigma = 1/20
            seed=6,
        )
        assert shallow.num_levels > 2 * steep.num_levels

    def test_paper_sigma_still_exact(self):
        elements = make_toy_elements(600, 7)
        index = ExpectedTopKIndex(
            elements,
            ToyPrioritized,
            ToyMax,
            params=TuningParams.paper_faithful(),
            seed=7,
        )
        rng = random.Random(8)
        for _ in range(15):
            p = RangePredicate(*sorted((rng.uniform(0, 6000), rng.uniform(0, 6000))))
            for k in (1, 9, 77):
                assert index.query(p, k) == oracle_top_k(elements, p, k)
