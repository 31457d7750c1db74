"""The columnar hot path: columns, scans, compiled predicates.

Three layers of guarantees:

1. **Primitive semantics** — :class:`ColumnSet` / :class:`MatchScan`
   probe, fetch, and top-k results match brute force under exactly the
   legacy truncation condition.
2. **Compiled = virtual** — every registered predicate compiler is
   extensionally identical to its class's ``matches`` across the
   workload registry's generated predicate shapes.
3. **Answer identity** — a columnar reduction, the same reduction
   pinned to the legacy Element path, and the brute-force oracle agree
   on every query of every registered problem, and snapshot/restore
   round-trips (through the durability codec) preserve that.
"""

from __future__ import annotations

import random

import pytest

from oracles import oracle_top_k
from repro.bench.workloads import PROBLEMS, make_problem
from repro.core.columnar import (
    ColumnSet,
    DescendingElements,
    MatchScan,
    ScanCache,
    columnar_disabled,
    columnar_enabled,
    compiled_matcher,
    predicate_key,
)
from repro.core.problem import Element, Predicate
from repro.core.theorem1 import WorstCaseTopKIndex
from repro.core.theorem2 import ExpectedTopKIndex
from repro.durability.codec import decode, encode
from toy import RangePredicate, ToyMax, ToyPrioritized, make_toy_elements


def brute_matches(elements, predicate):
    """All matches, heaviest first — the semantics scans must replicate."""
    out = [e for e in elements if predicate.matches(e.obj)]
    out.sort(key=lambda e: -e.weight)
    return out


# ----------------------------------------------------------------------
# 1. Primitive semantics
# ----------------------------------------------------------------------
class TestColumnSet:
    def test_columns_align_and_descend(self):
        elements = make_toy_elements(300, seed=1)
        columns = ColumnSet(elements)
        weights = [e.weight for e in columns.elements]
        assert weights == sorted(weights, reverse=True)
        for i, element in enumerate(columns.elements):
            assert columns.objs[i] == element.obj
            assert columns.neg_weights[i] == -element.weight

    def test_count_at_least_matches_brute_force(self):
        elements = make_toy_elements(200, seed=2)
        columns = ColumnSet(elements)
        for tau in [-1e9, 0.0, 3.5, elements[0].weight, 1e9]:
            expected = sum(1 for e in elements if e.weight >= tau)
            assert columns.count_at_least(tau) == expected

    def test_position_of_is_the_stable_index_map(self):
        elements = make_toy_elements(150, seed=3)
        columns = ColumnSet(elements)
        for i, element in enumerate(columns.elements):
            assert columns.position_of(element) == i
        with pytest.raises(KeyError):
            columns.position_of(Element(999.0, 123456.75))

    def test_insert_delete_keep_alignment_and_bump_version(self):
        elements = make_toy_elements(80, seed=4)
        columns = ColumnSet(elements)
        extra = Element(7.0, max(e.weight for e in elements) / 2.0 + 0.125)
        columns.insert(extra)
        assert columns.version == 1
        i = columns.position_of(extra)
        assert columns.objs[i] == extra.obj
        assert columns.neg_weights[i] == -extra.weight
        columns.delete(extra)
        assert columns.version == 2
        assert len(columns) == len(elements)
        weights = [e.weight for e in columns.elements]
        assert weights == sorted(weights, reverse=True)


class TestMatchScan:
    def setup_method(self):
        self.elements = make_toy_elements(400, seed=7)
        self.columns = ColumnSet(self.elements)
        self.predicate = RangePredicate(50.0, 260.0)
        self.expected = brute_matches(self.elements, self.predicate)

    def test_first_k_is_the_top_k_answer(self):
        for k in (0, 1, 3, 17, len(self.expected), len(self.expected) + 5):
            scan = self.columns.scan(self.predicate)
            got = scan.first(k)
            assert isinstance(got, DescendingElements)
            assert list(got) == self.expected[:k]

    def test_probe_truncates_under_the_legacy_condition(self):
        t = len(self.expected)
        for limit in (0, 1, t - 1, t, t + 10):
            scan = self.columns.scan(self.predicate)
            result = scan.probe(limit)
            assert result.truncated == (t > limit)
            if not result.truncated:
                assert list(result.elements) == self.expected

    def test_fetch_matches_brute_force_thresholding(self):
        taus = [-1e9, self.expected[len(self.expected) // 2].weight, 1e9]
        for tau in taus:
            qualifying = [e for e in self.expected if e.weight >= tau]
            scan = self.columns.scan(self.predicate)
            result = scan.fetch(tau)
            assert not result.truncated
            assert list(result.elements) == qualifying
            for limit in (0, len(qualifying), len(qualifying) + 3):
                fresh = self.columns.scan(self.predicate)
                bounded = fresh.fetch(tau, limit=limit)
                assert bounded.truncated == (len(qualifying) > limit)
                if not bounded.truncated:
                    assert list(bounded.elements) == qualifying

    def test_scan_resumes_one_traversal_across_primitives(self):
        scan = self.columns.scan(self.predicate)
        scan.first(3)
        frontier_after_first = scan.upto
        scan.probe(len(self.expected) + 50)  # forces a full scan
        assert scan.upto >= frontier_after_first
        full_frontier = scan.upto
        # Every further primitive reuses the completed traversal.
        scan.fetch(-1e9)
        scan.first(7)
        assert scan.upto == full_frontier
        assert list(scan.all_matches()) == self.expected

    def test_stale_scan_detected_after_mutation(self):
        scan = self.columns.scan(self.predicate)
        scan.first(2)
        assert scan.fresh()
        self.columns.insert(Element(100.5, 1e6))
        assert not scan.fresh()


class TestBudgetedScan:
    """``budget`` caps the positions a call examines; undecided -> None."""

    def setup_method(self):
        self.elements = make_toy_elements(3000, seed=9)
        self.columns = ColumnSet(self.elements)
        # A narrow range: few matches, spread over the whole column.
        self.predicate = RangePredicate(100.0, 112.0)
        self.expected = brute_matches(self.elements, self.predicate)
        assert 0 < len(self.expected) < 20

    def test_first_within_budget_answers_or_declines(self):
        scan = self.columns.scan(self.predicate)
        assert scan.first(len(self.expected) + 1, budget=300) is None
        assert scan.scanned == scan.upto == 300
        # Reaching the end decides even with fewer than k matches.
        answer = scan.first(len(self.expected) + 1, budget=len(self.columns))
        assert list(answer) == self.expected
        assert scan.scanned == len(self.columns)

    def test_budget_zero_reads_only_the_known_prefix(self):
        scan = self.columns.scan(self.predicate)
        assert scan.probe(5, budget=0) is None
        assert scan.fetch(-1e9, limit=5, budget=0) is None
        assert scan.scanned == 0
        # A complete seed decides every primitive without scanning.
        scan.seed_prefix(self.expected, len(self.columns))
        probe = scan.probe(len(self.expected), budget=0)
        assert not probe.truncated and list(probe.elements) == self.expected
        fetched = scan.fetch(-1e9, limit=len(self.expected), budget=0)
        assert list(fetched.elements) == self.expected
        assert list(scan.first(3, budget=0)) == self.expected[:3]
        assert scan.scanned == 0

    def test_fetch_budget_stops_inside_the_qualifying_prefix(self):
        scan = self.columns.scan(self.predicate)
        tau = self.expected[-1].weight  # qualifying prefix: ~all columns
        assert scan.fetch(tau, limit=50, budget=200) is None
        assert scan.upto == 200
        result = scan.fetch(tau, limit=50)
        assert list(result.elements) == self.expected


class TestScanCache:
    def test_reuses_scan_until_version_changes(self):
        elements = make_toy_elements(100, seed=8)
        columns = ColumnSet(elements)
        cache = ScanCache()
        predicate = RangePredicate(10.0, 90.0)
        scan = cache.get(columns, predicate)
        assert cache.get(columns, predicate) is scan
        assert cache.hits == 1
        columns.insert(Element(5.0, 1e6))
        replacement = cache.get(columns, predicate)
        assert replacement is not scan and replacement.fresh()
        assert cache.hits == 1  # a stale scan is replaced, not a hit
        cache.clear()
        assert cache.get(columns, predicate) is not replacement

    def test_bounded_and_clearable(self):
        elements = make_toy_elements(50, seed=9)
        columns = ColumnSet(elements)
        cache = ScanCache(max_entries=4)
        for i in range(9):
            cache.get(columns, RangePredicate(float(i), float(i + 10)))
        assert len(cache) <= 4
        cache.clear()
        assert len(cache) == 0

    def test_visit_promotes_on_second_visit(self):
        elements = make_toy_elements(120, seed=10)
        columns = ColumnSet(elements)
        cache = ScanCache()
        predicate = RangePredicate(20.0, 80.0)
        assert cache.visit(columns, predicate) is None  # first: recorded
        scan = cache.visit(columns, predicate)  # second: promoted
        assert scan is not None and scan.columns is columns
        assert cache.visit(columns, predicate) is scan  # further: cached
        assert cache.get(columns, predicate) is scan

    def test_visit_seed_carries_into_promoted_scan(self):
        elements = make_toy_elements(120, seed=11)
        columns = ColumnSet(elements)
        cache = ScanCache()
        predicate = RangePredicate(30.0, 70.0)
        expected = [e for e in columns.elements if predicate.matches(e.obj)]
        assert cache.visit(columns, predicate) is None
        # The caller's legacy result covered the whole set: full seed.
        cache.record_seed(list(expected), len(columns))
        scan = cache.visit(columns, predicate)
        assert scan.exhausted  # seeded knowledge, not a fresh traversal
        assert list(scan.all_matches()) == expected

    def test_record_seed_without_visit_is_noop(self):
        elements = make_toy_elements(40, seed=12)
        columns = ColumnSet(elements)
        cache = ScanCache()
        cache.record_seed([elements[0]], len(columns))  # no visit: dropped
        predicate = RangePredicate(0.0, 100.0)
        assert cache.visit(columns, predicate) is None
        scan = cache.visit(columns, predicate)
        assert scan.upto == 0 and not scan.exhausted

    def test_visit_record_survives_pressure_then_stale_columns(self):
        elements = make_toy_elements(60, seed=13)
        columns = ColumnSet(elements)
        cache = ScanCache(max_entries=4)
        predicate = RangePredicate(10.0, 50.0)
        assert cache.visit(columns, predicate) is None
        columns.insert(Element(5.0, 1e6))  # stale record: version moved
        assert cache.visit(columns, predicate) is None  # re-recorded
        scan = cache.visit(columns, predicate)
        assert scan is not None and scan.fresh()


# ----------------------------------------------------------------------
# 2. Compiled = virtual, across every registered shape
# ----------------------------------------------------------------------
class TestCompiledMatchers:
    @pytest.mark.parametrize("name", sorted(PROBLEMS))
    def test_compiled_equals_virtual_on_workload(self, name):
        problem = make_problem(name, 150, seed=13)
        objs = [e.obj for e in problem.elements]
        for predicate in problem.predicates(12, seed=14):
            match = compiled_matcher(predicate)
            for obj in objs:
                assert match(obj) == predicate.matches(obj), (
                    f"{name}: compiled diverges on {predicate!r} / {obj!r}"
                )

    def test_unregistered_predicate_falls_back_to_matches(self):
        class OddPredicate(Predicate):
            def matches(self, obj) -> bool:
                return int(obj) % 2 == 1

            def __repr__(self):
                return "OddPredicate()"

        predicate = OddPredicate()
        match = compiled_matcher(predicate)
        assert match(3.0) is True and match(4.0) is False
        assert match.__self__ is predicate  # the bound method itself

    def test_predicate_key_stable_for_unhashable(self):
        class Unhashable(Predicate):
            __hash__ = None

            def matches(self, obj) -> bool:
                return True

            def __repr__(self):
                return "Unhashable()"

        key = predicate_key(Unhashable())
        assert key == predicate_key(Unhashable())
        assert key != predicate_key(RangePredicate(0.0, 1.0))


# ----------------------------------------------------------------------
# 3. Answer identity: columnar == legacy == oracle, per problem
# ----------------------------------------------------------------------
def sweep_queries(problem, index, legacy, rng, ks):
    for predicate in problem.predicates(8, seed=rng.randrange(1 << 20)):
        for k in ks:
            expected = oracle_top_k(problem.elements, predicate, k)
            assert index.query(predicate, k) == expected
            assert legacy.query(predicate, k) == expected


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_theorem2_columnar_identical_to_legacy(name):
    rng = random.Random(hash(name) & 0xFFFF)
    for n in (60, 170):
        problem = make_problem(name, n, seed=17)
        index = ExpectedTopKIndex(
            problem.elements, problem.prioritized_factory,
            problem.max_factory, seed=23,
        )
        assert index._columnar, "RAM workloads must engage columnar"
        legacy = ExpectedTopKIndex(
            problem.elements, problem.prioritized_factory,
            problem.max_factory, seed=23, columnar=False,
        )
        assert not legacy._columnar
        sweep_queries(problem, index, legacy, rng, ks=(1, 4, n // 3, n + 5))


@pytest.mark.parametrize("name", ["range1d", "interval_stabbing", "circular2d"])
def test_theorem1_columnar_identical_to_legacy(name):
    rng = random.Random(hash(name) & 0xFFFF)
    problem = make_problem(name, 150, seed=19)
    index = WorstCaseTopKIndex(
        problem.elements, problem.prioritized_factory, seed=29,
    )
    assert index._columnar
    legacy = WorstCaseTopKIndex(
        problem.elements, problem.prioritized_factory, seed=29, columnar=False,
    )
    assert not legacy._columnar
    sweep_queries(problem, index, legacy, rng, ks=(1, 5, 50, 200))


def test_global_disable_pins_legacy_at_build():
    elements = make_toy_elements(120, seed=21)
    with columnar_disabled():
        assert not columnar_enabled()
        t2 = ExpectedTopKIndex(elements, ToyPrioritized, ToyMax, seed=3)
        t1 = WorstCaseTopKIndex(elements, ToyPrioritized, seed=3)
    assert columnar_enabled()
    assert not t2._columnar and not t1._columnar
    predicate = RangePredicate(20.0, 80.0)
    assert t2.query(predicate, 6) == oracle_top_k(elements, predicate, 6)
    assert t1.query(predicate, 6) == oracle_top_k(elements, predicate, 6)


def test_columnar_tracks_dynamic_updates():
    elements = make_toy_elements(150, seed=31)
    index = ExpectedTopKIndex(elements, ToyPrioritized, ToyMax, seed=5)
    assert index._columnar
    current = list(elements)
    rng = random.Random(6)
    for round_no in range(30):
        if rng.random() < 0.5 and current:
            victim = current.pop(rng.randrange(len(current)))
            index.delete(victim)
        else:
            extra = Element(float(rng.randrange(200)), 5000.0 + round_no + 0.5)
            index.insert(extra)
            current.append(extra)
        predicate = RangePredicate(float(rng.randrange(100)), float(rng.randrange(100, 220)))
        assert index.query(predicate, 7) == oracle_top_k(current, predicate, 7)


# ----------------------------------------------------------------------
# Snapshot/restore: columns are derived state, rebuilt on restore
# ----------------------------------------------------------------------
def test_expected_snapshot_roundtrip_stays_columnar():
    elements = make_toy_elements(200, seed=37)
    index = ExpectedTopKIndex(elements, ToyPrioritized, ToyMax, seed=7)
    state = decode(encode(index.snapshot_state()))
    restored = ExpectedTopKIndex.restore(state, ToyPrioritized, ToyMax)
    assert restored._columnar
    rng = random.Random(8)
    for _ in range(15):
        lo = float(rng.randrange(150))
        predicate = RangePredicate(lo, lo + float(rng.randrange(1, 120)))
        k = rng.choice([1, 5, 12])
        expected = oracle_top_k(elements, predicate, k)
        assert restored.query(predicate, k) == expected
        assert index.query(predicate, k) == expected


def test_worstcase_snapshot_roundtrip_stays_columnar():
    elements = make_toy_elements(200, seed=41)
    index = WorstCaseTopKIndex(elements, ToyPrioritized, seed=9)
    state = decode(encode(index.snapshot_state()))
    restored = WorstCaseTopKIndex.restore(state, ToyPrioritized)
    assert restored._columnar
    rng = random.Random(10)
    for _ in range(15):
        lo = float(rng.randrange(150))
        predicate = RangePredicate(lo, lo + float(rng.randrange(1, 120)))
        k = rng.choice([1, 5, 12])
        expected = oracle_top_k(elements, predicate, k)
        assert restored.query(predicate, k) == expected


def test_codec_roundtrips_weight_arrays():
    from array import array

    values = array("d", [-5.5, -1.25, 0.0, 3.75])
    decoded = decode(encode(values))
    assert isinstance(decoded, array)
    assert decoded.typecode == "d"
    assert decoded == values
