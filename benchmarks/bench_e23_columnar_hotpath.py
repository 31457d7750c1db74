"""E23 — Columnar hot path: flat arrays + compiled predicates vs legacy.

The PR-9 optimization claim, isolated: the *same* reduction over the
*same* workload, once with the columnar core engaged (flat weight
arrays, compiled predicates, resumable match scans) and once pinned to
the legacy Element path (``columnar=False``), answer-checked against
each other and the brute-force oracle on every query.

Two regimes, reported separately because they measure different
things:

* **cold** — every query hits a fresh index (best-of-N with a rebuild
  per round, builds untimed): what one-shot predicates pay.
* **warm** — the same request batch repeats against one index:
  visit-promoted :class:`~repro.core.columnar.MatchScan` objects answer
  repeats from the flat columns (dense predicates prove truncation by
  early exit, sparse ones materialize their seeded match sets), which
  the legacy path has no analogue of.

The two reductions make different claims, and the floors encode that
honestly.  Theorem 2 answers a columnar query by a *bounded* direct
scan (``4 * cap`` positions, up to ``16 * cap`` while the observed match
rate puts the ``k``-th match in reach) when the scan finds ``k``
matches, and runs the paper's rounds otherwise; the main workload's
broad ranges are answered by the scan, so Theorem 2 must win cold and
warm.  Theorem 1's chain descent keeps first visits on the
sublinear per-level structures (a cold flat scan would lose to them),
so its cold entry is a bounded **overhead budget** — the visit
bookkeeping and larger working set may cost a little, guarded by a
< 1.0 floor — and its speedup claim lives in the warm regime.  All
answers in both modes and both regimes are checked against the
brute-force oracle.

The **selectivity axis** checks the claim the speedup rows cannot: that
Theorem 2's columnar path keeps the paper's cost bound.  Cold queries
over ranges covering a fixed fraction of the universe (10^-4 to 0.5)
run at two sizes ``n``; the log-log slope of per-query time in ``n``
must stay below 0.3, or no steeper than the legacy rounds' where those
grow faster (see ``SLOPE_CEILING``).  An unbounded direct scan reads
all ``n`` positions when fewer than ``k`` elements match, so its slope
at the selective end is ~1.  The axis uses the dynamic treap
(``range1d_dynamic``): the static range tree sorts its canonical node
lists lazily on first touch, a cold cost that grows with ``n`` whichever
path calls it.

Results land as JSON in
``benchmarks/results/e23_columnar_hotpath.json`` (the ``columnar-speed``
CI job uploads it as an artifact and enforces the floors).

Set ``REPRO_BENCH_QUICK=1`` for the reduced CI workload.
"""

import heapq
import json
import math
import os
import random
import time
from bisect import bisect_left, bisect_right
from pathlib import Path

from repro.bench.tables import render_table
from repro.bench.workloads import UNIVERSE, make_problem
from repro.core.columnar import columnar_disabled
from repro.core.problem import top_k_of
from repro.core.theorem1 import WorstCaseTopKIndex
from repro.core.theorem2 import ExpectedTopKIndex
from repro.structures.range1d import RangePredicate1D

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
N = 400 if QUICK else 2000
QUERIES = 120 if QUICK else 600
MAX_K = 12
ROUNDS = 2 if QUICK else 3
#: Fresh-index floors.  Theorem 2 must win cold (measured ~2.1-2.4x:
#: the workload's broad ranges are answered by the bounded direct
#: column scan).  Theorem 1's cold queries do legacy work plus visit
#: bookkeeping by design, so its floor is an overhead budget: no more
#: than ~25% cold regression (measured ~8%, with headroom for CI
#: jitter).  Quick mode shrinks the workload to single-digit
#: milliseconds where fixed per-query costs and runner jitter swamp
#: the signal, so its floors are loose catastrophe guards
#: only — the real claims are enforced at full scale.
COLD_FLOORS = (
    {"theorem2": 0.4, "theorem1": 0.4}
    if QUICK
    else {"theorem2": 1.05, "theorem1": 0.75}
)
#: Repeat-batch floors: promoted scans answer repeats from the columns
#: (theorem2 measured ~15-17x, theorem1 ~3x; floors well below).
WARM_FLOORS = (
    {"theorem2": 2.0, "theorem1": 1.1}
    if QUICK
    else {"theorem2": 4.0, "theorem1": 1.5}
)
#: Selectivity axis: each range covers this fraction of the universe.
SELECTIVITIES = (1e-4, 1e-3, 1e-2, 0.5)
AXIS_NS = (2_000, 8_000) if QUICK else (10_000, 100_000)
AXIS_QUERIES = 60 if QUICK else 200
AXIS_ROUNDS = 3 if QUICK else 5
AXIS_K = 10
#: Ceiling on the columnar log-log slope of per-query time in ``n``, at
#: every selectivity (0 = flat; the unbounded scan measured 1.0 at
#: 10^-4).  Where the paper's rounds themselves grow faster — at 10^-3
#: the step-1 probe reports every match, 10 at n=10^4 and 100 at 10^5
#: (legacy slope ~0.75) — the columnar path, which runs those rounds for
#: selective predicates, must instead be no steeper than legacy.
SLOPE_CEILING = 0.3
RESULTS_JSON = Path(__file__).resolve().parent / "results" / "e23_columnar_hotpath.json"


def _requests(problem, count, seed):
    rng = random.Random(seed)
    predicates = problem.predicates(count, seed=seed + 1)
    return [(p, rng.randint(1, MAX_K)) for p in predicates]


def _best_time(fn, rounds=ROUNDS):
    best, result = float("inf"), None
    for _ in range(rounds):
        began = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - began)
    return best, result


def _speedup(legacy_seconds, columnar_seconds):
    return legacy_seconds / columnar_seconds if columnar_seconds > 0 else float("inf")


def _measure_pair(label, build, requests, oracle):
    def run(index):
        return [index.query(p, k) for p, k in requests]

    def build_legacy():
        with columnar_disabled():
            return build()

    def cold_time(builder):
        # Best-of-N where every round rebuilds (untimed), so no scan
        # survives into the timed query pass.
        best, answers = float("inf"), None
        for _ in range(ROUNDS):
            index = builder()
            began = time.perf_counter()
            answers = run(index)
            best = min(best, time.perf_counter() - began)
        return best, answers

    legacy_cold, legacy_answers = cold_time(build_legacy)
    columnar_cold, columnar_answers = cold_time(build)
    assert columnar_answers == oracle, f"{label}: columnar answers inexact"
    assert legacy_answers == oracle, f"{label}: legacy answers inexact"

    # Warm: the batch repeats against one index; columnar repeats
    # resume completed MatchScans instead of re-traversing.
    columnar_index, legacy_index = build(), build_legacy()
    run(columnar_index), run(legacy_index)
    legacy_warm, _ = _best_time(lambda: run(legacy_index))
    columnar_warm, warm_answers = _best_time(lambda: run(columnar_index))
    assert warm_answers == oracle, f"{label}: warm columnar answers inexact"

    cold_speedup = _speedup(legacy_cold, columnar_cold)
    warm_speedup = _speedup(legacy_warm, columnar_warm)
    cold_floor, warm_floor = COLD_FLOORS[label], WARM_FLOORS[label]
    assert cold_speedup >= cold_floor, (
        f"{label}: cold speedup {cold_speedup:.2f}x below the {cold_floor}x "
        f"floor (legacy {legacy_cold * 1e3:.1f}ms, "
        f"columnar {columnar_cold * 1e3:.1f}ms)"
    )
    assert warm_speedup >= warm_floor, (
        f"{label}: warm speedup {warm_speedup:.2f}x below the {warm_floor}x "
        f"floor (legacy {legacy_warm * 1e3:.1f}ms, "
        f"columnar {columnar_warm * 1e3:.1f}ms)"
    )
    return {
        "cold": {
            "legacy_ms": round(legacy_cold * 1e3, 2),
            "columnar_ms": round(columnar_cold * 1e3, 2),
            "speedup": round(cold_speedup, 2),
            "floor": cold_floor,
        },
        "warm": {
            "legacy_ms": round(legacy_warm * 1e3, 2),
            "columnar_ms": round(columnar_warm * 1e3, 2),
            "speedup": round(warm_speedup, 2),
            "floor": warm_floor,
        },
        "queries": len(requests),
        "exact_fraction": 1.0,
    }


def _range_oracle(elements):
    """Exact top-k for 1D ranges without a pass over all ``n`` elements.

    Small ranges select from their coordinate-sorted slice; large ones
    walk the weight-descending order until ``k`` matches are found.
    """
    by_x = sorted(elements, key=lambda e: e.obj)
    xs = [e.obj for e in by_x]
    by_weight = sorted(elements, key=lambda e: -e.weight)

    def top_k(predicate, k):
        a = bisect_left(xs, predicate.lo)
        b = bisect_right(xs, predicate.hi)
        if b - a <= 4096:
            return heapq.nlargest(k, by_x[a:b], key=lambda e: e.weight)
        out = []
        for element in by_weight:
            if predicate.lo <= element.obj <= predicate.hi:
                out.append(element)
                if len(out) == k:
                    break
        return out

    return top_k


def _selectivity_axis():
    """Cold Theorem 2 per-query ms over selectivity x n, both modes.

    One index per ``(n, mode)``; every round queries predicates never
    seen before, so no scan or seed survives into a timed query.  The
    four indexes take turns within each round, so a drift in host speed
    lands on every cell alike.
    """
    indexes, oracles = {}, {}
    for n in AXIS_NS:
        problem = make_problem("range1d_dynamic", n, seed=51)
        oracles[n] = _range_oracle(problem.elements)

        def build():
            return ExpectedTopKIndex(
                problem.elements, problem.prioritized_factory,
                problem.max_factory, seed=71,
            )

        indexes[n, "columnar"] = build()
        with columnar_disabled():
            indexes[n, "legacy"] = build()
        assert indexes[n, "columnar"]._columnar
        assert not indexes[n, "legacy"]._columnar
    axis = []
    for sel in SELECTIVITIES:
        width = sel * UNIVERSE
        rng = random.Random(int(sel * 1e6))
        best = dict.fromkeys(indexes, float("inf"))
        for _ in range(AXIS_ROUNDS):
            predicates = []
            for _ in range(AXIS_QUERIES):
                lo = rng.uniform(0.0, UNIVERSE - width)
                predicates.append(RangePredicate1D(lo, lo + width))
            expected = {
                n: [oracles[n](p, AXIS_K) for p in predicates] for n in AXIS_NS
            }
            for (n, mode), index in indexes.items():
                began = time.perf_counter()
                answers = [index.query(p, AXIS_K) for p in predicates]
                best[n, mode] = min(best[n, mode], time.perf_counter() - began)
                assert answers == expected[n], (
                    f"selectivity {sel}, n={n}: {mode} answers inexact"
                )
        small, large = AXIS_NS
        row = {"selectivity": sel}
        for mode in ("columnar", "legacy"):
            lo_ms = best[small, mode] / AXIS_QUERIES * 1e3
            hi_ms = best[large, mode] / AXIS_QUERIES * 1e3
            row[f"{mode}_ms"] = {str(small): round(lo_ms, 4), str(large): round(hi_ms, 4)}
            row[f"{mode}_slope"] = round(
                math.log(hi_ms / lo_ms) / math.log(large / small), 3
            )
        axis.append(row)
    return axis


def bench_e23_columnar_hotpath(benchmark, results_sink):
    problem = make_problem("range1d", N, seed=51)
    requests = _requests(problem, QUERIES, seed=61)
    oracle = [top_k_of(problem.elements, p, k) for p, k in requests]

    theorem2 = _measure_pair(
        "theorem2",
        lambda: ExpectedTopKIndex(
            problem.elements, problem.prioritized_factory,
            problem.max_factory, seed=71,
        ),
        requests, oracle,
    )
    theorem1 = _measure_pair(
        "theorem1",
        lambda: WorstCaseTopKIndex(
            problem.elements, problem.prioritized_factory, seed=71,
        ),
        requests, oracle,
    )

    axis = _selectivity_axis()

    def rows(label, doc):
        return [
            [label, regime, doc[regime]["legacy_ms"],
             doc[regime]["columnar_ms"], f"{doc[regime]['speedup']}x",
             f"{doc[regime]['floor']}x", "100%"]
            for regime in ("cold", "warm")
        ]

    results_sink(
        render_table(
            f"E23 Columnar hot path vs legacy Element path "
            f"(range1d, n={N}, {QUERIES} queries, k<={MAX_K})",
            ["reduction", "regime", "legacy ms", "columnar ms", "speedup",
             "floor", "exact"],
            rows("theorem2", theorem2) + rows("theorem1", theorem1),
            note="cold = fresh index per round (theorem1's floor is an "
            "overhead budget, not a speedup claim); warm = repeated "
            "batch (visit-promoted MatchScans); answers oracle-checked "
            "in every mode",
        )
    )
    small, large = AXIS_NS
    results_sink(
        render_table(
            f"E23 Theorem 2 selectivity axis, cold "
            f"(range1d_dynamic, k={AXIS_K}, {AXIS_QUERIES} queries x "
            f"best of {AXIS_ROUNDS}, ms per query)",
            ["selectivity", f"columnar n={small}", f"columnar n={large}",
             "columnar slope", f"legacy n={small}", f"legacy n={large}",
             "legacy slope", "exact"],
            [
                [row["selectivity"],
                 row["columnar_ms"][str(small)], row["columnar_ms"][str(large)],
                 row["columnar_slope"],
                 row["legacy_ms"][str(small)], row["legacy_ms"][str(large)],
                 row["legacy_slope"], "100%"]
                for row in axis
            ],
            note=f"slope = log-log slope of per-query time in n; the "
            f"columnar slope must stay below {SLOPE_CEILING}, or at most "
            "the legacy slope where the paper's rounds grow faster",
        )
    )

    RESULTS_JSON.parent.mkdir(exist_ok=True)
    RESULTS_JSON.write_text(
        json.dumps(
            {"quick": QUICK, "n": N, "queries": QUERIES,
             "theorem2": theorem2, "theorem1": theorem1,
             "selectivity_axis": {
                 "problem": "range1d_dynamic", "k": AXIS_K,
                 "ns": list(AXIS_NS), "queries": AXIS_QUERIES,
                 "slope_ceiling": SLOPE_CEILING, "cells": axis,
             }},
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )

    for row in axis:
        slope = row["columnar_slope"]
        assert slope < SLOPE_CEILING or slope <= row["legacy_slope"], (
            f"selectivity {row['selectivity']}: columnar per-query time "
            f"grows with n at slope {slope} (ceiling {SLOPE_CEILING}, "
            f"legacy {row['legacy_slope']}; {row['columnar_ms']} ms)"
        )

    # Timing hook: one columnar theorem-2 query batch.
    index = ExpectedTopKIndex(
        problem.elements, problem.prioritized_factory,
        problem.max_factory, seed=71,
    )
    sample = requests[:32]
    benchmark(lambda: [index.query(p, k) for p, k in sample])
