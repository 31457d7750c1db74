"""E17 — Replicated serving: crash sweeps, loss tolerance, anti-entropy.

Three claims about :class:`repro.replication.cluster.ReplicaSet`:

1. **Failover is invisible to clients.**  A deterministic sweep kills
   the primary machine at every durability transfer of a mixed
   insert/delete/query workload over a 3-replica set.  Every answer of
   every swept run must match the never-crashed oracle run
   bit-for-bit, and after each promotion the new primary's applied LSN
   must equal its durable LSN — the committed-but-unapplied tail was
   fully replayed.
2. **Losing one replica is cheap.**  With one of three machines dead,
   the median per-query latency (counted reduction-operation units
   across every consulted replica) inflates by less than 3x.
3. **Anti-entropy converges.**  Rotting a sealed block on one replica
   is detected by the scrub and repaired by resync; the repaired
   machine is bit-for-bit equal to the primary.

Results also land as JSON in ``benchmarks/results/e17_replication.json``
(the CI chaos job uploads it as an artifact).

Set ``REPRO_BENCH_QUICK=1`` to run a reduced sweep (CI smoke mode).
"""

import json
import os
import random
import statistics
from pathlib import Path

from repro.bench.tables import render_table
from repro.core.problem import Element, top_k_of
from repro.replication import ReplicaSet, replicated_index
from repro.structures.range1d import RangePredicate1D
from repro.structures.range1d_dynamic import DynamicRangeTreap

QUICK = bool(os.environ.get("REPRO_BENCH_QUICK"))
SWEEP_POINTS = 30 if QUICK else 200
BASE_N = 48 if QUICK else 64
WORKLOAD_STEPS = 18 if QUICK else 24
LOSS_N = 200 if QUICK else 500
LOSS_QUERIES = 20 if QUICK else 50
K = 8
RESULTS_JSON = Path(__file__).resolve().parent / "results" / "e17_replication.json"


def point_elements(n, start=0):
    rng = random.Random(99)
    coords = rng.sample(range(50 * (LOSS_N + 200)), LOSS_N + 200)
    return [Element(float(coords[i]), float(i) + 0.25) for i in range(start, start + n)]


def make_cluster(n, **kwargs):
    kwargs.setdefault("B", 16)
    return replicated_index(
        point_elements(n), DynamicRangeTreap, DynamicRangeTreap,
        num_replicas=3, seed=5, **kwargs,
    )


def _range_queries(count, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        a, b = sorted(rng.sample(range(50 * (LOSS_N + 200)), 2))
        out.append(RangePredicate1D(float(a), float(b)))
    return out


# ----------------------------------------------------------------------
# E17a — primary-crash sweep vs the never-crashed oracle
# ----------------------------------------------------------------------
def _run_workload(crash_at=None):
    """The fixed mixed workload; returns (answers, cluster)."""
    cluster = make_cluster(BASE_N)
    if crash_at is not None:
        cluster.primary.plan.schedule_crash(at_io=crash_at)
    predicates = _range_queries(6, seed=17)
    extras = point_elements(WORKLOAD_STEPS, start=BASE_N)
    answers = []
    for step, element in enumerate(extras):
        cluster.insert(element)
        if step % 4 == 3:
            cluster.delete(point_elements(BASE_N)[step])
        if step % 3 == 2:
            answers.append(cluster.query(predicates[step % len(predicates)], K))
    answers.append(cluster.query(predicates[0], 2 * K))
    return answers, cluster


def _crash_sweep():
    oracle, _ = _run_workload(None)
    crashed = exact = 0
    replayed_total = 0
    queries_checked = 0
    for at_io in range(1, SWEEP_POINTS + 1):
        answers, cluster = _run_workload(at_io)
        queries_checked += len(answers)
        assert answers == oracle, (
            f"crash at transfer {at_io}: an answer diverged from the "
            "never-crashed oracle"
        )
        exact += 1
        if cluster.stats.primary_crashes:
            crashed += 1
            assert cluster.stats.promotions >= 1
            # Promotion replayed the whole committed-but-unapplied tail.
            primary = cluster.primary
            assert primary.applied_lsn == primary.durable_lsn, (
                f"crash at {at_io}: promoted primary left "
                f"{primary.durable_lsn - primary.applied_lsn} committed "
                "records unapplied"
            )
            replayed_total += cluster.stats.failover_records_replayed
    assert crashed >= SWEEP_POINTS // 3, (
        f"sweep degenerated: only {crashed}/{SWEEP_POINTS} points crashed"
    )
    return {
        "sweep_points": SWEEP_POINTS,
        "crashed_runs": crashed,
        "queries_checked": queries_checked,
        "exact_runs": exact,
        "exact_fraction": 1.0,
        "failover_records_replayed": replayed_total,
    }


# ----------------------------------------------------------------------
# E17b — latency under single-replica loss
# ----------------------------------------------------------------------
def _query_units(cluster, predicate, k):
    """Counted latency of one read: reduction ops over consulted replicas.

    Each live replica's :class:`ReductionStats` delta (probes, fetches,
    full scans, bounded column scans) plus one RPC unit per replica that
    did work.
    """
    inners = [r.durable.inner for r in cluster.live_replicas]

    def ops(stats):
        return (
            stats.monitored_probes + stats.threshold_fetches
            + stats.full_scans + stats.column_scans
        )

    before = [ops(i.stats) for i in inners]
    cluster.query(predicate, k)
    units = 0
    for inner, prior in zip(inners, before):
        delta = ops(inner.stats) - prior
        if delta:
            units += delta + 1  # +1: the RPC round trip itself
    return max(units, 1)


def _loss_inflation():
    cluster = make_cluster(LOSS_N)
    predicates = _range_queries(LOSS_QUERIES, seed=43)
    cluster.align()
    healthy = [_query_units(cluster, p, K) for p in predicates]
    casualty = [r for r in cluster.replicas if not r.is_primary][0]
    casualty.mark_dead()
    degraded = [_query_units(cluster, p, K) for p in predicates]
    inflations = [d / h for d, h in zip(degraded, healthy)]
    median = statistics.median(inflations)
    assert median < 3.0, (
        f"median latency inflation under single-replica loss is {median:.2f}x"
    )
    # Exactness is not negotiable while degraded.
    want = top_k_of(point_elements(LOSS_N), predicates[0], K)
    assert cluster.query(predicates[0], K) == want
    return {
        "queries": LOSS_QUERIES,
        "median_units_healthy": statistics.median(healthy),
        "median_units_one_dead": statistics.median(degraded),
        "median_inflation": round(median, 3),
    }


# ----------------------------------------------------------------------
# E17c — anti-entropy convergence
# ----------------------------------------------------------------------
def _antientropy_convergence():
    cluster = make_cluster(BASE_N)
    for element in point_elements(20, start=BASE_N):
        cluster.insert(element)
    victim = [r for r in cluster.replicas if not r.is_primary][0]
    block_id = victim.store.snapshots[0].head_block
    victim.store.disk.raw_write(block_id, ["rot"])
    victim.store.ctx.drop_cache()
    report = cluster.scrub()
    assert report.divergent == [victim.name]
    assert report.repaired == [victim.name]
    reborn = next(r for r in cluster.replicas if r.name == victim.name)
    primary = cluster.primary
    assert reborn.state_digest() == primary.state_digest()
    assert (
        reborn.durable.inner.snapshot_state()
        == primary.durable.inner.snapshot_state()
    ), "repaired replica is not bit-for-bit equal to the primary"
    assert cluster.scrub().clean
    return {
        "bad_blocks_detected": sum(len(b) for b in report.bad_blocks.values()),
        "repaired": report.repaired,
        "records_resynced": report.records_resynced,
        "converged_bit_for_bit": True,
    }


def bench_e17_replication(benchmark, results_sink):
    sweep = _crash_sweep()
    results_sink(
        render_table(
            "E17a Primary-crash sweep over a 3-replica set",
            ["crash points", "crashed runs", "queries checked",
             "exact", "failover records replayed"],
            [[sweep["sweep_points"], sweep["crashed_runs"],
              sweep["queries_checked"], "100%",
              sweep["failover_records_replayed"]]],
            note="primary killed at every durability transfer of a mixed "
            "workload; every answer matched the never-crashed oracle and "
            "every promotion replayed its full committed-but-unapplied tail",
        )
    )

    loss = _loss_inflation()
    results_sink(
        render_table(
            "E17b Quorum-read latency under single-replica loss "
            f"({LOSS_QUERIES} queries, n={LOSS_N})",
            ["median units (healthy)", "median units (one dead)", "inflation"],
            [[loss["median_units_healthy"], loss["median_units_one_dead"],
              f"{loss['median_inflation']}x"]],
            note="counted reduction-operation units across consulted "
            "replicas; the bound is < 3x",
        )
    )

    entropy = _antientropy_convergence()
    results_sink(
        render_table(
            "E17c Anti-entropy: rot one sealed block, scrub, resync",
            ["bad blocks", "repaired", "records resynced", "bit-for-bit"],
            [[entropy["bad_blocks_detected"], ",".join(entropy["repaired"]),
              entropy["records_resynced"], "yes"]],
            note="repaired machine digest-equal and state-equal to the "
            "primary; a second scrub is clean",
        )
    )

    RESULTS_JSON.parent.mkdir(exist_ok=True)
    RESULTS_JSON.write_text(
        json.dumps(
            {"quick": QUICK, "e17a_crash_sweep": sweep,
             "e17b_loss_inflation": loss, "e17c_antientropy": entropy},
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )

    # Timing: one quorum read on a healthy, aligned 3-replica set.
    cluster = make_cluster(LOSS_N)
    cluster.align()
    predicate = _range_queries(1, seed=7)[0]

    def run_quorum_read():
        cluster.query(predicate, K)

    benchmark(run_quorum_read)
