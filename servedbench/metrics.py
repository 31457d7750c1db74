"""Percentiles and the metric tables (end to end and per layer)."""

from __future__ import annotations

import math
from typing import Dict, List, Sequence

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "read_p50_ms": "ms",
    "read_p95_ms": "ms",
    "write_p50_ms": "ms",
    "write_p95_ms": "ms",
    "failed_frac": "ratio",
    "peak_rss_mb": "MB",
}


def percentile(samples: Sequence[float], p: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``p``% at or below it."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_needed(p: float, beyond: int = MIN_BEYOND) -> int:
    """Fewest samples for which ``beyond`` of them rank above the ``p``th percentile."""
    n = beyond
    while n - max(1, math.ceil(p / 100.0 * n)) < beyond:
        n += 1
    return n


def median(samples: Sequence[float]) -> float:
    ordered = sorted(samples)
    middle = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[middle]
    return (ordered[middle - 1] + ordered[middle]) / 2.0


def end_to_end(run, normalized: bool = True) -> Dict[str, float]:
    """The end-to-end metrics of one untraced run (see README.md).

    Times are in reference-speed units (:mod:`servedbench.speed`) unless
    ``normalized`` is false, which gives the raw wall times.
    """
    factor = run.speed.scale().factor if normalized else (lambda at: 1.0)
    read_ms: List[float] = []
    for began, seconds, count in run.read_calls:
        read_ms.extend([1000.0 * seconds * factor(began)] * count)
    write_s = [seconds * factor(began) for began, seconds in run.write_calls]
    busy = sum(seconds * factor(began) for began, seconds, _ in run.read_calls)
    busy += sum(write_s[:run.loop_writes])
    setup = [
        seconds * (scale if normalized else 1.0)
        for seconds, scale in zip(run.setup_seconds, run.setup_factors)
    ]
    write_ms = [1000.0 * seconds for seconds in write_s]
    return {
        "setup_s": median(setup),
        "throughput_ops_s": run.timed_ops / busy,
        "read_p50_ms": percentile(read_ms, 50),
        "read_p95_ms": percentile(read_ms, 95),
        "write_p50_ms": percentile(write_ms, 50),
        "write_p95_ms": percentile(write_ms, 95),
        "failed_frac": run.failed / run.attempted,
        "peak_rss_mb": run.peak_rss_mb,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


PER_LAYER_UNITS = {
    "serving.self_ms_per_read": "ms",
    "serving.cache_hit_rate": "ratio",
    "serving.stale_misses_per_read": "count",
    "serving.traversals_per_read": "count",
    "serving.parallel_batch_frac": "ratio",
    "sharding.self_ms_per_read": "ms",
    "sharding.shards_contacted_per_read": "count",
    "sharding.shard_probes_per_read": "count",
    "sharding.bound_probes_per_read": "count",
    "sharding.pruned_frac": "ratio",
    "sharding.self_ms_per_write": "ms",
    "replication.self_ms_per_read": "ms",
    "replication.replica_reads_per_read": "count",
    "replication.self_ms_per_write": "ms",
    "replication.records_shipped_per_write": "count",
    "replication.stale_fallbacks_per_read": "count",
    "durability.self_ms_per_write": "ms",
    "durability.apply_ms_per_write": "ms",
    "durability.replay_ms_per_read": "ms",
    "em.block_reads_per_write": "count",
    "em.block_reads_per_write_first_quarter": "count",
    "em.block_reads_per_write_last_quarter": "count",
    "em.block_writes_per_write": "count",
    "em.block_reads_per_read": "count",
    "net.sends_per_write": "count",
    "core.self_ms_per_read": "ms",
    "core.calls_per_read": "count",
    "core.monitored_probes_per_call": "count",
    "core.threshold_fetches_per_call": "count",
    "core.full_scans_per_call": "count",
    "core.memo_hits_per_call": "count",
    "core.update_ms_per_write": "ms",
    "structures.prioritized_calls_per_read": "count",
    "structures.max_calls_per_read": "count",
    "structures.self_ms_per_read": "ms",
    "structures.reported_per_answer": "ratio",
    "structures.update_ms_per_write": "ms",
    "trace.coverage": "ratio",
}


def _layer_sum(table: Dict[str, float], layer: str) -> float:
    return sum(value for name, value in table.items() if name.startswith(layer + "."))


def per_layer(run, spans_summary) -> Dict[str, float]:
    """Per-layer metrics of one traced run, from its spans and counters."""
    reads, writes = run.timed_reads, run.timed_writes
    c = run.counter_delta
    self_read = spans_summary["self_s"]["read"]
    self_write = spans_summary["self_s"]["write"]
    incl_read = spans_summary["inclusive_s"]["read"]
    incl_write = spans_summary["inclusive_s"]["write"]
    calls_read = spans_summary["calls"]["read"]
    counts_read = spans_summary["counts"]["read"]
    ms = 1000.0
    quarter = max(1, len(run.write_block_reads) // 4)
    core_calls = c["reduction"]["queries"]
    return {
        "serving.self_ms_per_read": ms * _ratio(_layer_sum(self_read, "serving"), reads),
        "serving.cache_hit_rate": _ratio(c["cache"]["hits"], c["cache"]["lookups"]),
        "serving.stale_misses_per_read": _ratio(
            c["cache"]["stale_misses"] + c["cache"]["epoch_invalidations"], reads),
        "serving.traversals_per_read": _ratio(c["serving"]["traversals"], reads),
        "serving.parallel_batch_frac": _ratio(
            c["serving"]["parallel_batches"], c["serving"]["batches"]),
        "sharding.self_ms_per_read": ms * _ratio(_layer_sum(self_read, "sharding"), reads),
        "sharding.shards_contacted_per_read": _ratio(c["sharding"]["shards_contacted"], reads),
        "sharding.shard_probes_per_read": _ratio(c["sharding"]["shard_probes"], reads),
        "sharding.bound_probes_per_read": _ratio(c["sharding"]["max_probes"], reads),
        "sharding.pruned_frac": _ratio(c["sharding"]["shards_pruned"], c["sharding"]["shard_slots"]),
        "sharding.self_ms_per_write": ms * _ratio(_layer_sum(self_write, "sharding"), writes),
        "replication.self_ms_per_read": ms * _ratio(_layer_sum(self_read, "replication"), reads),
        "replication.replica_reads_per_read": _ratio(
            calls_read.get("durability.query", 0), calls_read.get("replication.query", 0)),
        "replication.self_ms_per_write": ms * _ratio(_layer_sum(self_write, "replication"), writes),
        "replication.records_shipped_per_write": _ratio(c["replication"]["records_shipped"], writes),
        "replication.stale_fallbacks_per_read": _ratio(c["replication"]["stale_fallbacks"], reads),
        "durability.self_ms_per_write": ms * _ratio(
            self_write.get("durability.insert", 0.0) + self_write.get("durability.delete", 0.0),
            writes),
        "durability.apply_ms_per_write": ms * _ratio(
            incl_write.get("durability.apply_shipped", 0.0), writes),
        "durability.replay_ms_per_read": ms * _ratio(
            incl_read.get("durability.replay_unapplied", 0.0), reads),
        "em.block_reads_per_write": _ratio(sum(run.write_block_reads), writes),
        "em.block_reads_per_write_first_quarter": _ratio(
            sum(run.write_block_reads[:quarter]), quarter),
        "em.block_reads_per_write_last_quarter": _ratio(
            sum(run.write_block_reads[-quarter:]), quarter),
        "em.block_writes_per_write": _ratio(run.write_block_writes, writes),
        "em.block_reads_per_read": _ratio(run.read_block_reads, reads),
        "net.sends_per_write": _ratio(c["net"]["sends"], writes),
        "core.self_ms_per_read": ms * _ratio(_layer_sum(self_read, "core"), reads),
        "core.calls_per_read": _ratio(calls_read.get("core.query", 0), reads),
        "core.monitored_probes_per_call": _ratio(c["reduction"]["monitored_probes"], core_calls),
        "core.threshold_fetches_per_call": _ratio(c["reduction"]["threshold_fetches"], core_calls),
        "core.full_scans_per_call": _ratio(c["reduction"]["full_scans"], core_calls),
        "core.memo_hits_per_call": _ratio(c["reduction"]["memo_hits"], core_calls),
        "core.update_ms_per_write": ms * _ratio(_layer_sum(self_write, "core"), writes),
        "structures.prioritized_calls_per_read": _ratio(
            calls_read.get("structures.prioritized", 0), reads),
        "structures.max_calls_per_read": _ratio(calls_read.get("structures.max", 0), reads),
        "structures.self_ms_per_read": ms * _ratio(_layer_sum(self_read, "structures"), reads),
        "structures.reported_per_answer": _ratio(
            counts_read.get("structures.prioritized", 0), run.answered),
        "structures.update_ms_per_write": ms * _ratio(_layer_sum(self_write, "structures"), writes),
        "trace.coverage": spans_summary["coverage"],
    }


def format_table(values: Dict[str, float], units: Dict[str, str]) -> List[str]:
    width = max(len(name) for name in values)
    return [f"  {name:<{width}}  {values[name]:.6g} {units[name]}" for name in values]
