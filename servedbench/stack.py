"""The one stack every workload runs, and the counters its layers expose."""

from __future__ import annotations

import dataclasses
from typing import Dict

from repro.serving import ServingEngine
from repro.sharding import sharded_index
from repro.structures import DynamicRangeTreap

NUM_SHARDS = 4
REPLICAS_PER_SHARD = 3


def build_stack(points, structure=DynamicRangeTreap):
    """``ServingEngine(sharded_index(...))`` with library defaults otherwise.

    Quorum reads, lazy follower apply, ``commit_interval=1``, a
    1,024-entry result cache, ``max_staleness=0`` and a 4-thread
    dispatch pool are all the library's defaults; the benchmark names
    only the topology.  ``structure`` serves as both black boxes of
    Theorem 2 and as the coordinator's per-shard max summaries.
    """
    index = sharded_index(
        points, structure, structure,
        num_shards=NUM_SHARDS, strategy="range",
        replicas_per_shard=REPLICAS_PER_SHARD,
    )
    return ServingEngine(index), index


def _ints(stats) -> Dict[str, int]:
    return {
        field.name: getattr(stats, field.name)
        for field in dataclasses.fields(stats)
        if type(getattr(stats, field.name)) is int
    }


def _summed(stats_objects) -> Dict[str, int]:
    total: Dict[str, int] = {}
    for stats in stats_objects:
        for name, value in _ints(stats).items():
            total[name] = total.get(name, 0) + value
    return total


def counters(engine, index) -> Dict[str, Dict[str, int]]:
    """Integer counters of every layer's stats object, summed per layer.

    Timing fields (floats) are left out: they are what tracing may
    change, the counters are what it must not.
    """
    replica_sets = [shard.backend for shard in index.router.shards.values()]
    replicas = [r for rs in replica_sets for r in rs.replicas]
    return {
        "serving": _ints(engine.stats),
        "cache": _ints(engine.cache.stats),
        "sharding": _ints(index.stats),
        "replication": _summed(rs.stats for rs in replica_sets),
        "reduction": _summed(r.durable.inner.stats for r in replicas),
        "io": _summed(r.durable.store.ctx.stats for r in replicas),
        "net": _summed(rs.fabric.stats for rs in replica_sets),
    }


def delta(after, before) -> Dict[str, Dict[str, int]]:
    return {
        layer: {name: value - before[layer].get(name, 0) for name, value in fields.items()}
        for layer, fields in after.items()
    }


def io_totals(replicas) -> tuple:
    """``(block reads, block writes)`` summed over every replica's disk."""
    reads = writes = 0
    for replica in replicas:
        stats = replica.durable.store.ctx.stats
        reads += stats.reads
        writes += stats.writes
    return reads, writes


def all_replicas(index):
    return [
        replica
        for shard in index.router.shards.values()
        for replica in shard.backend.replicas
    ]
