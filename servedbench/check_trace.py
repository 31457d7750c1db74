"""Traced-vs-untraced check and the per-layer baseline files.

Usage (from the repository root)::

    python3 servedbench/check_trace.py --seed 1 --seconds 12 --out servedbench/baseline

For each workload, runs the same seed and the same number of steps once
untraced and once traced, then:

* requires every layer counter (``ServingStats``, ``CacheStats``,
  ``ShardingStats``, ``ReplicationStats``, ``ReductionStats``,
  ``IOStats``, ``NetStats``) to be equal in both runs;
* reports the tracing overhead as untraced / traced ``throughput_ops_s``;
* writes ``<out>/<workload>.json``: the per-layer metrics, self time by
  layer, span coverage of the traced busy time with the remainder, and
  whether the trace confirms the reason the workload exists.

Exits 1 if any counter differs or any answer was wrong.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from servedbench import metrics  # noqa: E402
from servedbench.loop import run_workload  # noqa: E402
from servedbench.tracing import breakdown, layer_of  # noqa: E402
from servedbench.workloads import WORKLOADS  # noqa: E402

#: Fixed step counts for the read-only workloads, so both runs issue the
#: same operations (mixed-write is already fixed by its operation budget).
CHECK_STEPS = {"selective-cold": 200, "hot-skew": 20_000, "mixed-write": None}

LAYERS = ("serving", "sharding", "replication", "durability", "core", "structures")


def _by_layer(table, denominator):
    totals = {layer: 0.0 for layer in LAYERS}
    for name, seconds in table.items():
        totals[layer_of(name)] += seconds
    return {layer: 1000.0 * value / denominator if denominator else 0.0
            for layer, value in totals.items()}


def _claims(name, values, read_self):
    if name == "selective-cold":
        total = sum(read_self.values())
        share = (read_self["core"] + read_self["structures"]) / total
        return {"core_plus_structures_share_of_read_self": share, "holds": share > 0.5}
    if name == "hot-skew":
        rate = values["serving.cache_hit_rate"]
        return {"cache_hit_rate": rate, "holds": rate >= 0.9}
    first = values["em.block_reads_per_write_first_quarter"]
    last = values["em.block_reads_per_write_last_quarter"]
    rate = values["serving.cache_hit_rate"]
    return {
        "em.block_reads_per_write_first_quarter": first,
        "em.block_reads_per_write_last_quarter": last,
        "cache_hit_rate": rate,
        "holds": values["em.block_reads_per_write"] > 0 and last > first and rate < 0.1,
    }


def check(name: str, seed: int, seconds: float) -> dict:
    workload = WORKLOADS[name]
    steps = CHECK_STEPS[name]
    plain = run_workload(workload, seed, seconds, trace=False, steps=steps)
    traced = run_workload(workload, seed, seconds, trace=True, steps=steps)
    summary = breakdown(traced.spans, traced.speed.scale().factor)
    values = metrics.per_layer(traced, summary)
    differing = sorted(
        f"{layer}.{field}"
        for layer, fields in plain.counter_delta.items()
        for field, value in fields.items()
        if traced.counter_delta[layer][field] != value
    )
    untraced_tput = metrics.end_to_end(plain)["throughput_ops_s"]
    traced_tput = metrics.end_to_end(traced)["throughput_ops_s"]
    read_self = _by_layer(summary["self_s"]["read"], traced.timed_reads)
    return {
        "workload": name,
        "seed": seed,
        "steps": steps,
        "reads": traced.timed_reads,
        "writes": traced.timed_writes,
        "failed": plain.failed + traced.failed,
        "counters_equal": not differing,
        "differing_counters": differing,
        "tracing_overhead": {
            "untraced_throughput_ops_s": untraced_tput,
            "traced_throughput_ops_s": traced_tput,
            "untraced_over_traced": untraced_tput / traced_tput,
        },
        "coverage": {
            "busy_s": summary["busy_s"],
            "self_total_s": summary["self_total_s"],
            "remainder_s": summary["busy_s"] - summary["self_total_s"],
            "self_over_busy": summary["coverage"],
        },
        "self_ms_per_read_by_layer": read_self,
        "self_ms_per_write_by_layer": _by_layer(
            summary["self_s"]["write"], traced.timed_writes),
        "per_layer": values,
        "claim": _claims(name, values, read_self),
        "counters": traced.counter_delta,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="traced-vs-untraced check")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12)
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    parser.add_argument("--out", default=None, help="directory for <workload>.json")
    args = parser.parse_args(argv)
    ok = True
    for name in args.workload or list(WORKLOADS):
        report = check(name, args.seed, args.seconds)
        ok = ok and report["counters_equal"] and report["failed"] == 0
        overhead = report["tracing_overhead"]
        coverage = report["coverage"]
        print(f"{name}: counters equal={report['counters_equal']} "
              f"{report['differing_counters']}; overhead "
              f"{overhead['untraced_throughput_ops_s']:.6g} / "
              f"{overhead['traced_throughput_ops_s']:.6g} ops/s = "
              f"{overhead['untraced_over_traced']:.3f}; self {coverage['self_total_s']:.4f} s "
              f"of busy {coverage['busy_s']:.4f} s; claim {report['claim']}")
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            with open(os.path.join(args.out, f"{name}.json"), "w") as handle:
                json.dump(report, handle, indent=1, sort_keys=True)
                handle.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
