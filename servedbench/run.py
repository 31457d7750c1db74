"""Served-stack benchmark entry point.

Usage (from the repository root)::

    python3 servedbench/run.py --workload hot-skew --seed 1 --seconds 15 --trace 0

Prints every metric by name and unit, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, with times scaled to a reference
interpreter speed (``servedbench/speed.py``) and the raw wall-clock
values printed beside them; ``--trace 1`` runs with spans and
reports the per-layer metrics, writing the raw spans and counters to
``.bench_out/``.  Exits 1 when any answer was wrong or any operation
failed, and 2 when the library under test cannot be imported.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: ``failed_frac`` is always printed; it is 0 at a correct commit, so it is
#: carried in the result line as ``failed``/``attempted`` rather than as a
#: regression-bounded metric.
UNBOUNDED = ("failed_frac",)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _import_benchmark():
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise ImportError(f"no repro package under {src}")
    sys.path[:0] = [src, ROOT]
    from servedbench import loop, metrics, tracing
    from servedbench.workloads import WORKLOADS

    return loop, metrics, tracing, WORKLOADS


def _write_trace(run, summary, values) -> str:
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{run.workload}-seed{run.seed}.json.gz")
    with gzip.open(path, "wt") as handle:
        json.dump({
            "workload": run.workload,
            "seed": run.seed,
            "span_fields": ["name", "parent", "thread", "wall0", "wall1",
                            "cpu0", "cpu1", "count"],
            "spans": run.spans,
            "calibration": run.speed.samples,
            "counters": run.counter_delta,
            "summary": summary,
            "per_layer": values,
        }, handle)
    return path


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        loop, metrics, tracing, workloads = _import_benchmark()
    except ImportError as exc:
        print(f"servedbench: cannot import the stack under test: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads:
        print(f"servedbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads)}", file=sys.stderr)
        return 2
    run = loop.run_workload(
        workloads[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    print(f"{run.workload} seed={run.seed}: {run.timed_reads} reads in {run.batches} "
          f"batches, {run.timed_writes} writes, {run.attempted} checked, "
          f"{run.failed} failed")
    if args.trace:
        summary = tracing.breakdown(run.spans, run.speed.scale().factor)
        values = metrics.per_layer(run, summary)
        units = metrics.PER_LAYER_UNITS
        path = _write_trace(run, summary, values)
        print(f"  spans: {len(run.spans)} in {path}; self {summary['self_total_s']:.4f} s "
              f"of busy {summary['busy_s']:.4f} s")
        reported = values
        print("\n".join(metrics.format_table(values, units)))
    else:
        values = metrics.end_to_end(run)
        units = metrics.END_TO_END_UNITS
        reported = {k: v for k, v in values.items() if k not in UNBOUNDED}
        print("  at reference speed (reported):")
        print("\n".join(metrics.format_table(values, units)))
        print("  raw wall clock:")
        print("\n".join(metrics.format_table(metrics.end_to_end(run, normalized=False), units)))
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in reported.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
