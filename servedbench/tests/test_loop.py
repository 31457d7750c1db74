import dataclasses

from servedbench import metrics
from servedbench.loop import run_workload
from servedbench.tracing import breakdown
from servedbench.workloads import WORKLOADS, WRITE_PROBE_OPS


def _small(name):
    return dataclasses.replace(WORKLOADS[name], n=2000, warmup_steps=5)


def test_traced_run_keeps_every_counter_of_the_untraced_run():
    workload = _small("mixed-write")
    plain = run_workload(workload, 3, seconds=1, trace=False, steps=30)
    traced = run_workload(workload, 3, seconds=1, trace=True, steps=30)
    assert plain.failed == traced.failed == 0
    assert plain.counter_delta == traced.counter_delta
    assert plain.timed_writes == traced.timed_writes > 0
    values = metrics.per_layer(traced, breakdown(traced.spans))
    assert set(values) == set(metrics.PER_LAYER_UNITS)
    assert values["replication.records_shipped_per_write"] == 2.0
    assert values["em.block_reads_per_write"] > 0


def test_read_only_run_reports_every_end_to_end_metric():
    run = run_workload(_small("selective-cold"), 1, seconds=1, trace=False, steps=3)
    values = metrics.end_to_end(run)
    assert set(values) == set(metrics.END_TO_END_UNITS)
    assert values["failed_frac"] == 0.0
    assert run.timed_reads == 48 and run.timed_writes == WRITE_PROBE_OPS
    assert all(value > 0 for name, value in values.items() if name != "failed_frac")
