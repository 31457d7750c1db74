"""The closed loop: 16 logical clients driven from one OS thread."""

from __future__ import annotations

import gc
import math
import resource
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.structures import DynamicRangeTreap
from servedbench import metrics
from servedbench.oracle import RangeOracle
from servedbench.speed import REF_SECONDS, SpeedProbe
from servedbench.stack import all_replicas, build_stack, counters, delta, io_totals
from servedbench.tracing import Tracer, instrument, traced_treap
from servedbench.workloads import (
    CLIENTS,
    INSERT,
    READ,
    WRITE_PROBE_OPS,
    Traffic,
    Workload,
    make_points,
)

#: Stacks built per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A batch's reads share one latency, so p95 needs this many batches.
MIN_BATCHES = metrics.samples_needed(95)


@dataclass
class Run:
    """Raw measurements of one workload run."""

    workload: str
    seed: int
    setup_seconds: List[float] = field(default_factory=list)
    #: Calibration factor of each set-up (see :mod:`servedbench.speed`).
    setup_factors: List[float] = field(default_factory=list)
    #: Timed read batches as ``(start, wall seconds, reads)``.
    read_calls: List[Tuple[float, float, int]] = field(default_factory=list)
    #: Timed writes as ``(start, wall seconds)``; the first
    #: ``loop_writes`` belong to the closed loop, the rest to the probe.
    write_calls: List[Tuple[float, float]] = field(default_factory=list)
    loop_writes: int = 0
    speed: SpeedProbe = field(default_factory=SpeedProbe)
    timed_ops: int = 0
    timed_reads: int = 0
    timed_writes: int = 0
    batches: int = 0
    attempted: int = 0
    failed: int = 0
    answered: int = 0
    peak_rss_mb: float = 0.0
    counter_delta: Dict[str, Dict[str, int]] = field(default_factory=dict)
    # Traced runs only: block I/O split by operation kind.
    write_block_reads: List[int] = field(default_factory=list)
    write_block_writes: int = 0
    read_block_reads: int = 0
    spans: List[list] = field(default_factory=list)


class _LoadLoop:
    """Applies one step's operations and checks every answer."""

    def __init__(self, run: Run, engine, index, oracle: RangeOracle, trace: bool) -> None:
        self.run = run
        self.engine = engine
        self.index = index
        self.oracle = oracle
        self.replicas = all_replicas(index) if trace else None
        self._reported_error = False

    def _fail(self, count: int) -> None:
        self.run.failed += count
        if not self._reported_error:
            self._reported_error = True
            traceback.print_exc(file=sys.stderr)

    def write(self, op, timed: bool) -> None:
        run = self.run
        call = self.index.insert if op.kind == INSERT else self.index.delete
        if timed:
            run.speed.tick()
        before = io_totals(self.replicas) if timed and self.replicas is not None else None
        began = perf_counter()
        try:
            call(op.element)
        except Exception:  # the loop must keep running; counted as failed
            elapsed = perf_counter() - began
            ok = False
        else:
            elapsed = perf_counter() - began
            ok = True
        if before is not None:
            after = io_totals(self.replicas)
            run.write_block_reads.append(after[0] - before[0])
            run.write_block_writes += after[1] - before[1]
        if timed:
            run.write_calls.append((began, elapsed))
            run.timed_writes += 1
        run.attempted += 1
        if ok:
            if op.kind == INSERT:
                self.oracle.insert(op.element)
            else:
                self.oracle.delete(op.element)
        else:
            self._fail(1)

    def read_batch(self, ops, timed: bool) -> None:
        run = self.run
        requests = [(op.predicate, op.k) for op in ops]
        before = io_totals(self.replicas) if timed and self.replicas is not None else None
        began = perf_counter()
        try:
            answers = self.engine.serve(requests)
        except Exception:  # a shed or a crash fails the whole batch
            answers = None
        elapsed = perf_counter() - began
        if before is not None:
            run.read_block_reads += io_totals(self.replicas)[0] - before[0]
        if timed:
            run.read_calls.append((began, elapsed, len(ops)))
            run.timed_reads += len(ops)
            run.batches += 1
        run.attempted += len(ops)
        if answers is None:
            self._fail(len(ops))
            return
        wrong = 0
        for op, answer in zip(ops, answers):
            expected = self.oracle.top_weights(op.predicate.lo, op.predicate.hi, op.k)
            if [element.weight for element in answer] != expected:
                wrong += 1
            run.answered += len(answer)
        if wrong:
            run.failed += wrong
            print(f"{wrong} answers differ from the oracle", file=sys.stderr)

    def step(self, ops, timed: bool) -> None:
        if timed:
            self.run.speed.tick()
        reads = []
        for op in ops:
            if op.kind == READ:
                reads.append(op)
            else:
                self.write(op, timed)
        if reads:
            self.read_batch(reads, timed)
        if timed:
            self.run.speed.tick()


def _timed_build(points, run: Run, structure):
    """One stack build, calibrated by kernel bursts just before and after."""
    first = len(run.speed.samples)
    run.speed.tick(force=True)
    began = perf_counter()
    stack = build_stack(points, structure)
    run.setup_seconds.append(perf_counter() - began)
    run.speed.tick(force=True)
    kernel = [seconds for _, seconds in run.speed.samples[first:]]
    run.setup_factors.append(REF_SECONDS / metrics.median(kernel))
    return stack


def _build(points, run: Run, trace: bool, tracer: Optional[Tracer]):
    if trace:
        return _timed_build(points, run, traced_treap(tracer))
    for attempt in range(SETUP_REPEATS):
        if attempt:
            engine.close()
            del engine, index
            gc.collect()
        engine, index = _timed_build(points, run, DynamicRangeTreap)
    return engine, index


def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    steps: Optional[int] = None,
) -> Run:
    """One run: set up, warm, measure, then check counters and answers.

    Read-only workloads run for ``seconds`` (and at least
    :data:`MIN_BATCHES` batches) unless ``steps`` fixes the step count;
    they then issue :data:`WRITE_PROBE_OPS` writes, timed like any write
    but excluded from throughput.  Workloads with ``ops_per_second`` run
    ``ops_per_second * seconds`` operations, rounded up to whole steps.
    """
    run = Run(workload.name, seed)
    points = make_points(workload.n, seed)
    tracer = Tracer() if trace else None
    engine, index = _build(points, run, trace, tracer)
    try:
        oracle = RangeOracle(points)
        traffic = Traffic(workload, seed, (p.weight for p in points))
        load = _LoadLoop(run, engine, index, oracle, trace)
        warm = traffic.warm_reads()
        for start in range(0, len(warm), CLIENTS):
            load.read_batch(warm[start:start + CLIENTS], timed=False)
        for _ in range(workload.warmup_steps):
            load.step(traffic.step(write_frac=0.0), timed=False)
        if workload.ops_per_second is not None and steps is None:
            steps = math.ceil(workload.ops_per_second * seconds / CLIENTS)
        if tracer is not None:
            instrument(tracer, engine, index)
            tracer.active = True
        before = counters(engine, index)
        started = perf_counter()
        done = 0
        while True:
            if steps is not None:
                if done >= steps:
                    break
            elif perf_counter() - started >= seconds and run.batches >= MIN_BATCHES:
                break
            load.step(traffic.step(), timed=True)
            done += 1
        run.timed_ops = run.timed_reads + run.timed_writes
        run.loop_writes = run.timed_writes
        if workload.write_frac == 0.0:
            for _ in range(WRITE_PROBE_OPS):
                load.write(traffic.write(), timed=True)
        if tracer is not None:
            tracer.active = False
            run.spans = tracer.spans
        run.counter_delta = delta(counters(engine, index), before)
    finally:
        engine.close()
    run.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return run
