"""Seeded inputs and traffic for the three served-stack workloads.

Everything here is a pure function of ``--seed``: the points, the range
pool, and the closed-loop operation stream.  The stack under test only
ever sees the generated operations.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.core.problem import Element
from repro.structures import RangePredicate1D

UNIVERSE = 1_000_000.0
CLIENTS = 16
POOL_SIZE = 512
ZIPF_S = 1.1
MAX_K = 20
SELECTIVE_WIDTH = 4e-4 * UNIVERSE
SELECTIVE_K = 10

READ = "read"
INSERT = "insert"
DELETE = "delete"


@dataclass(frozen=True)
class Workload:
    """One named traffic mix over the served stack.

    ``write_frac`` is each client's chance of drawing a write per step.
    ``ops_per_second`` is set for workloads whose per-op cost drifts
    with the writes already made (the WAL re-read of known cost 1):
    they run ``ops_per_second * seconds`` operations instead of a fixed
    wall time, so two commits measure the same sequence.  It is an
    operation budget per requested second, not a rate.
    """

    name: str
    n: int
    reads: str  # "selective" or "zipf"
    write_frac: float
    warmup_steps: int
    ops_per_second: Optional[int]
    why: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "selective-cold", 50_000, "selective", 0.0, 4, None,
            "fresh ~20-match ranges, never repeated: cache and batch "
            "merging cannot help, so time lands in core and structures",
        ),
        Workload(
            "hot-skew", 20_000, "zipf", 0.0, 200, None,
            "Zipf over 512 broad ranges that fit the 1,024-entry cache: "
            "time lands in serving; the control for core changes",
        ),
        Workload(
            "mixed-write", 20_000, "zipf", 0.2, 200, 600,
            "hot-skew reads plus 20% inserts/deletes: every write moves the "
            "read stamp, so time moves into replication, durability and em",
        ),
    )
}

#: Writes issued after the timed reads of a read-only workload, so that
#: every workload reports write latency.  It spans a few seconds, so one
#: burst of machine noise cannot set its median.
WRITE_PROBE_OPS = 1024


@dataclass(frozen=True)
class Op:
    kind: str
    predicate: Optional[RangePredicate1D] = None
    k: int = 0
    element: Optional[Element] = None


def make_points(n: int, seed: int) -> List[Element]:
    """``n`` points uniform in ``[0, UNIVERSE)`` with distinct weights."""
    rng = random.Random(f"points:{seed}")
    weights = set()
    points = []
    while len(points) < n:
        weight = rng.random()
        if weight in weights:
            continue
        weights.add(weight)
        points.append(Element(rng.uniform(0.0, UNIVERSE), weight))
    return points


def range_pool(seed: int, size: int = POOL_SIZE) -> List[RangePredicate1D]:
    """Broad ranges, width log-uniform over 1%-50% of the universe."""
    rng = random.Random(f"pool:{seed}")
    low, high = math.log(0.01 * UNIVERSE), math.log(0.5 * UNIVERSE)
    pool = []
    for _ in range(size):
        width = math.exp(rng.uniform(low, high))
        lo = rng.uniform(0.0, UNIVERSE - width)
        pool.append(RangePredicate1D(lo, lo + width))
    return pool


class ZipfSampler:
    """Rank ``i`` (0-based) drawn with probability proportional to ``(i+1)^-s``."""

    def __init__(self, size: int, s: float, rng: random.Random) -> None:
        total = 0.0
        self._cumulative = []
        for rank in range(1, size + 1):
            total += rank ** -s
            self._cumulative.append(total)
        self._total = total
        self._rng = rng

    def draw(self) -> int:
        return bisect.bisect_left(self._cumulative, self._rng.random() * self._total)


class Traffic:
    """The closed-loop operation stream of one workload run.

    :meth:`step` returns one operation per logical client.  Writes come
    first in the list; the loop applies them one at a time, then sends
    the step's reads as one batch.  Inserts draw fresh points whose
    weights avoid every weight the run has used; deletes remove a point
    this run inserted (an insert is drawn instead while there is none).
    """

    def __init__(self, workload: Workload, seed: int, used_weights) -> None:
        self.workload = workload
        self._rng = random.Random(f"traffic:{seed}")
        self._pool = range_pool(seed)
        self._zipf = ZipfSampler(len(self._pool), ZIPF_S, self._rng)
        self._used_weights = set(used_weights)
        self._inserted: List[Element] = []

    def warm_reads(self) -> List[Op]:
        """One read per pool range at the largest ``k`` (empty for selective reads)."""
        if self.workload.reads == "selective":
            return []
        return [Op(READ, predicate, MAX_K) for predicate in self._pool]

    def read(self) -> Op:
        rng = self._rng
        if self.workload.reads == "selective":
            lo = rng.uniform(0.0, UNIVERSE - SELECTIVE_WIDTH)
            return Op(READ, RangePredicate1D(lo, lo + SELECTIVE_WIDTH), SELECTIVE_K)
        return Op(READ, self._pool[self._zipf.draw()], rng.randint(1, MAX_K))

    def write(self) -> Op:
        rng = self._rng
        if self._inserted and rng.random() < 0.5:
            victim = self._inserted.pop(rng.randrange(len(self._inserted)))
            return Op(DELETE, element=victim)
        weight = rng.random()
        while weight in self._used_weights:
            weight = rng.random()
        self._used_weights.add(weight)
        element = Element(rng.uniform(0.0, UNIVERSE), weight)
        self._inserted.append(element)
        return Op(INSERT, element=element)

    def step(self, write_frac: Optional[float] = None) -> List[Op]:
        frac = self.workload.write_frac if write_frac is None else write_frac
        writes, reads = [], []
        for _ in range(CLIENTS):
            if frac > 0.0 and self._rng.random() < frac:
                writes.append(self.write())
            else:
                reads.append(self.read())
        return writes + reads
