"""Interpreter-speed calibration: timings in reference-speed seconds.

The benchmark runs on shared machines whose CPU speed swings by up to
1.7x over seconds, as neighbours load the cores it shares.  Raw wall
times of two runs of the same code then differ by more than any useful
regression bound.  So each run times a fixed pure-Python kernel on its
own thread's CPU clock, interleaved with the work but outside every
timed call, and scales each timed call by ``REF_SECONDS`` over the
kernel's median time in the same ``BIN_SECONDS`` window.  A normalized
time is what the call would have taken on an interpreter where the
kernel takes ``REF_SECONDS``.

The kernel touches nothing of the stack, so a slower stack still reads
slower.  It is timed on the thread CPU clock, so time spent waiting
for the interpreter lock (a busier dispatch pool, a new background
thread) is not divided out either.  Raw wall times are printed and
kept next to the normalized ones.
"""

from __future__ import annotations

import bisect
import statistics
from time import perf_counter, thread_time
from typing import List, Sequence, Tuple

#: Kernel time on the reference interpreter (the development host's fast state).
REF_SECONDS = 30e-6
#: Calibration samples are pooled over windows of this width.
BIN_SECONDS = 0.05
#: At most one calibration burst per this interval.
MIN_GAP_SECONDS = 0.0025
BURST = 3


class _Node:
    __slots__ = ("key", "value", "next")


def _kernel() -> int:
    """Allocation, dict, list and call work, like the stack's own code."""
    table = {}
    head = None
    out = []
    for i in range(60):
        node = _Node()
        node.key = (i, float(i))
        node.value = [i, i + 1]
        node.next = head
        head = node
        table[node.key] = node
        out.append(sorted(node.value, reverse=True)[0])
    return len(table) + len(out)


class SpeedProbe:
    """Timestamps and CPU times of calibration kernel runs."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        self._last = float("-inf")

    def tick(self, force: bool = False) -> None:
        """Run a burst of the kernel unless one ran in the last few ms."""
        now = perf_counter()
        if not force and now - self._last < MIN_GAP_SECONDS:
            return
        self._last = now
        _kernel()  # untimed: the first run after other work is cache-cold
        for _ in range(BURST):
            began = thread_time()
            _kernel()
            self.samples.append((now, thread_time() - began))

    def scale(self) -> "Scale":
        return Scale(self.samples)


class Scale:
    """Maps a wall timestamp to the factor ``REF_SECONDS / kernel median``."""

    def __init__(self, samples: Sequence[Tuple[float, float]]) -> None:
        if not samples:
            raise ValueError("no calibration samples")
        ordered = sorted(samples)
        self._origin = ordered[0][0]
        bins: dict = {}
        for at, seconds in ordered:
            bins.setdefault(int((at - self._origin) // BIN_SECONDS), []).append(seconds)
        self._keys = sorted(bins)
        self._factors = [REF_SECONDS / statistics.median(bins[key]) for key in self._keys]

    def factor(self, at: float) -> float:
        """Factor of the bin holding ``at``, or of the nearest bin with samples."""
        key = int((at - self._origin) // BIN_SECONDS)
        index = bisect.bisect_left(self._keys, key)
        if index == len(self._keys):
            index -= 1
        elif self._keys[index] != key and index > 0:
            if key - self._keys[index - 1] < self._keys[index] - key:
                index -= 1
        return self._factors[index]
