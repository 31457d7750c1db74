"""Brute-force answer oracle, kept in step with the benchmark's writes."""

from __future__ import annotations

import bisect
import heapq
from typing import Dict, List, Sequence, Tuple

from repro.core.problem import Element


class RangeOracle:
    """Coordinate-sorted points; a range query is two bisects and a top-k.

    Answers are weight sequences, heaviest first, memoized per range
    until the next write.  Broad ranges are only re-selected after a
    write, which keeps checking cheap next to the stack's own work.
    """

    def __init__(self, points: Sequence[Element]) -> None:
        ordered = sorted(points, key=lambda e: (e.obj, e.weight))
        self._coords: List[float] = [e.obj for e in ordered]
        self._weights: List[float] = [e.weight for e in ordered]
        self._memo: Dict[Tuple[float, float], Tuple[List[float], bool]] = {}

    def __len__(self) -> int:
        return len(self._coords)

    def insert(self, element: Element) -> None:
        at = bisect.bisect_left(self._coords, element.obj)
        self._coords.insert(at, element.obj)
        self._weights.insert(at, element.weight)
        self._memo.clear()

    def delete(self, element: Element) -> None:
        at = bisect.bisect_left(self._coords, element.obj)
        while at < len(self._coords) and self._coords[at] == element.obj:
            if self._weights[at] == element.weight:
                del self._coords[at]
                del self._weights[at]
                self._memo.clear()
                return
            at += 1
        raise KeyError(f"oracle holds no {element!r}")

    def top_weights(self, lo: float, hi: float, k: int) -> List[float]:
        """Weights of the top-``k`` points in ``[lo, hi]``, heaviest first."""
        entry = self._memo.get((lo, hi))
        if entry is None or (len(entry[0]) < k and not entry[1]):
            begin = bisect.bisect_left(self._coords, lo)
            end = bisect.bisect_right(self._coords, hi)
            want = max(k, 20)
            top = heapq.nlargest(want, self._weights[begin:end])
            entry = (top, len(top) < want)
            self._memo[(lo, hi)] = entry
        return entry[0][:k]
