"""The three structure contracts that the reductions compose.

The paper treats structures as black boxes characterised by their space
and query costs:

* a **prioritized** structure answers ``(q, tau)`` in
  ``Q_pri(n) + O(t/B)``;
* a **max** structure answers ``q`` (top-1) in ``Q_max(n)``;
* a **top-k** structure answers ``(q, k)`` in ``Q_top(n) + O(k/B)``.

Two details of the contracts matter to the reductions and are encoded
here explicitly:

1. **Cost monitoring** (Section 3.2): the reductions issue prioritized
   queries that they may terminate "as soon as ``4f + 1`` elements have
   been reported".  :meth:`PrioritizedIndex.query` therefore accepts a
   ``limit`` and reports whether it stopped by itself or was cut off —
   the ``truncated`` flag of :class:`PrioritizedResult`.
2. **Cost bounds as data**: Theorem 1 needs ``Q_pri(n)`` itself (to set
   ``f = 12*lambda*B*Q_pri(n)``), and Theorem 2 needs ``Q_max(n)`` (to
   set ``K_i = B*Q_max(n)*(1+sigma)^{i-1}``).  Each structure exposes
   its own bound via :meth:`query_cost_bound`.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

from repro.core.problem import Element, Predicate


@dataclass
class PrioritizedResult:
    """Outcome of a (possibly cost-monitored) prioritized query.

    ``truncated`` is ``True`` when the query was terminated manually
    after reaching its ``limit`` — the caller then knows only that
    *more than* ``limit`` elements match, which is exactly the bit of
    information the reductions' round logic consumes.
    """

    elements: List[Element]
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.elements)


@dataclass
class OpCounter:
    """Cheap operation counters for RAM-model structures.

    The EM structures count I/Os through their context; RAM structures
    count node visits and scanned records here so benches can verify
    asymptotic shapes without relying on noisy wall-clock numbers.
    """

    node_visits: int = 0
    scanned: int = 0

    def reset(self) -> None:
        self.node_visits = 0
        self.scanned = 0

    @property
    def total(self) -> int:
        return self.node_visits + self.scanned


class PrioritizedIndex(ABC):
    """A structure answering prioritized queries ``(q, tau)``.

    Implementations must report *every* matching element with weight
    ``>= tau`` when ``limit`` is ``None``, and may stop early (setting
    ``truncated``) once strictly more than ``limit`` elements have been
    produced.  Elements are reported in arbitrary order unless the
    implementation documents otherwise.
    """

    ops: OpCounter

    @property
    @abstractmethod
    def n(self) -> int:
        """Number of indexed elements."""

    @abstractmethod
    def query(
        self, predicate: Predicate, tau: float, limit: Optional[int] = None
    ) -> PrioritizedResult:
        """Report matches with weight >= tau, cost-monitored at ``limit``."""

    def query_cost_bound(self) -> float:
        """An estimate of ``Q_pri(n)`` — the search term of one query.

        Defaults to ``log2(n)``; structures with different bounds
        override this.  The reductions only use it to size internal
        parameters, never for correctness.
        """
        return max(1.0, math.log2(max(2, self.n)))

    def space_units(self) -> int:
        """Space in the structure's native units (blocks in EM, words in RAM)."""
        return self.n


class MaxIndex(ABC):
    """A structure answering max (top-1) queries."""

    ops: OpCounter

    @property
    @abstractmethod
    def n(self) -> int:
        """Number of indexed elements."""

    @abstractmethod
    def query(self, predicate: Predicate) -> Optional[Element]:
        """The matching element of maximum weight, or ``None``."""

    def query_cost_bound(self) -> float:
        """An estimate of ``Q_max(n)``; defaults to ``log2(n)``."""
        return max(1.0, math.log2(max(2, self.n)))

    def space_units(self) -> int:
        """Space in native units."""
        return self.n


class TopKIndex(ABC):
    """A structure answering top-k queries — what the reductions produce."""

    @property
    @abstractmethod
    def n(self) -> int:
        """Number of indexed elements."""

    @abstractmethod
    def query(self, predicate: Predicate, k: int) -> List[Element]:
        """The ``k`` heaviest matches, heaviest first (all of them if fewer)."""

    def query_topk_batch(self, requests, **kwargs) -> List[List[Element]]:
        """Answer a batch of ``(predicate, k)`` requests, in request order.

        The default plan (:func:`repro.serving.batch.execute_batch`)
        groups requests by predicate shape and pays one traversal per
        group at the group's largest ``k`` — exact for every member
        because top-k answers are prefix-closed under the distinct
        total weight order.  Subclasses override only to change how
        groups are dispatched (a sharded index fans them out across
        shards); every override must return exactly what serial
        :meth:`query` calls would have.
        """
        from repro.serving.batch import execute_batch

        return execute_batch(self, requests, **kwargs)

    def space_units(self) -> int:
        """Space usage in machine units (defaults to one per element).

        Composite indexes (durable wrappers, replica sets, sharded
        deployments) override this to sum their parts.
        """
        return self.n


class CountingIndex(ABC):
    """A structure answering (approximate) counting queries.

    Section 2's reduction consumes counting structures whose answer is
    guaranteed to lie in ``[|q(D)|, c * |q(D)|]`` for a constant
    ``c >= 1`` fixed for all queries (``c = 1`` means exact).  The
    paper notes its discussion *improves* [28] by tolerating
    approximate counts; :class:`repro.core.counting.CountingTopKIndex`
    implements both regimes.
    """

    ops: OpCounter

    @property
    @abstractmethod
    def n(self) -> int:
        """Number of indexed elements."""

    @property
    def approximation_factor(self) -> float:
        """The guarantee constant ``c`` (1.0 for exact counters)."""
        return 1.0

    @abstractmethod
    def count(self, predicate: Predicate) -> int:
        """A value in ``[|q(D)|, c * |q(D)|]``."""

    def query_cost_bound(self) -> float:
        """An estimate of ``Q_cnt(n)``; defaults to ``log2(n)``."""
        return max(1.0, math.log2(max(2, self.n)))

    def space_units(self) -> int:
        """Space in native units."""
        return self.n


class DynamicPrioritizedIndex(PrioritizedIndex):
    """A prioritized structure supporting insertions and deletions."""

    @abstractmethod
    def insert(self, element: Element) -> None:
        """Add ``element`` to the indexed set."""

    @abstractmethod
    def delete(self, element: Element) -> None:
        """Remove ``element``; raises ``KeyError`` if absent."""


class DynamicMaxIndex(MaxIndex):
    """A max structure supporting insertions and deletions."""

    @abstractmethod
    def insert(self, element: Element) -> None:
        """Add ``element`` to the indexed set."""

    @abstractmethod
    def delete(self, element: Element) -> None:
        """Remove ``element``; raises ``KeyError`` if absent."""


# Factories: the reductions build structures over subsets of D (core-sets
# in Theorem 1, Bernoulli samples in Theorem 2, weight classes in the
# counting reduction), so they are handed constructors rather than
# instances.
PrioritizedFactory = Callable[[Sequence[Element]], PrioritizedIndex]
MaxFactory = Callable[[Sequence[Element]], MaxIndex]
CountingFactory = Callable[[Sequence[Element]], CountingIndex]
DynamicPrioritizedFactory = Callable[[Sequence[Element]], DynamicPrioritizedIndex]
DynamicMaxFactory = Callable[[Sequence[Element]], DynamicMaxIndex]
