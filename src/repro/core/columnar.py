"""Columnar hot path: flat weight arrays, compiled predicates, match scans.

The reductions' asymptotics are dominated by a handful of prioritized
probes, but the *constant factor* of a probe in CPython is dominated by
per-:class:`~repro.core.problem.Element` object traffic: attribute
lookups, ``matches()`` dispatch, heap pushes.  The related top-k range
structures (Tao, arXiv 1208.4516; Brodal et al., arXiv 1509.08240) get
their practical speed from weight-sorted contiguous storage scanned by
rank/offset arithmetic — this module brings that layout to the RAM-model
hot path:

* :class:`ColumnSet` — one element set stored as parallel
  weight-descending columns: an ``array('d')`` of weights (negated, so
  the array is ascending and ``bisect`` works directly), an aligned list
  of raw ``obj`` values for predicate tests, and the aligned
  :class:`Element` list materialized only at the answer boundary.
  Rank-vs-weight conversions (``count_at_least``) are a single bisect.
* :class:`MatchScan` — an incremental scan of one predicate over one
  :class:`ColumnSet`.  It remembers its frontier and every match found
  so far, so a monitored probe, a thresholded fetch, and a larger-``k``
  retry over the same predicate all *resume* one traversal instead of
  repeating it.  A per-index :class:`ScanCache` keeps scans live until
  the next update, so a repeated predicate resumes its scan.
* a **compiled-predicate cache** — per ``predicate_key``, a closure
  specialized to the concrete predicate shape (fields hoisted into
  locals) replaces virtual ``matches()`` dispatch inside scan chunks.
  Structures register compilers next to their predicate classes with
  :func:`register_predicate_compiler`; unregistered predicates fall
  back to the bound ``matches`` method, so the fast path never changes
  *which* elements match, only how fast the test runs.

Answers are identical to the Element paths by construction: weights are
distinct (the repo's standing precondition), so the first ``k`` matches
of a weight-descending scan *are* the unique top-k answer, and a
truncated probe truncates under exactly the legacy condition (strictly
more than ``limit`` matches exist).

Columnar execution engages automatically only for RAM-resident ground
structures: external-memory structures carry an
:class:`~repro.em.model.EMContext` in their ``ctx`` attribute, and
bypassing them would silently zero the I/O accounting that the EM
benches and fault-injection sweeps measure (see :func:`auto_columnar`).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Optional,
    Sequence,
    Type,
)

from repro.core.interfaces import PrioritizedResult
from repro.core.problem import Element, Predicate

#: Elements per scan chunk: one listcomp frame amortized over this many
#: membership tests keeps interpreter overhead per element low while
#: early exits still stop within one chunk of the needed prefix.
_CHUNK = 512

# ----------------------------------------------------------------------
# Global enable switch (tests and --compare runs flip it)
# ----------------------------------------------------------------------
_ENABLED = True


def columnar_enabled() -> bool:
    """Whether columnar fast paths may engage at all."""
    return _ENABLED


def set_columnar_enabled(on: bool) -> bool:
    """Flip the global switch; returns the previous value."""
    global _ENABLED
    previous = _ENABLED
    _ENABLED = bool(on)
    return previous


@contextmanager
def columnar_disabled():
    """Force the legacy Element paths within the block (tests, --compare)."""
    previous = set_columnar_enabled(False)
    try:
        yield
    finally:
        set_columnar_enabled(previous)


def auto_columnar(ground: object) -> bool:
    """Whether a reduction over ``ground`` should run columnar.

    RAM-model structures qualify; EM-backed structures (anything
    carrying an ``EMContext`` as ``.ctx``) do not — their I/O charging
    and fault injection live in the block-transfer layer a flat-array
    bypass would skip.
    """
    return _ENABLED and getattr(ground, "ctx", None) is None


# ----------------------------------------------------------------------
# Predicate keys (canonical home; repro.serving.batch re-exports)
# ----------------------------------------------------------------------
def predicate_key(predicate: Predicate) -> Hashable:
    """A stable grouping/caching key for a predicate.

    Frozen-dataclass predicates (the repo convention) are hashable and
    key as themselves; unhashable predicates fall back to their type
    and ``repr`` — deterministic as long as the repr is (dataclasses'
    generated reprs are).
    """
    try:
        hash(predicate)
    except TypeError:
        return (type(predicate).__qualname__, repr(predicate))
    return predicate


# ----------------------------------------------------------------------
# Compiled predicates
# ----------------------------------------------------------------------
_COMPILERS: Dict[type, Callable[[Predicate], Callable[[Any], bool]]] = {}
_MATCHER_CACHE: Dict[Hashable, Callable[[Any], bool]] = {}
_MATCHER_CACHE_MAX = 2048


def register_predicate_compiler(cls: Type[Predicate]):
    """Class decorator target: register a closure compiler for ``cls``.

    A compiler takes one predicate instance and returns a plain
    ``obj -> bool`` callable with the predicate's fields captured in
    the closure — the specialized form :class:`MatchScan` calls in its
    chunk loop.  The compiled test must be *extensionally identical* to
    ``cls.matches``; the property tests in ``tests/core/test_columnar``
    sweep every registered shape against the virtual path.
    """

    def decorator(compiler: Callable[[Predicate], Callable[[Any], bool]]):
        _COMPILERS[cls] = compiler
        return compiler

    return decorator


def compiled_matcher(predicate: Predicate) -> Callable[[Any], bool]:
    """The specialized membership test for ``predicate`` (cached).

    Falls back to the bound ``matches`` method when no compiler is
    registered — still a win over re-binding per call, and always
    semantically exact.
    """
    key = predicate_key(predicate)
    matcher = _MATCHER_CACHE.get(key)
    if matcher is None:
        compiler = _COMPILERS.get(type(predicate))
        matcher = compiler(predicate) if compiler is not None else predicate.matches
        if len(_MATCHER_CACHE) >= _MATCHER_CACHE_MAX:
            _MATCHER_CACHE.clear()
        _MATCHER_CACHE[key] = matcher
    return matcher


# ----------------------------------------------------------------------
# Columns and scans
# ----------------------------------------------------------------------
class DescendingElements(list):
    """A list of elements known to be in strictly descending weight order.

    :func:`repro.em.selection.select_top_k` recognizes the marker and
    answers by slicing instead of heap selection — the columnar paths
    produce their candidates already ordered, so re-selecting them
    would pay ``O(m log k)`` for nothing.
    """

    __slots__ = ()


class ColumnSet:
    """One element set as parallel weight-descending columns.

    ``elements[i]`` has weight ``-neg_weights[i]`` and object
    ``objs[i]``; ``neg_weights`` ascends, so ``bisect`` gives the
    rank/weight conversions directly.  Supports ``O(n)`` positional
    insert/delete for the dynamic reduction (bisect finds the slot;
    at bench scale the array move is far cheaper than what it saves
    per query, and rebuilds re-sort from scratch anyway).
    """

    __slots__ = ("elements", "objs", "neg_weights", "version")

    def __init__(self, elements: Sequence[Element], presorted: bool = False) -> None:
        ordered = list(elements)
        if not presorted:
            ordered.sort(key=_neg_weight)
        self.elements: List[Element] = ordered
        self.objs: List[Any] = [element.obj for element in ordered]
        self.neg_weights = array("d", [-element.weight for element in ordered])
        #: Bumped on every mutation so cached scans can detect staleness.
        self.version = 0

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Element]:
        return iter(self.elements)

    def count_at_least(self, tau: float) -> int:
        """How many elements have weight ``>= tau`` — one bisect."""
        return bisect_right(self.neg_weights, -tau)

    def position_of(self, element: Element) -> int:
        """Rank (0-based) of ``element``; the stable index map.

        Distinct weights make the position a single bisect; raises
        ``KeyError`` when the element is not present.
        """
        position = bisect_left(self.neg_weights, -element.weight)
        if (
            position < len(self.elements)
            and self.elements[position] == element
        ):
            return position
        raise KeyError(f"element not present: {element!r}")

    def insert(self, element: Element) -> None:
        """Keep the columns sorted through a dynamic insert."""
        position = bisect_left(self.neg_weights, -element.weight)
        self.neg_weights.insert(position, -element.weight)
        self.objs.insert(position, element.obj)
        self.elements.insert(position, element)
        self.version += 1

    def delete(self, element: Element) -> None:
        """Remove one element (``KeyError`` when absent)."""
        position = self.position_of(element)
        del self.neg_weights[position]
        del self.objs[position]
        del self.elements[position]
        self.version += 1

    def scan(self, predicate: Predicate) -> "MatchScan":
        """A fresh incremental scan of ``predicate`` over these columns."""
        return MatchScan(self, predicate)


def _neg_weight(element: Element) -> float:
    return -element.weight


class MatchScan:
    """Incremental evaluation of one predicate over one :class:`ColumnSet`.

    The scan advances a frontier ``upto`` through the weight-descending
    columns and records the *positions* of matches (ascending position
    == descending weight).  Every query primitive the reductions need —
    monitored probe, thresholded fetch, direct top-k — is a resumption
    of the same traversal, so repeats over one predicate (different
    ``k`` values in a batch, a probe followed by its thresholded fetch,
    a guard retry) never rescan a prefix.  It holds ``(columns, upto,
    positions)``, not copied element lists.
    """

    __slots__ = (
        "columns", "predicate", "_match", "upto", "positions", "_version",
        "_pending", "scanned",
    )

    def __init__(self, columns: ColumnSet, predicate: Predicate) -> None:
        self.columns = columns
        self.predicate = predicate
        self._match = compiled_matcher(predicate)
        self.upto = 0
        self.positions: List[int] = []
        self._version = columns.version
        #: A recorded-but-unapplied :meth:`seed_prefix`, installed only
        #: if the scan is consulted again (most predicates never are).
        self._pending: Optional[tuple] = None
        #: Positions this scan has examined itself (seeds excluded): the
        #: cost callers book as ``ReductionStats.column_positions``.
        self.scanned = 0

    # ------------------------------------------------------------------
    def fresh(self) -> bool:
        """Whether the underlying columns are unchanged since creation."""
        return self._version == self.columns.version

    @property
    def exhausted(self) -> bool:
        self._apply_pending()
        return self.upto >= len(self.columns)

    def matches_found(self) -> int:
        self._apply_pending()
        return len(self.positions)

    # ------------------------------------------------------------------
    def _advance_to(self, stop: int) -> None:
        """Scan columns[upto:stop] in chunks, recording match positions."""
        objs = self.columns.objs
        match = self._match
        positions = self.positions
        upto = self.upto
        while upto < stop:
            hi = min(upto + _CHUNK, stop)
            block = objs[upto:hi]
            positions.extend(
                [i for i, obj in enumerate(block, upto) if match(obj)]
            )
            upto = hi
        self.scanned += upto - self.upto
        self.upto = upto

    def ensure_prefix(self, stop: int) -> None:
        """Extend the frontier to cover the first ``stop`` positions."""
        self._apply_pending()
        n = len(self.columns)
        if stop > n:
            stop = n
        if stop > self.upto:
            self._advance_to(stop)

    def ensure_matches(self, m: int, budget: Optional[int] = None) -> int:
        """Scan until ``m`` matches are known or the columns end.

        With ``budget``, examine at most that many further positions.
        """
        self._apply_pending()
        stop = len(self.columns)
        if budget is not None:
            stop = min(stop, self.upto + budget)
        positions = self.positions
        while len(positions) < m and self.upto < stop:
            self._advance_to(min(self.upto + _CHUNK, stop))
        return len(positions)

    def seed_prefix(self, elements: Sequence[Element], upto: int) -> None:
        """Record externally computed knowledge of a prefix.

        ``elements`` must be *exactly* the matches among the first
        ``upto`` positions (any order) — e.g. a non-truncated legacy
        probe (``upto = len(columns)``) or a non-truncated thresholded
        fetch (``upto = count_at_least(tau)``).  Sublinear structures
        compute these in ``O(log + t)``; seeding hands the scan that
        knowledge so repeats materialize instead of re-traversing.

        Recording is O(1): the positions are resolved lazily, only if
        the scan is consulted again — one-shot predicates (the common
        cold case) never pay for it.
        """
        upto = min(upto, len(self.columns))
        if upto <= self.upto:
            return  # the scan already knows at least this much
        if self._pending is None or upto > self._pending[1]:
            self._pending = (list(elements), upto)

    def _apply_pending(self) -> None:
        pending = self._pending
        if pending is None:
            return
        self._pending = None
        elements, upto = pending
        if upto > self.upto:
            position_of = self.columns.position_of
            self.positions = sorted(
                position_of(element) for element in elements
            )
            self.upto = upto

    # ------------------------------------------------------------------
    def _materialize(self, m: int) -> DescendingElements:
        """The first ``m`` known matches as Elements, heaviest first."""
        elements = self.columns.elements
        return DescendingElements([elements[p] for p in self.positions[:m]])

    # The query primitives below take an optional ``budget``: the most
    # positions the call may examine beyond the current frontier.  With
    # a budget the call answers only if the columns decide it within
    # that many positions, and returns ``None`` otherwise; ``budget=0``
    # reads only what the scan already knows (its frontier and seeds).
    def first(
        self, k: int, budget: Optional[int] = None
    ) -> Optional[DescendingElements]:
        """The top-``k`` matches — the direct columnar top-k answer.

        Early exit: scanning stops as soon as ``k`` matches are known,
        because under distinct weights the first ``k`` matches of a
        weight-descending scan are exactly the unique top-k answer.
        Decided once ``k`` matches are known or the columns end.
        """
        if k <= 0:
            return DescendingElements()
        found = self.ensure_matches(k, budget)
        if found < k and self.upto < len(self.columns):
            return None
        return self._materialize(min(k, found))

    def probe(
        self, limit: int, budget: Optional[int] = None
    ) -> Optional[PrioritizedResult]:
        """The monitored probe: everything, or truncation past ``limit``.

        Identical to ``index.query(predicate, -inf, limit=limit)`` on a
        legacy prioritized structure: ``truncated`` iff strictly more
        than ``limit`` elements match, and a non-truncated result holds
        every match.  Decided once ``limit + 1`` matches are known or
        the columns end.
        """
        found = self.ensure_matches(limit + 1, budget)
        if found <= limit and self.upto < len(self.columns):
            return None
        return PrioritizedResult(self._materialize(found), truncated=found > limit)

    def fetch(
        self, tau: float, limit: Optional[int] = None, budget: Optional[int] = None
    ) -> Optional[PrioritizedResult]:
        """The thresholded fetch: matches with weight ``>= tau``.

        The weight threshold becomes a *positional* bound by one bisect
        on the weight column, so the scan never leaves the qualifying
        prefix.  With ``limit``, truncates under the legacy condition
        (strictly more than ``limit`` qualifying matches).  Decided once
        the frontier passes the qualifying prefix or ``limit`` is
        exceeded.
        """
        self._apply_pending()
        stop = self.columns.count_at_least(tau)
        bounded_stop = stop if budget is None else min(stop, self.upto + budget)
        positions = self.positions
        if limit is None:
            self.ensure_prefix(bounded_stop)
        else:
            while (
                self.upto < bounded_stop
                and bisect_left(positions, stop) <= limit
            ):
                self._advance_to(min(self.upto + _CHUNK, bounded_stop))
        m = bisect_left(positions, stop)
        truncated = limit is not None and m > limit
        if self.upto < stop and not truncated:
            return None
        return PrioritizedResult(self._materialize(m), truncated=truncated)

    def all_matches(self) -> DescendingElements:
        """Every match, heaviest first (the exact-fallback scan)."""
        n = len(self.columns)
        self.ensure_prefix(n)
        return self._materialize(len(self.positions))


# ----------------------------------------------------------------------
# Scan caches (per-index, bounded)
# ----------------------------------------------------------------------
class ScanCache:
    """A bounded per-index table of live :class:`MatchScan` objects.

    Keyed by ``predicate_key``; cleared wholesale on any index update
    (a scan must never survive a state change) and whenever it grows
    past ``max_entries`` — scans are pure accelerations, so dropping
    them is always safe.

    Two acquisition modes:

    * :meth:`get` — always returns a scan, creating one if needed.  For
      sites where flat scanning is the right plan regardless (direct
      top-k answers, exact fallbacks that traverse everything anyway).
    * :meth:`visit` — returns a scan only from the *second* visit for a
      predicate.  A sublinear ground structure beats a cold flat scan
      on selective predicates, so first visits stay on the structure;
      the visit is recorded in O(1), and any complete legacy result the
      caller reports via :meth:`record_seed` is carried into the scan
      at promotion — repeats then answer from the columns (dense
      predicates prove truncation by early exit; sparse ones
      materialize their seeded match set).
    """

    __slots__ = ("max_entries", "hits", "_scans", "_pending", "_last")

    def __init__(self, max_entries: int = 1024) -> None:
        self.max_entries = max_entries
        #: :meth:`get` calls answered by a scan that was already live.
        self.hits = 0
        self._scans: Dict[Hashable, MatchScan] = {}
        #: First-visit records: key -> [columns, version, seed-or-None].
        self._pending: Dict[Hashable, list] = {}
        #: The record touched by the most recent first-visit, so
        #: :meth:`record_seed` needs no second key computation.
        self._last: Optional[list] = None

    def __len__(self) -> int:
        return len(self._scans)

    def get(self, columns: ColumnSet, predicate: Predicate) -> MatchScan:
        """The cached scan for ``predicate``, or a fresh one (cached)."""
        key = predicate_key(predicate)
        scan = self._scans.get(key)
        if scan is None or scan.columns is not columns or not scan.fresh():
            scan = MatchScan(columns, predicate)
            self._pending.pop(key, None)
            if len(self._scans) >= self.max_entries:
                self._scans.clear()
            self._scans[key] = scan
        else:
            self.hits += 1
        return scan

    def visit(self, columns: ColumnSet, predicate: Predicate) -> Optional[MatchScan]:
        """A scan on repeat visits; ``None`` (recorded) on the first."""
        key = predicate_key(predicate)
        scan = self._scans.get(key)
        if scan is not None and scan.columns is columns and scan.fresh():
            self._last = None
            return scan
        record = self._pending.get(key)
        if (
            record is None
            or record[0] is not columns
            or record[1] != columns.version
        ):
            if len(self._pending) >= self.max_entries:
                self._pending.clear()
            self._last = self._pending[key] = [columns, columns.version, None]
            return None
        # Second visit: promote to a live scan, carrying any seed.
        self._last = None
        scan = MatchScan(columns, predicate)
        if record[2] is not None:
            scan.seed_prefix(*record[2])
        del self._pending[key]
        if len(self._scans) >= self.max_entries:
            self._scans.clear()
        self._scans[key] = scan
        return scan

    def record_seed(self, elements: Sequence[Element], upto: int) -> None:
        """Attach a complete-prefix result to the last first-visit record.

        Applies to the record created (or kept) by the most recent
        :meth:`visit` on this cache that returned ``None`` — callers
        report a legacy result right after the visit that routed them
        to the legacy path.  ``elements`` must be exactly the matches
        among the first ``upto`` positions (the
        :meth:`MatchScan.seed_prefix` contract); only a reference is
        stored, resolved at promotion.
        """
        record = self._last
        if record is None:
            return
        seed = record[2]
        if seed is None or upto > seed[1]:
            record[2] = (elements, upto)

    def clear(self) -> None:
        self._scans.clear()
        self._pending.clear()
        self._last = None


__all__ = [
    "ColumnSet",
    "DescendingElements",
    "MatchScan",
    "ScanCache",
    "auto_columnar",
    "columnar_disabled",
    "columnar_enabled",
    "compiled_matcher",
    "predicate_key",
    "register_predicate_compiler",
    "set_columnar_enabled",
]
