"""Theorem 1: a worst-case top-k structure from a prioritized structure.

Given any prioritized structure for a polynomially-bounded problem with
``Q_pri(n) >= log_B n`` and geometrically converging space, the paper
builds a top-k structure with ``S_top = O(S_pri)`` and

    Q_top(n) = O( Q_pri(n) * log n / (log B + log(Q_pri/log_B n)) )
             = O( Q_pri(n) * log_B n ).

The construction (Section 3.2) has two regimes:

* **small k** (``k <= f`` with ``f = Theta(B * Q_pri(n))``): a nested
  chain of core-sets ``D = R_0 ⊃ R_1 ⊃ ...`` all at level ``K = f``,
  each carrying its own prioritized structure.  A top-f query recurses:
  if the cost-monitored probe on ``R_j`` truncates (``|q(R_j)| > 4f``),
  the recursion obtains from ``R_{j+1}`` an element whose weight rank in
  ``q(R_j)`` is between ``f`` and ``4f`` and uses it as the threshold of
  an exact prioritized query on ``R_j``.
* **large k**: a doubling ladder of core-sets ``R[i]`` at levels
  ``K = 2^{i-1} f``, each carrying a *top-f structure* of the first
  kind.  The top-f answer on ``R[i]`` supplies the threshold for one
  prioritized query on ``D`` that fetches ``Theta(K) = Theta(k)``
  candidates, finished by k-selection.

Sampling can fail (the paper's constants make this improbable; our
practical constants make it merely rare).  Every failure is *detected*
— the thresholded fetch returns fewer elements than needed — and the
query falls back to an exact prioritized query, so answers are always
exact; the event is counted in :attr:`WorstCaseTopKIndex.stats`.
"""

from __future__ import annotations

import math
import random
from dataclasses import asdict, dataclass, field
from typing import List, Optional, Sequence

from repro.core.columnar import (
    ColumnSet,
    MatchScan,
    ScanCache,
    auto_columnar,
    columnar_enabled,
)
from repro.core.coreset import (
    CoresetHierarchy,
    CoresetStats,
    build_hierarchy,
    doubling_coresets,
)
from repro.core.interfaces import PrioritizedFactory, PrioritizedIndex, TopKIndex
from repro.core.params import TuningParams
from repro.core.problem import Element, Predicate, require_distinct_weights
from repro.em.selection import select_top_k
from repro.resilience.errors import SerializationError


@dataclass
class ReductionStats:
    """Per-index counters exposed to the benchmarks.

    ``memo_hits`` counts Theorem 2 queries whose ground-column scan was
    already live in the index's :class:`~repro.core.columnar.ScanCache`
    (the predicate was queried since the last update), so the query
    resumed it instead of starting a fresh one.  Theorem 1 books none,
    though its ground and per-level scans resume the same way.
    """

    queries: int = 0
    monitored_probes: int = 0
    threshold_fetches: int = 0
    fallbacks: int = 0
    full_scans: int = 0
    memo_hits: int = 0
    #: Theorem 2: queries answered by its bounded direct column scan.
    column_scans: int = 0
    #: Theorem 2: ground-column positions its scans examined, any path.
    column_positions: int = 0

    def reset(self) -> None:
        self.queries = 0
        self.monitored_probes = 0
        self.threshold_fetches = 0
        self.fallbacks = 0
        self.full_scans = 0
        self.memo_hits = 0
        self.column_scans = 0
        self.column_positions = 0


class _TopFStructure:
    """The small-k structure: a core-set chain with per-level indexes.

    ``levels[0]`` is the ground set this structure answers top-f queries
    about; deeper levels are nested core-sets at the fixed level
    ``K = f``.  ``indexes[j]`` is the prioritized structure on
    ``levels[j]`` (the deepest level is answered by scanning instead).
    """

    def __init__(
        self,
        elements: Sequence[Element],
        f: int,
        factory: PrioritizedFactory,
        params: TuningParams,
        rng: random.Random,
        stats: ReductionStats,
        ground_index: Optional[PrioritizedIndex] = None,
        hierarchy: Optional[CoresetHierarchy] = None,
        columnar: Optional[bool] = None,
        ground_columns: Optional[ColumnSet] = None,
    ) -> None:
        self.f = f
        self.params = params
        self.stats = stats
        # A prebuilt hierarchy (snapshot restore) skips the sampling —
        # the recorded levels *are* the coin flips being replayed.
        if hierarchy is None:
            hierarchy = build_hierarchy(elements, float(f), params, rng)
        self.hierarchy: CoresetHierarchy = hierarchy
        self.levels = self.hierarchy.levels
        self.indexes: List[Optional[PrioritizedIndex]] = []
        last = len(self.levels) - 1
        for j, level in enumerate(self.levels):
            if j == last and len(level) <= params.slack * f:
                # Bottom level: answered by a scan, no index needed.
                self.indexes.append(None)
            elif j == 0 and ground_index is not None:
                self.indexes.append(ground_index)
            else:
                self.indexes.append(factory(level))
        # Columnar fast path: RAM-resident levels are mirrored (lazily)
        # into weight-descending ColumnSets, and probes/fetches become
        # resumable MatchScans.  EM-backed structures stay on the black
        # box — bypassing them would skip the I/O accounting.
        if columnar is None:
            probe = next((ix for ix in self.indexes if ix is not None), None)
            self._columnar = columnar_enabled() and (
                probe is None or auto_columnar(probe)
            )
        else:
            self._columnar = bool(columnar)
        self._ground_columns = ground_columns
        self._scan_caches: List[Optional[ScanCache]] = [None] * len(self.levels)
        if self._columnar:
            # Materialize the level mirrors now: the first query touches
            # them all anyway, and build time is the honest place for a
            # columnar index to pay its layout cost.
            for j in range(len(self.levels)):
                self._level_columns(j)

    def _level_columns(self, j: int) -> ColumnSet:
        """Level ``j``'s flat columns (level 0 may share the ground's)."""
        if j == 0 and self._ground_columns is not None:
            return self._ground_columns
        return self.hierarchy.column(j)

    def _level_cache(self, j: int) -> ScanCache:
        cache = self._scan_caches[j]
        if cache is None:
            cache = self._scan_caches[j] = ScanCache()
        return cache

    def _level_scan(self, j: int, predicate: Predicate) -> MatchScan:
        """The resumable match scan for level ``j`` (lazy columns).

        Scans persist across queries — the structure is static, so a
        scan can only ever be extended, never invalidated; repeats of a
        predicate (batches, guard retries, probe-then-fetch within one
        descent) resume the same traversal.  Level 0 of the small-k
        structure shares the owning index's ground columns.
        """
        return self._level_cache(j).get(self._level_columns(j), predicate)

    # ------------------------------------------------------------------
    def top_f(self, predicate: Predicate) -> List[Element]:
        """The up-to-``f`` heaviest elements of ``q(levels[0])``, heaviest first."""
        return self._query_level(0, predicate)

    def _query_level(self, j: int, predicate: Predicate) -> List[Element]:
        # The columnar branches answer each probe/fetch from the level's
        # flat weight-descending columns instead of the per-level black
        # box.  Branch conditions, counters, and answers are identical:
        # a columnar probe truncates iff strictly more than ``cap``
        # elements match (the legacy condition), and under distinct
        # weights both paths produce the same unique top-f set.
        level = self.levels[j]
        index = self.indexes[j]
        columnar = self._columnar
        cap = math.ceil(self.params.slack * self.f)
        if index is None:
            # Bottom of the recursion: |R_h| <= 4f, scan it.
            if columnar:
                return list(self._level_scan(j, predicate).first(self.f))
            matching = [e for e in level if predicate.matches(e.obj)]
            return select_top_k(matching, self.f)
        # Visit-promoted columnar: the per-level structures answer
        # selective probes in sublinear time, so a *cold* flat scan
        # would lose to them.  First visit of a (level, predicate)
        # stays on the structure — the visit costs two dict ops, and
        # any complete legacy result (a non-truncated probe is the
        # full match set, a fetch the full ``weight >= tau`` prefix)
        # is recorded as a seed.  The second visit promotes to a live
        # scan: dense predicates prove truncation by early exit, sparse
        # ones materialize their seeded match set, and further repeats
        # (other ``k`` values, guard retries, ladder re-descents) answer
        # from the columns without re-traversing.
        if columnar:
            cache = self._level_cache(j)
            columns = self._level_columns(j)
            scan = cache.visit(columns, predicate)
        else:
            cache = columns = scan = None
        self.stats.monitored_probes += 1
        if scan is not None:
            probe = scan.probe(cap)
        else:
            probe = index.query(predicate, -math.inf, limit=cap)
            if cache is not None and not probe.truncated:
                cache.record_seed(probe.elements, len(columns))
        if not probe.truncated:
            # |q(R_j)| <= 4f: the probe fetched everything; k-select.
            return select_top_k(probe.elements, self.f)
        if j + 1 >= len(self.levels):
            # The chain stopped early (saturated sampling rate): exact query.
            self.stats.fallbacks += 1
            if columnar:
                # Full traversal either way — promote and keep the scan.
                scan = scan or self._level_scan(j, predicate)
                return list(scan.all_matches()[: self.f])
            exact = index.query(predicate, -math.inf)
            return select_top_k(exact.elements, self.f)
        # |q(R_j)| > 4f: consult the next core-set for a threshold.
        deeper = self._query_level(j + 1, predicate)
        rank = self._probe_rank(j)
        if rank <= len(deeper):
            threshold = deeper[rank - 1].weight
            self.stats.threshold_fetches += 1
            if scan is not None:
                fetched = scan.fetch(threshold)
            else:
                fetched = index.query(predicate, threshold)
                if cache is not None:
                    cache.record_seed(
                        fetched.elements, columns.count_at_least(threshold)
                    )
            if len(fetched.elements) >= self.f:
                return select_top_k(fetched.elements, self.f)
        # The sampled rank fell outside its window — exact fallback.
        self.stats.fallbacks += 1
        if columnar:
            scan = scan or self._level_scan(j, predicate)
            return list(scan.all_matches()[: self.f])
        exact = index.query(predicate, -math.inf)
        return select_top_k(exact.elements, self.f)

    def _probe_rank(self, j: int) -> int:
        """The rank probed in ``q(R_{j+1})`` — Lemma 1's ``ceil(2 K p)``.

        ``p`` is the rate actually used to sample ``R_{j+1}`` from
        ``R_j`` (recorded at build time), so the rank matches the
        sampling regardless of tuned constants.
        """
        rates = self.hierarchy.stats.rates
        p = rates[j + 1] if j + 1 < len(rates) else 1.0
        return max(1, math.ceil(2.0 * self.f * p))

    def space_units(self) -> int:
        """Total space of the per-level prioritized structures."""
        return sum(index.space_units() for index in self.indexes if index is not None)


class WorstCaseTopKIndex(TopKIndex):
    """The Theorem 1 top-k structure.

    Parameters
    ----------
    elements:
        The input set ``D`` (distinct weights).
    factory:
        Builds a prioritized structure over any subset — the black box
        being reduced.
    params:
        Tuning constants; ``TuningParams.paper_faithful()`` reproduces
        the proof's constants exactly.
    B:
        The block size used to set ``f = Theta(B * Q_pri(n))``.  In the
        RAM model pass a small constant (the default 2), as the paper
        prescribes ("by setting M and B to appropriate constants").
    rng / seed:
        Randomness for core-set sampling (construction only — queries
        are deterministic, as Theorem 1's bounds are worst-case).
    """

    def __init__(
        self,
        elements: Sequence[Element],
        factory: PrioritizedFactory,
        params: Optional[TuningParams] = None,
        B: int = 2,
        rng: Optional[random.Random] = None,
        seed: int = 0,
        columnar: Optional[bool] = None,
    ) -> None:
        self.params = params if params is not None else TuningParams()
        self._elements = list(elements)
        require_distinct_weights(self._elements, "WorstCaseTopKIndex")
        self._factory = factory
        self.B = B
        self.stats = ReductionStats()
        self.applied_lsn = 0
        rng = rng if rng is not None else random.Random(seed)

        self._ground = factory(self._elements)
        self._init_columnar(columnar)
        q_pri = self._ground.query_cost_bound()
        self.f = min(
            self.params.small_k_cutoff(B, q_pri),
            max(1, len(self._elements)),
        )
        # Small-k machinery: a top-f structure whose ground level is D
        # itself (reusing the main prioritized index, and — columnar —
        # the ground columns, so D is sorted once, not twice).
        self._small = _TopFStructure(
            self._elements, self.f, factory, self.params, rng, self.stats,
            ground_index=self._ground,
            columnar=self._columnar, ground_columns=self._columns,
        )
        # Large-k machinery: the doubling ladder R[1..h], each level
        # carrying its own top-f structure.
        self._ladder: List[_TopFStructure] = []
        self._ladder_rates: List[float] = []
        n = len(self._elements)
        for i, coreset in enumerate(doubling_coresets(self._elements, self.f, self.params, rng)):
            K = float((2**i) * self.f)  # 0-based i: ladder level K = 2^{i-1} f, 1-based
            self._ladder.append(
                _TopFStructure(
                    coreset, self.f, factory, self.params, rng, self.stats,
                    columnar=self._columnar,
                )
            )
            self._ladder_rates.append(self.params.coreset_rate(n, K))

    def _init_columnar(self, columnar: Optional[bool]) -> None:
        """Decide the columnar mode and mirror ``D`` into columns."""
        if columnar is None:
            self._columnar = auto_columnar(self._ground)
        else:
            self._columnar = bool(columnar) and columnar_enabled()
        self._columns = ColumnSet(self._elements) if self._columnar else None
        self._scan_cache = ScanCache() if self._columnar else None

    def _ground_scan(self, predicate: Predicate) -> MatchScan:
        """The resumable ground-set scan for ``predicate``."""
        return self._scan_cache.get(self._columns, predicate)

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self._elements)

    def note_applied(self, lsn: int) -> None:
        """Record the highest WAL LSN folded into this in-memory state.

        Maintained by the durability/replication layers; the structure
        itself never assigns LSNs.  Lets replica schedulers compare
        index freshness without reaching into the WAL.
        """
        if lsn > self.applied_lsn:
            self.applied_lsn = lsn

    def query(self, predicate: Predicate, k: int) -> List[Element]:
        """Exact top-k answer, heaviest first."""
        self.stats.queries += 1
        if k <= 0:
            return []
        n = self.n
        if n == 0:
            return []
        if k <= self.f:
            top = self._small.top_f(predicate)
            return top[:k]
        if k >= n / 2:
            # O(n/B) = O(k/B): scan everything — columnar when the
            # ground set is RAM-resident, else through the ground
            # structure so the I/O cost is counted.
            self.stats.full_scans += 1
            if self._columnar:
                return list(self._ground_scan(predicate).first(k))
            result = self._ground.query(predicate, -math.inf)
            return select_top_k(result.elements, k)
        return self._large_k(predicate, k)

    def _large_k(self, predicate: Predicate, k: int) -> List[Element]:
        """Queries with ``f < k < n/2`` via the doubling ladder."""
        # Smallest i (1-based) with 2^{i-1} f >= k; K in [k, 2k).
        i = max(1, math.ceil(math.log2(k / self.f)) + 1)
        while (2 ** (i - 1)) * self.f < k:  # guard against float rounding
            i += 1
        if i > len(self._ladder):
            self.stats.full_scans += 1
            if self._columnar:
                return list(self._ground_scan(predicate).first(k))
            result = self._ground.query(predicate, -math.inf)
            return select_top_k(result.elements, k)
        K = (2 ** (i - 1)) * self.f
        cap = math.ceil(self.params.slack * K)
        # Visit-promoted, as in ``_TopFStructure._query_level``: first
        # visits stay on the sublinear ground structure (complete
        # results recorded as scan seeds), repeats answer columnar.
        scan = (
            self._scan_cache.visit(self._columns, predicate)
            if self._columnar
            else None
        )
        self.stats.monitored_probes += 1
        if scan is not None:
            probe = scan.probe(cap)
        else:
            probe = self._ground.query(predicate, -math.inf, limit=cap)
            if self._columnar and not probe.truncated:
                self._scan_cache.record_seed(probe.elements, len(self._columns))
        if not probe.truncated:
            return select_top_k(probe.elements, k)
        # |q(D)| > 4K: obtain a threshold from the ladder's top-f answer.
        top_f = self._ladder[i - 1].top_f(predicate)
        rank = max(1, math.ceil(2.0 * K * self._ladder_rates[i - 1]))
        if rank <= len(top_f):
            threshold = top_f[rank - 1].weight
            self.stats.threshold_fetches += 1
            if scan is not None:
                fetched = scan.fetch(threshold)
            else:
                fetched = self._ground.query(predicate, threshold)
                if self._columnar:
                    self._scan_cache.record_seed(
                        fetched.elements, self._columns.count_at_least(threshold)
                    )
            if len(fetched.elements) >= k:
                return select_top_k(fetched.elements, k)
        self.stats.fallbacks += 1
        if self._columnar:
            scan = scan or self._ground_scan(predicate)
            return list(scan.all_matches()[:k])
        exact = self._ground.query(predicate, -math.inf)
        return select_top_k(exact.elements, k)

    # ------------------------------------------------------------------
    def space_units(self) -> int:
        """Space of every prioritized structure in the reduction.

        Theorem 1 claims ``S_top = O(S_pri)``; bench E4 audits this
        number against the ground structure's own footprint.
        """
        total = self._small.space_units()
        for ladder_struct in self._ladder:
            total += ladder_struct.space_units()
        return total

    def ground_space_units(self) -> int:
        """Footprint of the single prioritized structure on ``D``."""
        return self._ground.space_units()

    # ------------------------------------------------------------------
    # Durability (snapshot/restore)
    # ------------------------------------------------------------------
    SNAPSHOT_FORMAT = "worstcase-topk"
    SNAPSHOT_VERSION = 1

    def snapshot_state(self) -> dict:
        """Everything needed to rebuild this index *bit-for-bit*.

        The core-set hierarchies are the structure's only randomness;
        recording every level's membership (as indices into the element
        list) and the sampling rates actually used replays those coin
        flips exactly — restored queries take the same recursion paths,
        probe the same ranks, and return identical answers.
        """
        elements = self._elements
        index_of = {element: i for i, element in enumerate(elements)}

        def hierarchy_state(hierarchy: CoresetHierarchy) -> dict:
            return {
                "levels": [
                    [index_of[element] for element in level]
                    for level in hierarchy.levels
                ],
                "rates": list(hierarchy.stats.rates),
                "K": hierarchy.K,
            }

        return {
            "format": self.SNAPSHOT_FORMAT,
            "version": self.SNAPSHOT_VERSION,
            "elements": list(elements),
            "B": self.B,
            "f": self.f,
            "params": asdict(self.params),
            "small": hierarchy_state(self._small.hierarchy),
            "ladder": [hierarchy_state(s.hierarchy) for s in self._ladder],
            "ladder_rates": list(self._ladder_rates),
        }

    @classmethod
    def restore(
        cls, state: dict, factory: PrioritizedFactory
    ) -> "WorstCaseTopKIndex":
        """Rebuild from :meth:`snapshot_state` output.

        Per-level prioritized structures are deterministic functions of
        their element lists, so rebuilding them through the factory on
        the recorded levels reproduces the original exactly.
        """
        if state.get("format") != cls.SNAPSHOT_FORMAT:
            raise SerializationError(
                f"snapshot format {state.get('format')!r} is not "
                f"{cls.SNAPSHOT_FORMAT!r}"
            )
        if state.get("version") != cls.SNAPSHOT_VERSION:
            raise SerializationError(
                f"snapshot version {state.get('version')!r} unsupported "
                f"(this build reads {cls.SNAPSHOT_VERSION})"
            )
        self = cls.__new__(cls)
        self.params = TuningParams(**state["params"])
        elements: List[Element] = list(state["elements"])
        require_distinct_weights(elements, "WorstCaseTopKIndex.restore")
        self._elements = elements
        self._factory = factory
        self.B = state["B"]
        self.stats = ReductionStats()
        self.applied_lsn = 0
        self._ground = factory(elements)
        self._init_columnar(None)
        self.f = state["f"]

        def hierarchy_from(hstate: dict) -> CoresetHierarchy:
            levels = [
                [elements[j] for j in level] for level in hstate["levels"]
            ]
            stats = CoresetStats(
                sizes=[len(level) for level in levels],
                rates=list(hstate["rates"]),
            )
            return CoresetHierarchy(levels=levels, K=hstate["K"], stats=stats)

        rng = random.Random(0)  # never drawn from: hierarchies are prebuilt
        self._small = _TopFStructure(
            elements, self.f, factory, self.params, rng, self.stats,
            ground_index=self._ground,
            hierarchy=hierarchy_from(state["small"]),
            columnar=self._columnar, ground_columns=self._columns,
        )
        self._ladder = []
        for hstate in state["ladder"]:
            hierarchy = hierarchy_from(hstate)
            self._ladder.append(
                _TopFStructure(
                    hierarchy.levels[0], self.f, factory, self.params, rng,
                    self.stats, hierarchy=hierarchy,
                    columnar=self._columnar,
                )
            )
        self._ladder_rates = list(state["ladder_rates"])
        return self
