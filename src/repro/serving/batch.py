"""Batched top-k execution: group, sort, traverse once, slice prefixes.

A serving workload rarely issues one query at a time.  This module
turns a list of :class:`QueryRequest`\\ s into a *batch plan* that pays
each reduction traversal once:

* requests are **grouped by predicate shape** — two requests with the
  same predicate describe the same subset ``q(D)``, and top-k answers
  are prefix-closed (the top-``k`` answer is the first ``k`` entries of
  the top-``K`` answer for any ``K >= k``), so one traversal at the
  group's largest ``k`` serves every member by prefix slicing;
* groups are **sorted deterministically** (by predicate type, then
  repr) so repeated batches traverse core-set levels in the same order
  — answers are reproducible and adjacent groups of the same predicate
  family keep level/list accesses local;
* members inside a group are sorted by descending ``k`` so the group's
  cost is decided by its head and every other member is a slice.

:func:`execute_batch` is the engine-independent executor behind
:meth:`repro.core.interfaces.TopKIndex.query_topk_batch`, which both
reductions inherit unchanged.  Work shared *across* groups (a predicate
repeated since the last update) is the reductions' own scan cache's
job, not the batch's.
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass, field
from typing import Callable, Dict, Hashable, List, Optional, Sequence, Tuple

from repro.core.columnar import predicate_key
from repro.core.problem import Element, Predicate

#: ``object.__repr__`` embeds the instance's memory address; masking it
#: keeps sort keys equal across processes.
_ADDRESS_RE = re.compile(r"0x[0-9a-fA-F]+")

#: ``_sort_key`` walks dataclass fields and runs a regex per call —
#: measurably hot when every engine pass plans hundreds of groups, yet a
#: pure function of the predicate.  Cached per ``predicate_key``,
#: bounded so adversarial predicate churn cannot grow it without limit.
_SORT_KEY_CACHE: Dict[Hashable, Tuple[str, str]] = {}
_SORT_KEY_CACHE_MAX = 4096


@dataclass(frozen=True)
class QueryRequest:
    """One top-k request of a batch: ``(predicate, k)``."""

    predicate: Predicate
    k: int


# ``predicate_key`` now lives in repro.core.columnar (the compiled-
# predicate cache keys on it too, and core must not import serving);
# re-exported here because this module is its historical home.


def _sort_key(predicate: Predicate) -> Tuple[str, str]:
    """Deterministic cross-run ordering key for a predicate.

    Bare ``repr`` is not enough: a predicate class without its own
    ``__repr__`` inherits ``object``'s, which embeds the instance's
    memory address — the same batch would then plan its groups in a
    different order on every run (and on every process, under hash
    randomization).  Dataclass predicates (the repo convention) key on
    their field values; anything else falls back to ``repr``.  Either
    way, memory addresses are masked out — a dataclass field's *value*
    may itself be an object without its own ``__repr__``.
    """
    cache_key = predicate_key(predicate)
    cached = _SORT_KEY_CACHE.get(cache_key)
    if cached is not None:
        return cached
    if dataclasses.is_dataclass(predicate):
        detail = repr(
            [(f.name, _ADDRESS_RE.sub("0xADDR", repr(getattr(predicate, f.name))))
             for f in dataclasses.fields(predicate)]
        )
    else:
        detail = _ADDRESS_RE.sub("0xADDR", repr(predicate))
    key = (type(predicate).__qualname__, detail)
    if len(_SORT_KEY_CACHE) >= _SORT_KEY_CACHE_MAX:
        _SORT_KEY_CACHE.clear()
    _SORT_KEY_CACHE[cache_key] = key
    return key


@dataclass
class BatchGroup:
    """All requests of one batch that share a predicate."""

    key: Hashable
    predicate: Predicate
    max_k: int = 0
    #: ``(position in the original request list, requested k)``
    members: List[Tuple[int, int]] = field(default_factory=list)

    def add(self, position: int, k: int) -> None:
        self.members.append((position, k))
        if k > self.max_k:
            self.max_k = k


@dataclass
class BatchPlan:
    """The shared-traversal plan for one batch of requests."""

    size: int
    groups: List[BatchGroup]

    @property
    def traversals(self) -> int:
        """Distinct index traversals the plan pays for."""
        return len(self.groups)

    @property
    def shared(self) -> int:
        """Requests answered by another member's traversal."""
        return self.size - len(self.groups)


def plan_batch(requests: Sequence[QueryRequest]) -> BatchPlan:
    """Group requests by predicate and order them for shared traversal."""
    by_key: Dict[Hashable, BatchGroup] = {}
    for position, request in enumerate(requests):
        key = predicate_key(request.predicate)
        group = by_key.get(key)
        if group is None:
            group = by_key[key] = BatchGroup(key=key, predicate=request.predicate)
        group.add(position, request.k)
    groups = sorted(by_key.values(), key=lambda g: _sort_key(g.predicate))
    for group in groups:
        group.members.sort(key=lambda member: (-member[1], member[0]))
    return BatchPlan(size=len(requests), groups=groups)


def execute_batch(
    index,
    requests: Sequence[QueryRequest],
    query_fn: Optional[Callable[..., List[Element]]] = None,
    **query_kwargs,
) -> List[List[Element]]:
    """Answer every request, paying one traversal per distinct predicate.

    ``index`` is anything with ``query(predicate, k, **kwargs)``;
    ``query_fn`` overrides the callable (the serving engine points it
    at a specific replica).  Answers come back in request order and are
    exactly what serial one-at-a-time queries would have returned: the
    group head is answered at ``max_k`` and every member receives the
    prefix of its own ``k`` (top-k answers are prefix-closed under a
    total weight order).
    """
    run = query_fn if query_fn is not None else index.query
    answers: List[Optional[List[Element]]] = [None] * len(requests)
    for group in plan_batch(requests).groups:
        if group.max_k <= 0:
            for position, _ in group.members:
                answers[position] = []
            continue
        full = run(group.predicate, group.max_k, **query_kwargs)
        for position, k in group.members:
            # Always a fresh list: members (and any cache above) must
            # never alias one another's answers.
            answers[position] = full[:k]
    return answers  # type: ignore[return-value]


__all__ = [
    "QueryRequest",
    "BatchGroup",
    "BatchPlan",
    "predicate_key",
    "plan_batch",
    "execute_batch",
]
