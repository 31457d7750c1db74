"""In-memory span tracer wrapped around the served stack's public methods.

Spans are recorded only from the benchmark's own files: :func:`instrument`
replaces public methods on the *instances* the benchmark built with
timing wrappers, and :func:`traced_treap` returns a
``DynamicRangeTreap`` subclass for the structure factories.  Nothing in
``src/`` changes, and an untraced run builds the plain classes.

Each span stores its name, parent, thread, wall start/end
(``perf_counter``), thread CPU start/end (``thread_time``) and an
optional count (elements reported, for prioritized structure calls).  Self
time is measured on the CPU clock: a span's CPU duration minus that of
its children on the same thread.  The dispatch pool's workers run under
the interpreter lock, so their wall intervals overlap while only one
executes; CPU time charges each instant to the one thread that ran, and
self times therefore add up to the busy wall time rather than a
multiple of it.
"""

from __future__ import annotations

import threading
from time import perf_counter, thread_time
from typing import Dict, List, Optional

from repro.structures import DynamicRangeTreap

# Span record fields (a list per span keeps recording cheap).
NAME, PARENT, THREAD, WALL0, WALL1, CPU0, CPU1, COUNT = range(8)

#: The root span of a read; every other root is a write.
READ_ROOT = "serving.serve"


class Tracer:
    """Span recorder.  ``active`` gates recording (off during set-up)."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.active = False
        self._local = threading.local()
        self._main_thread = threading.get_ident()
        self._append_lock = threading.Lock()
        self._open_root: Optional[int] = None

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            return self.call(name, fn, args, kwargs)

        return traced

    def call(self, name: str, fn, args, kwargs, count=None):
        """Run ``fn`` as a span; ``count(result)`` is stored with it."""
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        thread = threading.get_ident()
        if stack:
            parent = stack[-1]
        elif thread != self._main_thread:
            # A dispatch-pool worker: its spans belong to the open serve.
            parent = self._open_root
        else:
            parent = None
        record = [name, parent, thread, perf_counter(), 0.0, thread_time(), 0.0, 0]
        with self._append_lock:
            self.spans.append(record)
            sid = len(self.spans) - 1
        if parent is None:
            self._open_root = sid
        stack.append(sid)
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                record[COUNT] = count(result)
            return result
        finally:
            record[CPU1] = thread_time()
            record[WALL1] = perf_counter()
            stack.pop()
            if parent is None:
                self._open_root = None


def traced_treap(tracer: Tracer):
    """A ``DynamicRangeTreap`` subclass whose calls are spans.

    ``query`` serves both black-box roles: with ``tau`` it is the
    prioritized query, without it the max query.
    """

    class TracedTreap(DynamicRangeTreap):
        def query(self, predicate, tau=None, limit=None):
            parent = super().query
            if not tracer.active:
                return parent(predicate, tau, limit)
            name = "structures.max" if tau is None else "structures.prioritized"
            return tracer.call(
                name, parent, (predicate, tau, limit), {},
                count=None if tau is None else _reported,
            )

        def insert(self, element):
            if not tracer.active:
                return super().insert(element)
            return tracer.call("structures.insert", super().insert, (element,), {})

        def delete(self, element):
            if not tracer.active:
                return super().delete(element)
            return tracer.call("structures.delete", super().delete, (element,), {})

    return TracedTreap


def _reported(result) -> int:
    return len(result.elements)


def _wrap_methods(tracer: Tracer, obj, layer: str, names) -> None:
    for name in names:
        setattr(obj, name, tracer.wrap(f"{layer}.{name}", getattr(obj, name)))


def instrument(tracer: Tracer, engine, index) -> None:
    """Wrap the public methods of every layer instance on the read/write path."""
    _wrap_methods(tracer, engine, "serving", ("serve",))
    _wrap_methods(tracer, index, "sharding", ("query", "batch_groups", "insert", "delete"))
    for shard in index.router.shards.values():
        replica_set = shard.backend
        _wrap_methods(tracer, replica_set, "replication", ("query", "insert", "delete"))
        for replica in replica_set.replicas:
            _wrap_methods(
                tracer, replica.durable, "durability",
                ("query", "insert", "delete", "apply_shipped", "replay_unapplied"),
            )
            _wrap_methods(tracer, replica.durable.inner, "core", ("query", "insert", "delete"))


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans: List[list]) -> List[float]:
    """Per-span self time in seconds: CPU duration minus same-thread children."""
    own = [span[CPU1] - span[CPU0] for span in spans]
    for span in spans:
        parent = span[PARENT]
        if parent is not None and spans[parent][THREAD] == span[THREAD]:
            own[parent] -= span[CPU1] - span[CPU0]
    return own


def root_of(spans: List[list]) -> List[int]:
    """Index of each span's root span (parents always precede children)."""
    roots: List[int] = []
    for sid, span in enumerate(spans):
        parent = span[PARENT]
        roots.append(sid if parent is None else roots[parent])
    return roots


def breakdown(spans: List[list], factor=None) -> Dict[str, object]:
    """Self time by (root kind, span name), plus coverage of busy time.

    ``busy_s`` is the wall time of the root spans (the calls into the
    stack); ``self_total_s`` sums every span's self time.  Their
    difference is time no traced thread spent on the CPU inside a call:
    thread hand-off to and from the dispatch pool, and the interpreter
    lock passing between threads.  ``factor(wall start)``, if given,
    scales each span's times to reference speed (:mod:`servedbench.speed`).
    """
    own = self_times(spans)
    roots = root_of(spans)
    by_name: Dict[str, Dict[str, float]] = {"read": {}, "write": {}}
    inclusive: Dict[str, Dict[str, float]] = {"read": {}, "write": {}}
    calls: Dict[str, Dict[str, int]] = {"read": {}, "write": {}}
    counts: Dict[str, Dict[str, int]] = {"read": {}, "write": {}}
    busy = self_total = 0.0
    for sid, span in enumerate(spans):
        scale = 1.0 if factor is None else factor(span[WALL0])
        kind = "read" if spans[roots[sid]][NAME] == READ_ROOT else "write"
        name = span[NAME]
        own_s = own[sid] * scale
        self_total += own_s
        by_name[kind][name] = by_name[kind].get(name, 0.0) + own_s
        inclusive[kind][name] = (
            inclusive[kind].get(name, 0.0) + (span[CPU1] - span[CPU0]) * scale
        )
        calls[kind][name] = calls[kind].get(name, 0) + 1
        counts[kind][name] = counts[kind].get(name, 0) + span[COUNT]
        if span[PARENT] is None:
            busy += (span[WALL1] - span[WALL0]) * scale
    return {
        "self_s": by_name,
        "inclusive_s": inclusive,
        "calls": calls,
        "counts": counts,
        "busy_s": busy,
        "self_total_s": self_total,
        "coverage": self_total / busy if busy else 0.0,
    }
