from concurrent.futures import ThreadPoolExecutor

import pytest

from servedbench.tracing import (
    CPU0,
    CPU1,
    NAME,
    PARENT,
    Tracer,
    breakdown,
    root_of,
    self_times,
)


def _span(name, parent, thread, cpu0, cpu1, wall0=None, wall1=None):
    wall0 = cpu0 if wall0 is None else wall0
    wall1 = cpu1 if wall1 is None else wall1
    return [name, parent, thread, wall0, wall1, cpu0, cpu1, 0]


def test_self_time_subtracts_same_thread_children_only():
    spans = [
        _span("serving.serve", None, 1, 0.0, 1.0, 0.0, 10.0),
        # Two pool workers, overlapping in wall time, under the serve.
        _span("sharding.query", 0, 2, 0.0, 4.0, 0.5, 9.0),
        _span("core.query", 1, 2, 1.0, 3.5),
        _span("sharding.query", 0, 3, 0.0, 5.0, 0.5, 9.5),
        _span("core.query", 3, 3, 0.0, 4.0),
        _span("structures.max", 4, 3, 1.0, 1.5),
    ]
    assert self_times(spans) == pytest.approx([1.0, 1.5, 2.5, 1.0, 3.5, 0.5])
    assert root_of(spans) == [0, 0, 0, 0, 0, 0]
    summary = breakdown(spans)
    assert summary["busy_s"] == pytest.approx(10.0)
    assert summary["self_total_s"] == pytest.approx(10.0)
    assert summary["self_s"]["read"]["sharding.query"] == pytest.approx(2.5)
    assert summary["calls"]["read"]["core.query"] == 2


def test_write_roots_are_split_from_reads():
    spans = [
        _span("sharding.insert", None, 1, 0.0, 2.0),
        _span("replication.insert", 0, 1, 0.5, 1.5),
        _span("serving.serve", None, 1, 2.0, 3.0),
    ]
    summary = breakdown(spans)
    assert summary["self_s"]["write"] == pytest.approx(
        {"sharding.insert": 1.0, "replication.insert": 1.0})
    assert summary["self_s"]["read"] == pytest.approx({"serving.serve": 1.0})


def test_pool_thread_spans_take_the_open_serve_as_parent():
    tracer = Tracer()
    tracer.active = True
    pool = ThreadPoolExecutor(max_workers=2)
    try:
        inner = tracer.wrap("core.query", lambda x: x * 2)
        worker = tracer.wrap("sharding.query", lambda x: inner(x) + 1)

        def serve(values):
            return [f.result() for f in [pool.submit(worker, v) for v in values]]

        assert tracer.wrap("serving.serve", serve)([1, 2, 3]) == [3, 5, 7]
        tracer.wrap("sharding.insert", lambda: None)()
    finally:
        pool.shutdown(wait=True)
    spans = tracer.spans
    names = [span[NAME] for span in spans]
    assert names.count("sharding.query") == 3 and names.count("core.query") == 3
    for sid, span in enumerate(spans):
        if span[NAME] == "sharding.query":
            assert span[PARENT] == 0
        elif span[NAME] == "core.query":
            assert spans[span[PARENT]][NAME] == "sharding.query"
        else:
            assert span[PARENT] is None
        assert span[CPU1] >= span[CPU0]


def test_inactive_tracer_records_nothing():
    tracer = Tracer()
    assert tracer.wrap("serving.serve", lambda: 5)() == 5
    assert tracer.spans == []
