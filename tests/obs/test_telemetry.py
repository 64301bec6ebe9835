"""Request scopes: one ambient request id over a span tree."""

from __future__ import annotations

import json
import os
import sys
import threading
from contextvars import copy_context

import pytest

from repro import topologies
from repro.core import SSSPEngine, sssp as sssp_mod
from repro.obs import (
    InMemorySink,
    JsonlSink,
    current_request_id,
    new_request_id,
    request_scope,
    span,
    use_sink,
)
from repro.parallel import kernel, reduction as reduction_mod
from repro.routing import base as base_mod
from repro.service.budget import compute_budget

from tests.parallel.test_differential import assert_same_routing


def test_new_request_id_format_and_uniqueness():
    a, b = new_request_id(), new_request_id()
    assert a.startswith("req-") and len(a) == len("req-") + 8
    assert a != b
    assert new_request_id("svc").startswith("svc-")


def test_request_scope_stamps_every_span():
    sink = InMemorySink()
    with use_sink(sink):
        with request_scope("req-abcd", kind="demo") as root:
            with span("inner") as inner:
                with span("leaf") as leaf:
                    pass
    assert root.attrs["request_id"] == "req-abcd"
    assert inner.attrs["request_id"] == "req-abcd"
    assert leaf.attrs["request_id"] == "req-abcd"
    assert root.attrs["kind"] == "demo"
    assert leaf.parent is inner and inner.parent is root


def test_request_scope_generates_id_when_none():
    with use_sink(InMemorySink()):
        with request_scope() as root:
            assert current_request_id() == root.attrs["request_id"]
            assert root.attrs["request_id"].startswith("req-")
    assert current_request_id() is None


def test_request_scope_nesting_shadows_and_restores():
    with use_sink(InMemorySink()):
        with request_scope("outer-id"):
            assert current_request_id() == "outer-id"
            with request_scope("inner-id"):
                assert current_request_id() == "inner-id"
                with span("x") as sp:
                    pass
            assert current_request_id() == "outer-id"
    assert sp.attrs["request_id"] == "inner-id"
    assert current_request_id() is None


def test_request_scope_id_cleared_on_exception():
    with use_sink(InMemorySink()):
        with pytest.raises(RuntimeError):
            with request_scope("req-doomed"):
                raise RuntimeError("boom")
    assert current_request_id() is None


def test_more_threads_than_cores_share_budget_sink_and_ids(tmp_path, monkeypatch):
    """Stress: more threads than cores, switching every microsecond, each
    routing in a copy of one request scope under one budget, over
    one-root hop blocks. Every routing equals the single-threaded one,
    the shared ``JsonlSink`` writes whole lines with distinct span ids,
    each stamped with the scope's request id, and the shared budget
    counts every poll (a lost update would break each)."""
    fabric = topologies.random_topology(10, 20, 2, seed=5)
    polls, lock = [0], threading.Lock()

    def counting(real):
        def check():
            with lock:
                polls[0] += 1
            real()
        return check

    monkeypatch.setattr(kernel, "check_budget", counting(kernel.check_budget))
    monkeypatch.setattr(sssp_mod, "check_budget", counting(sssp_mod.check_budget))
    monkeypatch.setattr(base_mod, "check_budget", counting(base_mod.check_budget))
    row_bytes = reduction_mod.ExactReduction(fabric)._row_bytes
    monkeypatch.setattr(reduction_mod, "HOP_BLOCK_BYTES", row_bytes)
    base = SSSPEngine().route(fabric)
    polls[0] = 0
    results = [None] * ((os.cpu_count() or 1) + 2)

    def route(i):
        results[i] = SSSPEngine().route(fabric)

    path = tmp_path / "trace.jsonl"
    sink = JsonlSink(str(path))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with use_sink(sink), request_scope("req-stress"), \
                compute_budget(60.0, label="stress") as budget:
            threads = [threading.Thread(target=copy_context().run, args=(route, i))
                       for i in range(len(results))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
        sink.close()
    assert not any(thread.is_alive() for thread in threads)
    for got in results:
        assert_same_routing(base, got)
    assert budget.checks == polls[0] > len(results) * fabric.num_terminals
    records = [json.loads(line) for line in path.read_text().splitlines()]
    starts = [rec["span"] for rec in records if rec["event"] == "start"]
    assert len(starts) == len(set(starts)) == len(records) // 2
    assert all(rec["attrs"]["request_id"] == "req-stress" for rec in records)
