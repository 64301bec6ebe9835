"""Differential test: the pooled span tree is worker-count invariant.

Each block of hop plans is built under one ``sssp.hop_block`` span; a
pooled route sweeps the block's roots (a plan's root: the attachment
switch its terminals share) in chunks, one ``parallel.hop_rows`` span
per chunk, run on a pool thread in a copy of the calling context — so
the chunk span is parented under the block's span and carries the
request id. Which roots were swept under which block must depend only
on the (deterministic) block schedule of the serial column loop, never
on how many threads computed it or how the OS scheduled them.
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from repro import topologies
from repro.core import SSSPEngine
from repro.obs import InMemorySink, JsonlSink, get_registry, request_scope, use_sink
from repro.parallel import executor, reduction as reduction_mod
from repro.parallel.kernel import hop_rows
from repro.parallel.reduction import ExactReduction, column_routine

BLOCK_ROWS = 4  # pinned: several blocks of several roots each


@pytest.fixture(scope="module")
def fabric():
    return topologies.random_topology(10, 20, 2, seed=5)


@pytest.fixture(autouse=True)
def _small_blocks(fabric, monkeypatch):
    get_registry().reset()
    row_bytes = ExactReduction(fabric)._row_bytes
    monkeypatch.setattr(reduction_mod, "HOP_BLOCK_BYTES", BLOCK_ROWS * row_bytes)
    yield
    get_registry().reset()


def _traced_run(fabric, workers):
    """Run once; return (request_id, sink) with every span captured."""
    sink = InMemorySink()
    with use_sink(sink):
        with request_scope(f"req-w{workers}", workers=workers):
            SSSPEngine(workers=workers).route(fabric)
    return f"req-w{workers}", sink


def _tree_signature(sink):
    """block (in start order) → sorted roots of its chunk spans.

    Thread identity, chunking and timing are deliberately excluded —
    they are the only things allowed to vary with the worker count.
    """
    started = [sp for kind, sp in sink.events if kind == "start"]
    block_of = {id(sp): i for i, sp in
                enumerate(sp for sp in started if sp.name == "sssp.hop_block")}
    signature = {}
    for sp in sink.find("parallel.hop_rows"):
        assert sp.parent is not None and sp.parent.name == "sssp.hop_block"
        signature.setdefault(block_of[id(sp.parent)], []).extend(sp.attrs["roots"])
    return {block: sorted(roots) for block, roots in signature.items()}


def _serial_blocks(fabric):
    """The roots of each block the serial column loop sweeps, in order."""
    blocks = []

    def recording_sweep(fab, roots):
        blocks.append(sorted(int(r) for r in roots))
        return hop_rows(fab, roots)

    step, _ = column_routine(fabric, "numpy", order=fabric.terminals, sweep=recording_sweep)
    weights = np.full(fabric.num_channels, fabric.num_terminals ** 2 + 1, dtype=np.int64)
    for dest in fabric.terminals.tolist():
        step(dest, weights)
    return dict(enumerate(blocks))


def test_worker_span_tree_identical_across_worker_counts(fabric):
    signatures = {}
    for workers in (1, 2, 3):
        rid, sink = _traced_run(fabric, workers)
        # every span of the run carries the request id, the threads' included
        spans = sink.spans
        assert spans, "no spans captured"
        assert all(s.attrs.get("request_id") == rid for s in spans)
        hop_spans = sink.find("parallel.hop_rows")
        # one row per plan opened: each switch hosts two terminals that share one
        assert sum(len(s.attrs["roots"]) for s in hop_spans) == fabric.num_switches
        assert all(s.status == "ok" for s in hop_spans)
        assert all(s.duration is not None and s.duration >= 0 for s in hop_spans)
        signatures[workers] = _tree_signature(sink)

    assert signatures[1] == signatures[2] == signatures[3]
    # and the signature is the serial loop's block schedule itself
    blocks = _serial_blocks(fabric)
    assert len(blocks) >= 2 and max(len(roots) for roots in blocks.values()) >= 2
    assert signatures[1] == blocks


def test_multiple_workers_actually_fan_out(fabric, monkeypatch):
    """The tree is worker-invariant but the work is not: with chunks that
    outlast their submission (an idle pool thread is otherwise reused),
    a block's chunks run on distinct threads."""
    real = executor.hop_rows

    def slow(fab, roots):
        time.sleep(0.005)
        return real(fab, roots)

    monkeypatch.setattr(executor, "hop_rows", slow)
    _, sink = _traced_run(fabric, 3)
    assert len({s.attrs["thread"] for s in sink.find("parallel.hop_rows")}) >= 2


def test_traced_spans_preserve_results(fabric):
    """Tracing must be observation only: traced and untraced runs agree."""
    plain = SSSPEngine(workers=2).route(fabric)
    with use_sink(InMemorySink()):
        with request_scope("req-x"):
            traced = SSSPEngine(workers=2).route(fabric)
    assert np.array_equal(plain.tables.next_channel, traced.tables.next_channel)
    assert np.array_equal(plain.channel_weights, traced.channel_weights)


def test_a_pooled_jsonl_trace_parses_and_nests(fabric, tmp_path):
    """The same route traced to a file: every line is one JSON record,
    every span starts before it stops, and every child's records lie
    within its parent's."""
    path = tmp_path / "trace.jsonl"
    sink = JsonlSink(str(path))
    with use_sink(sink):
        with request_scope("req-file"):
            SSSPEngine(workers=2).route(fabric)
    sink.close()
    records = [json.loads(line) for line in path.read_text().splitlines()]
    at = {}
    for i, rec in enumerate(records):
        at.setdefault(rec["span"], {})[rec["event"]] = i
    assert all(set(pos) == {"start", "stop"} for pos in at.values())
    for rec in records:
        if rec["event"] != "start":
            continue
        own = at[rec["span"]]
        assert own["start"] < own["stop"]
        if rec["parent"] is not None:
            up = at[rec["parent"]]
            assert up["start"] < own["start"] and own["stop"] < up["stop"]
    names = {rec["name"] for rec in records}
    assert {"sssp.hop_block", "parallel.hop_rows"} <= names
    assert all(rec["attrs"]["request_id"] == "req-file" for rec in records)
