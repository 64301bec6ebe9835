"""Differential test: worker span capture/replay is worker-count invariant.

The pool ships a trace carrier into every task; each worker captures one
``parallel.hop_rows`` span per chunk of a block's roots (a plan's root:
the attachment switch its terminals share), and the parent replays them
re-parented under the block's ``parallel.sweep`` span. The resulting
tree — which roots were swept under which block, with which request id —
must depend only on the (deterministic) block schedule of the serial
column loop, never on how many workers computed it or how the OS
scheduled them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import topologies
from repro.core import SSSPEngine
from repro.obs import InMemorySink, get_registry, request_scope, use_sink
from repro.parallel import reduction as reduction_mod
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
    """block index → sorted roots of its replayed worker spans.

    Worker identity (pid), chunking and timing are deliberately excluded
    — they are the only things allowed to vary with the worker count.
    """
    signature = {}
    for sp in sink.find("parallel.hop_rows"):
        assert sp.parent is not None and sp.parent.name == "parallel.sweep"
        signature.setdefault(sp.parent.attrs["block"], []).extend(sp.attrs["roots"])
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
    for workers in (1, 2, 4):
        rid, sink = _traced_run(fabric, workers)
        # every span of the run carries the request id, workers included
        spans = sink.spans
        assert spans, "no spans captured"
        assert all(s.attrs.get("request_id") == rid for s in spans)
        hop_spans = sink.find("parallel.hop_rows")
        # one row per plan opened: each switch hosts two terminals that share one
        assert sum(len(s.attrs["roots"]) for s in hop_spans) == fabric.num_switches
        assert all(s.status == "ok" for s in hop_spans)
        assert all(s.duration is not None and s.duration >= 0 for s in hop_spans)
        signatures[workers] = _tree_signature(sink)

    assert signatures[1] == signatures[2] == signatures[4]
    # and the signature is the serial loop's block schedule itself
    blocks = _serial_blocks(fabric)
    assert len(blocks) >= 2 and max(len(roots) for roots in blocks.values()) >= 2
    assert signatures[1] == blocks


def test_multiple_workers_actually_fan_out(fabric):
    _, sink = _traced_run(fabric, 4)
    pids = {s.attrs["pid"] for s in sink.find("parallel.hop_rows")}
    assert len(pids) >= 2  # the tree is worker-invariant but the work is not


def test_disabled_sink_means_no_worker_spans(fabric):
    # NullSink → carrier capture flag off → workers skip span bookkeeping.
    sink = InMemorySink()
    SSSPEngine(workers=2).route(fabric)
    with use_sink(sink):
        pass  # sink was never active during the run
    assert sink.find("parallel.hop_rows") == []


def test_replayed_spans_preserve_results(fabric):
    """Tracing must be observation only: traced and untraced runs agree."""
    plain = SSSPEngine(workers=2).route(fabric)
    with use_sink(InMemorySink()):
        with request_scope("req-x"):
            traced = SSSPEngine(workers=2).route(fabric)
    assert np.array_equal(plain.tables.next_channel, traced.tables.next_channel)
    assert np.array_equal(plain.channel_weights, traced.channel_weights)
