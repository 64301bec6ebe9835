"""Differential test: worker span capture/replay is worker-count invariant.

The executor ships a trace carrier into every pool task; workers capture
one ``parallel.hop_column`` span per hop sweep — one per plan opened: the
first destination, in routing order, on each attachment switch — and the
parent replays them re-parented under the consuming ``parallel.batch``
span. The resulting tree — which destinations hang under which batch,
with which request id — must depend only on the (deterministic) batch
schedule, never on how many workers computed it or how the OS scheduled
them.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import topologies
from repro.obs import InMemorySink, get_registry, request_scope, use_sink
from repro.parallel import run_parallel_sssp

BATCH = 4  # pinned: the default (workers * 4) would vary the schedule


@pytest.fixture(scope="module")
def fabric():
    return topologies.random_topology(10, 20, 2, seed=5)


@pytest.fixture(autouse=True)
def _fresh_registry():
    get_registry().reset()
    yield
    get_registry().reset()


def _traced_run(fabric, workers):
    """Run once; return (request_id, sink) with every span captured."""
    sink = InMemorySink()
    with use_sink(sink):
        with request_scope(f"req-w{workers}", workers=workers):
            run_parallel_sssp(fabric, workers=workers, kernel="numpy", batch=BATCH)
    return f"req-w{workers}", sink


def _tree_signature(sink):
    """batch index → sorted destination list of its replayed worker spans.

    Worker identity (pid) and timing are deliberately excluded — they are
    the only things allowed to vary with the worker count.
    """
    signature = {}
    for sp in sink.find("parallel.hop_column"):
        assert sp.parent is not None and sp.parent.name == "parallel.batch"
        signature.setdefault(sp.parent.attrs["batch"], []).append(sp.attrs["dest"])
    return {batch: sorted(dests) for batch, dests in signature.items()}


def test_worker_span_tree_identical_across_worker_counts(fabric):
    signatures = {}
    for workers in (1, 2, 4):
        rid, sink = _traced_run(fabric, workers)
        # every span of the run carries the request id, workers included
        spans = sink.spans
        assert spans, "no spans captured"
        assert all(s.attrs.get("request_id") == rid for s in spans)
        hop_spans = sink.find("parallel.hop_column")
        # one per plan opened: each switch hosts two terminals that share one
        assert len(hop_spans) == fabric.num_switches
        assert all(s.status == "ok" for s in hop_spans)
        assert all(s.duration is not None and s.duration >= 0 for s in hop_spans)
        signatures[workers] = _tree_signature(sink)

    assert signatures[1] == signatures[2] == signatures[4]
    # and the signature matches the deterministic batch schedule itself
    dests = [int(fabric.terminals[i]) for i in range(fabric.num_terminals)]
    opened, expected = set(), {}
    for i, dest in enumerate(dests):
        switch = int(fabric.attached_switches(dest)[0])
        if switch not in opened:  # first destination on its switch: sweeps
            opened.add(switch)
            expected.setdefault(i // BATCH, []).append(dest)
    assert signatures[1] == {batch: sorted(ds) for batch, ds in expected.items()}


def test_multiple_workers_actually_fan_out(fabric):
    _, sink = _traced_run(fabric, 4)
    pids = {s.attrs["pid"] for s in sink.find("parallel.hop_column")}
    assert len(pids) >= 2  # the tree is worker-invariant but the work is not


def test_disabled_sink_means_no_worker_spans(fabric):
    # NullSink → carrier capture flag off → workers skip span bookkeeping.
    sink = InMemorySink()
    run_parallel_sssp(fabric, workers=2, kernel="numpy", batch=BATCH)
    with use_sink(sink):
        pass  # sink was never active during the run
    assert sink.find("parallel.hop_column") == []


def test_replayed_spans_preserve_results(fabric):
    """Tracing must be observation only: traced and untraced runs agree."""
    plain_nc, plain_w = run_parallel_sssp(fabric, workers=2, kernel="numpy", batch=BATCH)
    with use_sink(InMemorySink()):
        with request_scope("req-x"):
            traced_nc, traced_w = run_parallel_sssp(
                fabric, workers=2, kernel="numpy", batch=BATCH
            )
    assert np.array_equal(plain_nc, traced_nc)
    assert np.array_equal(plain_w, traced_w)
