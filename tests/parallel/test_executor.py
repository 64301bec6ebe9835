"""Pool tests: chunking, budgets, fallback, metrics, spans and teardown.

The pool only computes hop rows; everything else is the serial column
loop, so a pooled route must equal a serial one in every array and in
every count of the ``sssp.run`` span.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro import topologies
from repro.core import SSSPEngine, sssp as sssp_mod
from repro.exceptions import ComputeTimeoutError
from repro.obs import InMemorySink, JsonlSink, get_registry, request_scope, span, use_sink
from repro.parallel import ExactReduction, executor, kernel, reduction as reduction_mod
from repro.parallel.executor import _chunk_rows, pool_sweep
from repro.parallel.kernel import hop_rows
from repro.resilience import FaultInjector
from repro.routing import base as base_mod
from repro.service import BackoffPolicy, RoutingSupervisor, ServicePolicy
from repro.service.budget import active_budget, compute_budget

from tests.parallel.test_differential import FAMILIES, assert_same_routing


COUNTS = ("sweeps", "plans", "plan_hits", "fallbacks")


def _row_bytes(fabric):
    """What one root adds to a block of hop plans."""
    return ExactReduction(fabric)._row_bytes


@pytest.fixture(scope="module")
def fabric():
    return topologies.random_topology(10, 20, 2, seed=5)


@pytest.fixture(autouse=True)
def _fresh_registry():
    get_registry().reset()
    yield
    get_registry().reset()


def test_chunks_cover_and_preserve_order(fabric):
    """A sweep cuts its roots into at most ``workers`` contiguous,
    near-equal chunks, one span each under the caller's span, and returns
    the rows of ``hop_rows`` in root order."""
    roots = np.arange(fabric.num_nodes)[::-1][:11]
    for workers in (1, 3, 4):
        sink = InMemorySink()
        with use_sink(sink), pool_sweep(fabric, workers) as sweep:
            with span("block") as block:
                rows = sweep(fabric, roots)
        np.testing.assert_array_equal(rows, hop_rows(fabric, roots))
        spans = sorted(sink.find("parallel.hop_rows"), key=lambda s: s.attrs["roots"][0],
                       reverse=True)
        chunks = [s.attrs["roots"] for s in spans]
        assert sum(chunks, []) == roots.tolist()  # partition, in order
        assert len(chunks) == min(workers, len(roots))
        sizes = [len(c) for c in chunks]
        assert max(sizes) - min(sizes) <= 1  # near-equal
        assert all(s.parent is block for s in spans)
        assert all(s.attrs["thread"].startswith("hop_rows") for s in spans)


def test_worker_task_ok_without_budget(fabric):
    roots = np.asarray(fabric.terminals[:3], dtype=np.int64)
    np.testing.assert_array_equal(_chunk_rows(fabric, roots), hop_rows(fabric, roots))


def _expire_mid_sweep(monkeypatch):
    """Every chunk spends the route's budget, then sweeps (and polls it)."""
    real = executor.hop_rows

    def expiring_sweep(fabric, roots):
        active_budget().deadline = 0.0
        return real(fabric, roots)

    monkeypatch.setattr(executor, "hop_rows", expiring_sweep)


@pytest.mark.parametrize("outcome", ["ok", "timeout"])
def test_no_worker_outlives_a_route(fabric, outcome, monkeypatch):
    """The pool's threads are joined with the route, whether it passes or
    its budget expires inside a chunk's sweep; no process is ever started."""
    threads = threading.active_count()
    engine = SSSPEngine(workers=2)
    if outcome == "ok":
        with compute_budget(60.0, label="repair"):
            engine.route(fabric)
    else:
        _expire_mid_sweep(monkeypatch)
        with pytest.raises(ComputeTimeoutError) as err:
            with compute_budget(60.0, label="repair"):
                engine.route(fabric)
        assert err.value.label == "repair"
    assert threading.active_count() == threads
    assert multiprocessing.active_children() == []


def test_parallel_run_honours_expired_budget(fabric, monkeypatch):
    """A deadline that expires inside a chunk's sweep is the route's own
    budget, polled from ``hop_rows``' level loop on the pool's thread: it
    surfaces as that budget's ComputeTimeoutError, so the supervisor's
    escalation ladder works unchanged with workers."""
    _expire_mid_sweep(monkeypatch)
    engine = SSSPEngine(workers=2)
    with pytest.raises(ComputeTimeoutError, match="repair budget") as err:
        with compute_budget(60.0, label="repair"):
            engine.route(fabric)
    assert err.value.label == "repair" and err.value.limit_s == 60.0
    assert get_registry().value("sssp_sources_routed") == 0


def test_expired_budget_trips_in_the_parent_before_the_pool(fabric, monkeypatch):
    """An exhausted deadline around ``route()`` is caught by the parent's
    own poll before any block is swept: no chunk runs, no thread starts."""
    swept = []
    monkeypatch.setattr(executor, "_chunk_rows", lambda *a: swept.append(a))
    threads = threading.active_count()
    engine = SSSPEngine(workers=2)
    with pytest.raises(ComputeTimeoutError) as err:
        with compute_budget(0.0, label="repair"):
            engine.route(fabric)
    assert err.value.label == "repair"
    assert swept == []
    assert threading.active_count() == threads


def test_validation_fallback_still_bit_identical(fabric, monkeypatch):
    """Force every reduction column to fail validation: the executor must
    re-run the full Dijkstra per destination and still match serial."""
    base = SSSPEngine(kernel="python").route(fabric)
    monkeypatch.setattr(ExactReduction, "validate", lambda self, *a, **k: False)
    par = SSSPEngine(workers=2, kernel="numpy").route(fabric)
    assert np.array_equal(par.tables.next_channel, base.tables.next_channel)
    assert np.array_equal(par.channel_weights, base.channel_weights)
    fallbacks = get_registry().counter(
        "routing_parallel_fallbacks", "", engine="sssp"
    )
    assert fallbacks.value == fabric.num_terminals


def test_parallel_metrics_and_spans(fabric, monkeypatch):
    # Blocks of at most three roots, so the route takes several sweeps.
    monkeypatch.setattr(reduction_mod, "HOP_BLOCK_BYTES", 3 * _row_bytes(fabric))
    sink = InMemorySink()
    with use_sink(sink):
        result = SSSPEngine(workers=2).route(fabric)
    assert result.tables.next_channel.shape == (fabric.num_nodes, fabric.num_terminals)

    reg = get_registry()
    T = fabric.num_terminals
    assert reg.gauge("routing_parallel_workers", "", engine="sssp").value == 2
    assert reg.counter("sssp_sources_routed", "").value == T
    assert reg.histogram("sssp_dijkstra_seconds", "").count == T  # registered once

    # One hop row per plan opened: each switch hosts two terminals, so
    # the second one of every pair is served from its sibling's plan.
    plans = fabric.num_switches
    (run,) = sink.find("sssp.run")
    assert {k: run.attrs[k] for k in COUNTS} == {
        "sweeps": plans, "plans": plans, "plan_hits": T - plans, "fallbacks": 0}
    blocks = sink.find("sssp.hop_block")
    assert len(blocks) == -(-plans // 3)
    assert all(b.attrs["rows"] <= 3 for b in blocks)
    assert sum(b.attrs["rows"] for b in blocks) == plans
    assert all(b.parent.name == "sssp.dijkstra" for b in blocks)  # opened by a column's step
    hops = sink.find("parallel.hop_rows")
    assert all(sp.parent.name == "sssp.hop_block" for sp in hops)
    assert len(hops) == sum(min(2, b.attrs["rows"]) for b in blocks)


@pytest.mark.parametrize("workers", [0, 2])
def test_block_building_stays_out_of_the_column_histogram(fabric, workers, monkeypatch):
    """With every hop sweep slowed by 20 ms, the ``sssp.hop_block`` spans
    hold the sleeps and no ``sssp_dijkstra_seconds`` observation does."""
    nap = 0.02

    def slow(real):
        def sweep(fabric, roots):
            time.sleep(nap)
            return real(fabric, roots)
        return sweep

    monkeypatch.setattr(kernel, "hop_rows", slow(kernel.hop_rows))
    monkeypatch.setattr(executor, "hop_rows", slow(executor.hop_rows))
    monkeypatch.setattr(reduction_mod, "HOP_BLOCK_BYTES", 3 * _row_bytes(fabric))
    sink = InMemorySink()
    with use_sink(sink):
        SSSPEngine(workers=workers).route(fabric)
    blocks = sink.find("sssp.hop_block")
    assert len(blocks) == -(-fabric.num_switches // 3)
    assert all(b.duration >= nap for b in blocks)
    hist = get_registry().histogram("sssp_dijkstra_seconds", "")
    assert hist.count == fabric.num_terminals
    assert hist.maximum < nap
    # the column spans still contain the blocks they opened
    assert sum(sp.duration for sp in sink.find("sssp.dijkstra")) > hist.sum + len(blocks) * nap


def test_more_threads_than_cores_share_budget_sink_and_ids(fabric, tmp_path, monkeypatch):
    """Stress: more pool threads than cores, switching every microsecond,
    over one-root blocks. The routing equals the serial one, the shared
    ``JsonlSink`` writes whole lines with distinct span ids, and the
    shared budget counts every poll (a lost update would break each)."""
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
    monkeypatch.setattr(reduction_mod, "HOP_BLOCK_BYTES", 8 * _row_bytes(fabric))
    base = SSSPEngine().route(fabric)
    polls[0] = 0
    path = tmp_path / "trace.jsonl"
    sink = JsonlSink(str(path))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with use_sink(sink), request_scope("req-stress"), \
                compute_budget(60.0, label="stress") as budget:
            got = SSSPEngine(workers=(os.cpu_count() or 1) + 2).route(fabric)
    finally:
        sys.setswitchinterval(interval)
        sink.close()
    assert_same_routing(base, got)
    assert budget.checks == polls[0] > fabric.num_terminals
    records = [json.loads(line) for line in path.read_text().splitlines()]
    starts = [rec["span"] for rec in records if rec["event"] == "start"]
    assert len(starts) == len(set(starts)) == len(records) // 2


def test_run_parallel_rejects_zero_workers(fabric):
    with pytest.raises(ValueError, match="workers"):
        with pool_sweep(fabric, 0):
            pass


@pytest.mark.parametrize("block", ["default", "tiny"])
@pytest.mark.parametrize("name", ["xgft", "random", "kautz"])
def test_pool_changes_only_where_rows_are_computed(name, block, monkeypatch):
    """``workers`` 1, 2 and 3 give the arrays and ``sssp.run`` counts of
    ``workers=0``, at the default block size and at blocks of two."""
    fabric = FAMILIES[name]()
    if block == "tiny":
        monkeypatch.setattr(reduction_mod, "HOP_BLOCK_BYTES", 2 * _row_bytes(fabric))
    runs = {}
    for workers in (0, 1, 2, 3):
        sink = InMemorySink()
        with use_sink(sink):
            result = SSSPEngine(workers=workers).route(fabric)
        (run,) = sink.find("sssp.run")
        runs[workers] = result, {k: run.attrs[k] for k in COUNTS}
        assert bool(sink.find("parallel.hop_rows")) == bool(workers)
    for workers in (1, 2, 3):
        assert_same_routing(runs[0][0], runs[workers][0])
        assert runs[0][1] == runs[workers][1]


def test_a_serial_route_never_loads_the_pool():
    """The pool module, and the thread pool with it, load only for an
    engine built with ``workers >= 1``; no routing module loads
    ``multiprocessing``'s pool."""
    probe = (
        "import sys\n"
        "from repro import topologies\n"
        "from repro.core import DFSSSPEngine\n"
        "DFSSSPEngine().route(topologies.xgft(2, (4, 4), (1, 2)))\n"
        "print(sorted({'repro.parallel.executor', 'concurrent.futures.thread',\n"
        "              'multiprocessing.pool'} & set(sys.modules)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_pooled_supervisor_round_trips_a_checkpoint_under_a_deadline(tmp_path):
    """A ``workers=2`` service routes under its deadlines, checkpoints,
    restores with its options and keeps serving what a serial service
    serves, and leaves no thread behind."""
    fabric = topologies.random_topology(8, 18, terminals_per_switch=2, seed=3)
    policy = ServicePolicy(backoff=BackoffPolicy(base_s=0.0, jitter=0.0, max_attempts=2),
                           repair_deadline_s=30.0, full_deadline_s=30.0)
    injector = FaultInjector(fabric, seed=5, p_switch_down=0.0, p_link_up=0.0)
    events = [injector.step()[0] for _ in range(2)]
    threads = threading.active_count()
    sup = RoutingSupervisor(fabric, engine="dfsssp", policy=policy,
                            checkpoint_dir=tmp_path / "ckpt", engine_opts={"workers": 2},
                            sleep=lambda _s: None)
    sup.submit(events[0])
    assert sup.process().ok
    restored = RoutingSupervisor.restore(tmp_path / "ckpt", sleep=lambda _s: None)
    assert restored.engine_opts == {"workers": 2}
    assert restored.engine._sssp.workers == 2
    np.testing.assert_array_equal(restored.serving().result.tables.next_channel,
                                  sup.serving().result.tables.next_channel)
    restored.submit(events[1])
    assert restored.process().ok
    assert threading.active_count() == threads
    assert multiprocessing.active_children() == []

    serial = RoutingSupervisor(fabric, engine="dfsssp", policy=policy, sleep=lambda _s: None)
    for event in events:
        serial.submit(event)
        assert serial.process().ok
    np.testing.assert_array_equal(restored.serving().result.tables.next_channel,
                                  serial.serving().result.tables.next_channel)
