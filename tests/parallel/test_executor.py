"""Pool tests: chunking, budgets, fallback, metrics and spans.

The pool only computes hop rows; everything else is the serial column
loop, so a pooled route must equal a serial one in every array and in
every count of the ``sssp.run`` span.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import topologies
from repro.core import SSSPEngine
from repro.exceptions import ComputeTimeoutError
from repro.obs import InMemorySink, get_registry, use_sink
from repro.parallel import ExactReduction, executor, reduction as reduction_mod
from repro.parallel.executor import (
    _budget_snapshot,
    _hop_rows_task,
    _init_worker,
    pool_sweep,
)
from repro.parallel.kernel import hop_rows
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
    near-equal chunks, one worker span each, and returns the rows of
    ``hop_rows`` in root order."""
    roots = np.arange(fabric.num_nodes)[::-1][:11]
    for workers in (1, 3, 4):
        sink = InMemorySink()
        with use_sink(sink), pool_sweep(fabric, workers) as sweep:
            rows = sweep(fabric, roots)
        np.testing.assert_array_equal(rows, hop_rows(fabric, roots))
        chunks = [s.attrs["roots"] for s in sink.find("parallel.hop_rows")]
        assert sum(chunks, []) == roots.tolist()  # partition, in order
        assert len(chunks) == min(workers, len(roots))
        sizes = [len(c) for c in chunks]
        assert max(sizes) - min(sizes) <= 1  # near-equal
        (parent,) = sink.find("parallel.sweep")
        assert parent.attrs["rows"] == len(roots)
        assert parent.attrs["chunks"] == len(chunks)


def test_budget_snapshot_without_budget():
    assert _budget_snapshot() == (None, "compute")


def test_budget_snapshot_forwards_remaining():
    with compute_budget(30.0, label="full_reroute"):
        remaining, label = _budget_snapshot()
    assert label == "full_reroute"
    assert 0 < remaining <= 30.0


@pytest.fixture()
def worker_fabric(fabric):
    """This process initialised as a pool worker over ``fabric``."""
    _init_worker(fabric)
    yield fabric
    _init_worker(None)


def _roots(fabric):
    return np.asarray(fabric.terminals[:3], dtype=np.int64)


def test_worker_task_ships_timeout_as_data(worker_fabric):
    """Workers re-arm the deadline and return it as a picklable tuple."""
    status, payload, records = _hop_rows_task(_roots(worker_fabric), 0.0, "repair")
    assert status == "timeout"
    message, label, limit_s, elapsed_s = payload
    assert label == "repair"
    assert limit_s == 0.0
    assert elapsed_s >= 0.0
    assert "budget" in message
    assert records == []  # no carrier → no span capture


def test_worker_task_ok_without_budget(worker_fabric):
    roots = _roots(worker_fabric)
    status, rows, records = _hop_rows_task(roots, None, "compute")
    assert status == "ok"
    assert records == []
    np.testing.assert_array_equal(rows, hop_rows(worker_fabric, roots))  # in root order


def test_worker_task_captures_spans_when_carrier_asks(worker_fabric):
    roots = _roots(worker_fabric)
    carrier = {"request_id": "req-ff00", "capture": True}
    status, _, records = _hop_rows_task(roots, None, "compute", carrier)
    assert status == "ok"
    (record,) = records  # one span per chunk
    assert record["name"] == "parallel.hop_rows"
    assert record["attrs"]["roots"] == roots.tolist()
    assert record["attrs"]["request_id"] == "req-ff00"
    assert record["attrs"]["pid"] > 0


@pytest.mark.parametrize("outcome", ["ok", "timeout"])
def test_no_worker_outlives_a_route(fabric, outcome, monkeypatch):
    """The pool is torn down with the route, whether it passes or a
    worker times out (every task ships an exhausted budget; the parent
    itself runs without one, so the worker's deadline is what trips)."""
    assert multiprocessing.active_children() == []
    engine = SSSPEngine(workers=2, kernel="numpy")
    if outcome == "ok":
        engine.route(fabric)
    else:
        monkeypatch.setattr(executor, "_budget_snapshot", lambda: (0.0, "repair"))
        with pytest.raises(ComputeTimeoutError, match="parallel worker"):
            engine.route(fabric)
        timeouts = get_registry().counter(
            "routing_parallel_worker_timeouts", "", engine="sssp"
        )
        assert timeouts.value == 1
    assert multiprocessing.active_children() == []


def test_parallel_run_honours_expired_budget(fabric, monkeypatch):
    """A deadline that expires inside a worker's sweep surfaces in the
    parent as ComputeTimeoutError, so the supervisor's escalation ladder
    works unchanged with workers. The parent has a minute; the sweep the
    workers fork with spends the deadline they re-armed from it."""
    real = executor.hop_rows

    def expiring_sweep(fabric, roots):
        active_budget().deadline = 0.0
        return real(fabric, roots)

    monkeypatch.setattr(executor, "hop_rows", expiring_sweep)  # before the pool forks
    engine = SSSPEngine(workers=2, kernel="numpy")
    with pytest.raises(ComputeTimeoutError, match="parallel worker") as err:
        with compute_budget(60.0, label="repair"):
            engine.route(fabric)
    assert err.value.label == "repair"
    timeouts = get_registry().counter("routing_parallel_worker_timeouts", "", engine="sssp")
    assert timeouts.value == 1
    assert get_registry().value("sssp_sources_routed") == 0


def test_expired_budget_trips_in_the_parent_before_the_pool(fabric, monkeypatch):
    """An exhausted deadline around ``route()`` is caught by the parent's
    own poll before any pool starts: no worker runs, none times out."""
    started = []
    monkeypatch.setattr(executor, "_mp_context", lambda: started.append(1))
    engine = SSSPEngine(workers=2, kernel="numpy")
    with pytest.raises(ComputeTimeoutError) as err:
        with compute_budget(0.0, label="repair"):
            engine.route(fabric)
    assert "parallel worker" not in str(err.value)
    assert started == []
    timeouts = get_registry().counter("routing_parallel_worker_timeouts", "", engine="sssp")
    assert timeouts.value == 0


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
    # One hop row per plan opened: each switch hosts two terminals, so
    # the second one of every pair is served from its sibling's plan.
    plans = fabric.num_switches
    assert reg.counter("routing_parallel_columns", "", engine="sssp").value == plans
    assert reg.counter("sssp_sources_routed", "").value == T
    assert reg.histogram("sssp_dijkstra_seconds", "").count == T  # registered once

    (run,) = sink.find("sssp.run")
    assert {k: run.attrs[k] for k in COUNTS} == {
        "sweeps": plans, "plans": plans, "plan_hits": T - plans, "fallbacks": 0}
    sweeps = sink.find("parallel.sweep")
    assert [s.attrs["block"] for s in sweeps] == list(range(-(-plans // 3)))
    assert all(s.attrs["rows"] <= 3 for s in sweeps)
    assert sum(s.attrs["rows"] for s in sweeps) == plans
    for sp in sink.find("parallel.hop_rows"):
        assert sp.parent.name == "parallel.sweep"
        assert sp.parent.parent.name == "sssp.dijkstra"  # opened by a column's step
    assert len(sink.find("parallel.hop_rows")) == sum(s.attrs["chunks"] for s in sweeps)


def test_run_parallel_rejects_zero_workers(fabric):
    with pytest.raises(ValueError, match="workers"):
        with pool_sweep(fabric, 0):
            pass


@pytest.mark.parametrize("block", ["default", "tiny"])
@pytest.mark.parametrize("name", ["xgft", "random", "kautz"])
def test_pool_changes_only_where_rows_are_computed(name, block, monkeypatch):
    """``workers=2`` and ``workers=0`` give identical arrays and identical
    ``sssp.run`` counts, at the default block size and at blocks of two."""
    fabric = FAMILIES[name]()
    if block == "tiny":
        monkeypatch.setattr(reduction_mod, "HOP_BLOCK_BYTES", 2 * _row_bytes(fabric))
    runs = {}
    for workers in (0, 2):
        sink = InMemorySink()
        with use_sink(sink):
            result = SSSPEngine(workers=workers).route(fabric)
        (run,) = sink.find("sssp.run")
        runs[workers] = result, {k: run.attrs[k] for k in COUNTS}
        assert bool(sink.find("parallel.sweep")) == bool(workers)
    assert_same_routing(runs[0][0], runs[2][0])
    assert runs[0][1] == runs[2][1]


def test_a_serial_route_never_loads_the_pool():
    """The pool module, and multiprocessing's pool with it, load only for
    an engine built with ``workers >= 1``."""
    probe = (
        "import sys\n"
        "from repro import topologies\n"
        "from repro.core import DFSSSPEngine\n"
        "DFSSSPEngine().route(topologies.xgft(2, (4, 4), (1, 2)))\n"
        "print(sorted({'repro.parallel.executor', 'multiprocessing.pool'} & set(sys.modules)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
