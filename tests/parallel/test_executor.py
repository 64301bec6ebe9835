"""Executor tests: scheduling, budgets, fallback, metrics and spans."""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro import topologies
from repro.core import SSSPEngine
from repro.exceptions import ComputeTimeoutError
from repro.obs import InMemorySink, get_registry, use_sink
from repro.parallel import ExactReduction, executor, run_parallel_sssp
from repro.parallel.executor import (
    _budget_snapshot,
    _chunks,
    _hop_columns_task,
    _init_worker,
)
from repro.parallel.kernel import hops_to_dest
from repro.service.budget import active_budget, compute_budget


@pytest.fixture(scope="module")
def fabric():
    return topologies.random_topology(10, 20, 2, seed=5)


@pytest.fixture(autouse=True)
def _fresh_registry():
    get_registry().reset()
    yield
    get_registry().reset()


def test_chunks_cover_and_preserve_order():
    items = list(range(11))
    for n in range(1, 14):
        chunks = _chunks(items, n)
        assert sum(chunks, []) == items  # partition, in order
        assert len(chunks) == min(n, len(items))
        sizes = [len(c) for c in chunks]
        assert max(sizes) - min(sizes) <= 1  # near-equal


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


def _dests(fabric):
    return [int(d) for d in fabric.terminals[:3]]


def test_worker_task_ships_timeout_as_data(worker_fabric):
    """Workers re-arm the deadline and return it as a picklable tuple."""
    status, payload, records = _hop_columns_task(_dests(worker_fabric), 0.0, "repair")
    assert status == "timeout"
    message, label, limit_s, elapsed_s = payload
    assert label == "repair"
    assert limit_s == 0.0
    assert elapsed_s >= 0.0
    assert "budget" in message
    assert records == []  # no carrier → no span capture


def test_worker_task_ok_without_budget(worker_fabric):
    dests = _dests(worker_fabric)
    status, columns, records = _hop_columns_task(dests, None, "compute")
    assert status == "ok"
    assert records == []
    assert len(columns) == len(dests)
    for dest, column in zip(dests, columns):  # one column per dest, in order
        np.testing.assert_array_equal(column, hops_to_dest(worker_fabric, dest))


def test_worker_task_captures_spans_when_carrier_asks(worker_fabric):
    dests = _dests(worker_fabric)
    carrier = {"request_id": "req-ff00", "capture": True}
    status, _, records = _hop_columns_task(dests, None, "compute", carrier)
    assert status == "ok"
    assert [r["name"] for r in records] == ["parallel.hop_column"] * 3
    assert [r["attrs"]["dest"] for r in records] == dests
    assert all(r["attrs"]["request_id"] == "req-ff00" for r in records)
    assert all(r["attrs"]["pid"] > 0 for r in records)


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
    real = executor.hops_to_dest

    def expiring_sweep(fabric, dest):
        active_budget().deadline = 0.0
        return real(fabric, dest)

    monkeypatch.setattr(executor, "hops_to_dest", expiring_sweep)  # before the pool forks
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


def test_parallel_metrics_and_spans(fabric):
    sink = InMemorySink()
    with use_sink(sink):
        next_channel, weights = run_parallel_sssp(fabric, workers=2, kernel="numpy", batch=4)
    assert next_channel.shape == (fabric.num_nodes, fabric.num_terminals)
    assert weights.shape == (fabric.num_channels,)

    reg = get_registry()
    T = fabric.num_terminals
    expected_batches = -(-T // 4)  # ceil
    assert reg.gauge("routing_parallel_workers", "", engine="sssp").value == 2
    # One hop sweep per plan opened: each switch hosts two terminals, so
    # the second one of every pair is served from its sibling's plan.
    plans = fabric.num_switches
    assert reg.counter("routing_parallel_columns", "", engine="sssp").value == plans
    assert reg.counter("routing_parallel_batches", "", engine="sssp").value == (
        expected_batches
    )
    assert reg.counter("sssp_sources_routed", "").value == T
    assert reg.histogram("routing_parallel_batch_seconds", "").count == expected_batches

    runs = sink.find("parallel.run")
    assert len(runs) == 1
    assert runs[0].attrs["workers"] == 2
    assert runs[0].attrs["kernel"] == "numpy"
    assert {k: runs[0].attrs[k] for k in ("sweeps", "plans", "plan_hits", "fallbacks")} == {
        "sweeps": plans, "plans": plans, "plan_hits": T - plans, "fallbacks": 0}
    batches = sink.find("parallel.batch")
    assert len(batches) == expected_batches
    assert sum(s.attrs["columns"] for s in batches) == T
    assert sum(s.attrs["sweeps"] for s in batches) == plans


def test_run_parallel_rejects_zero_workers(fabric):
    with pytest.raises(ValueError, match="workers"):
        run_parallel_sssp(fabric, workers=0)


def test_executor_python_kernel_matches_serial(fabric):
    """With ``kernel="python"`` the workers still sweep BFS hops (equal to
    the unit-weight heap Dijkstra, see ``test_hops_equal_unit_weight_dijkstra``)
    and the reducer falls back to the heap kernel — results stay exact."""
    base = SSSPEngine(kernel="python").route(fabric)
    par = SSSPEngine(workers=3, kernel="python").route(fabric)
    assert np.array_equal(par.tables.next_channel, base.tables.next_channel)
    assert np.array_equal(par.channel_weights, base.channel_weights)
