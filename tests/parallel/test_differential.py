"""Differential suite: every parallel path is bit-identical to serial.

The determinism contract of :mod:`repro.parallel` is *exact* equality —
forwarding tables, layer assignments and balancing weights — between the
serial reference engine (heap Dijkstra, ``kernel="python"``, named
explicitly: the engines' default is the production step) and

* the production step (``kernel="numpy"``, the default),
* the same step with its hop rows swept by a process pool
  (``workers`` ∈ {1, 2, 4}, at any hop-block size),

on every topology family; the pool feeds only the production step, so
the engines refuse it with ``kernel="python"``. ``assert_same_routing`` compares arrays with
``np.array_equal`` (no tolerance: weights and channel ids are integers),
and the hypothesis properties extend the fixed families with random
irregular fabrics.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import topologies
from repro.core import DFSSSPEngine, SSSPEngine
from repro.core.sssp import (
    dijkstra_to_dest,
    update_weights_for_dest,
    update_weights_for_dest_fast,
)
from repro.obs import InMemorySink, use_sink
from repro.parallel import dijkstra_to_dest_numpy, reduction as reduction_mod

# ≥ 5 topology families, as the acceptance criteria require; sizes are
# small enough that one serial + three parallel runs stay in CI budget.
FAMILIES = {
    "ring": lambda: topologies.ring(8, terminals_per_switch=2),
    "torus": lambda: topologies.torus((3, 3), terminals_per_switch=2),
    "xgft": lambda: topologies.xgft(2, (4, 4), (1, 2)),
    "kautz": lambda: topologies.kautz(2, 3, 12),
    "hypercube": lambda: topologies.hypercube(4, terminals_per_switch=1),
    "random": lambda: topologies.random_topology(12, 24, 2, seed=7),
    "dragonfly": lambda: topologies.dragonfly(2, 2, 1),
}

# The "-shm" suffix of two ids names the pool's former shared-memory
# transport; every pool run now returns its hop rows as task results.
# "workers2-python" is the combination the engines refuse: the pool only
# sweeps hop rows for the production step, which the heap reference has
# none of. Its cases assert the refusal.
PARALLEL_CONFIGS = [
    pytest.param(dict(kernel="numpy"), id="serial-numpy"),
    pytest.param(dict(workers=1, kernel="numpy"), id="workers1-numpy-shm"),
    pytest.param(dict(workers=2, kernel="python"), id="workers2-python"),
    pytest.param(dict(workers=2, kernel="numpy"), id="workers2-numpy"),
    pytest.param(dict(workers=4, kernel="numpy"), id="workers4-numpy-shm"),
]


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def family_fabric(request):
    return request.param, FAMILIES[request.param]()


def _heap_reference(engine, fabric):
    """Route with the heap-Dijkstra reference and prove that it ran: the
    production step records its hop sweeps on the ``sssp.run`` span."""
    sink = InMemorySink()
    with use_sink(sink):
        result = engine.route(fabric)
    (run,) = sink.find("sssp.run")
    assert "sweeps" not in run.attrs, "the reference ran the production step"
    return result


@pytest.fixture(scope="module")
def serial_sssp(family_fabric):
    _, fabric = family_fabric
    return _heap_reference(SSSPEngine(kernel="python"), fabric)


@pytest.fixture(scope="module")
def serial_dfsssp(family_fabric):
    _, fabric = family_fabric
    return _heap_reference(DFSSSPEngine(kernel="python"), fabric)


def assert_same_routing(base, other, *, layers: bool = False) -> None:
    assert np.array_equal(other.tables.next_channel, base.tables.next_channel), (
        "forwarding tables differ"
    )
    assert np.array_equal(other.channel_weights, base.channel_weights), (
        "balancing weights differ"
    )
    if layers:
        assert np.array_equal(other.layered.path_layers, base.layered.path_layers), (
            "virtual-layer assignment differs"
        )


def _refused(engine, config) -> bool:
    """True, once the refusal is asserted, for a pool with the reference."""
    if config.get("workers") and config["kernel"] == "python":
        with pytest.raises(ValueError, match="kernel='numpy'"):
            engine(**config)
        return True
    return False


@pytest.mark.parametrize("config", PARALLEL_CONFIGS)
def test_sssp_bit_identical(family_fabric, serial_sssp, config):
    name, fabric = family_fabric
    if _refused(SSSPEngine, config):
        return
    result = SSSPEngine(**config).route(fabric)
    assert_same_routing(serial_sssp, result)
    assert result.stats["total_balancing_weight"] == serial_sssp.stats[
        "total_balancing_weight"
    ], name


@pytest.mark.parametrize("config", PARALLEL_CONFIGS)
def test_dfsssp_bit_identical(family_fabric, serial_dfsssp, config):
    """Identical tables imply identical layers — asserted, not assumed."""
    _, fabric = family_fabric
    if _refused(DFSSSPEngine, config):
        return
    result = DFSSSPEngine(**config).route(fabric)
    assert_same_routing(serial_dfsssp, result, layers=True)
    assert result.stats["layers_needed"] == serial_dfsssp.stats["layers_needed"]


# ----------------------------------------------------------------------
# hypothesis: random irregular fabrics
# ----------------------------------------------------------------------
_slow = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

random_topo_params = st.tuples(
    st.integers(min_value=4, max_value=10),
    st.integers(min_value=0, max_value=10),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=10_000),
)


def _fabric(params):
    s, extra, tps, seed = params
    links = min(s - 1 + extra, s * (s - 1) // 2)
    return topologies.random_topology(s, links, tps, seed=seed)


@_slow
@given(random_topo_params, st.sampled_from([2, 4]))
def test_parallel_equals_serial_on_random_fabrics(params, workers):
    fabric = _fabric(params)
    base = SSSPEngine(kernel="python").route(fabric)
    par = SSSPEngine(workers=workers).route(fabric)
    assert_same_routing(base, par)


@_slow
@given(random_topo_params, st.integers(min_value=1, max_value=7))
def test_batch_size_never_changes_results(params, batch):
    """The roots one pool sweep serves (a hop block of ``batch`` rows)
    affect scheduling and span granularity only."""
    fabric = _fabric(params)
    base = SSSPEngine(kernel="python").route(fabric)
    row_bytes = reduction_mod.ExactReduction(fabric)._row_bytes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reduction_mod, "HOP_BLOCK_BYTES", batch * row_bytes)
        par = SSSPEngine(workers=2).route(fabric)
    assert_same_routing(base, par)


@_slow
@given(random_topo_params)
def test_numpy_kernel_is_exact_oracle(params):
    """The vectorized kernel equals the heap kernel *per call*, on the
    evolving weights of a real SSSP run — stronger than whole-run
    equality because intermediate (dist, parent) pairs must match too."""
    fabric = _fabric(params)
    T = fabric.num_terminals
    weights = np.full(fabric.num_channels, T * T + 1, dtype=np.int64)
    is_term = fabric.kinds == 1
    for t in range(T):
        dest = int(fabric.terminals[t])
        d_ref, p_ref = dijkstra_to_dest(fabric, dest, weights)
        d_np, p_np = dijkstra_to_dest_numpy(fabric, dest, weights)
        np.testing.assert_array_equal(d_np, d_ref)
        np.testing.assert_array_equal(p_np, p_ref)
        update_weights_for_dest(fabric, dest, d_ref, p_ref, weights, is_term)


@_slow
@given(random_topo_params)
def test_fast_weight_update_is_exact_oracle(params):
    """The level-vectorized weight update equals the farthest-first
    reference *per call* on the evolving weights of a real run."""
    fabric = _fabric(params)
    weights_ref = np.ones(fabric.num_channels, dtype=np.int64)
    weights_fast = weights_ref.copy()
    is_term = fabric.kinds == 1
    for t in range(fabric.num_terminals):
        dest = int(fabric.terminals[t])
        dist, parent = dijkstra_to_dest(fabric, dest, weights_ref)
        update_weights_for_dest(fabric, dest, dist, parent, weights_ref, is_term)
        update_weights_for_dest_fast(fabric, dest, dist, parent, weights_fast, is_term)
        np.testing.assert_array_equal(weights_fast, weights_ref)
