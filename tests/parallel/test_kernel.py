"""Unit tests for the vectorized kernels (:mod:`repro.parallel.kernel`)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import topologies
from repro.core import DFSSSPEngine
from repro.core.sssp import KERNELS, SSSPEngine, dijkstra_to_dest
from repro.exceptions import ComputeTimeoutError
from repro.parallel import dijkstra_to_dest_numpy, hops_to_dest
from repro.service.budget import compute_budget


@pytest.fixture(scope="module")
def fabric():
    return topologies.random_topology(10, 20, 2, seed=3)


def test_engine_rejects_bad_parallel_options():
    with pytest.raises(ValueError, match="kernel"):
        SSSPEngine(kernel="fortran")
    with pytest.raises(ValueError, match="workers"):
        SSSPEngine(workers=-1)
    # The pool sweeps hop rows for the production step only.
    for engine in (SSSPEngine, DFSSSPEngine):
        with pytest.raises(ValueError, match="workers >= 1 needs kernel='numpy'"):
            engine(workers=1, kernel="python")
    assert KERNELS == ("python", "numpy")


def test_removed_options_fail_loudly():
    """The deleted kernel, engine and knobs are errors, not silent defaults."""
    for engine in (SSSPEngine, DFSSSPEngine):
        with pytest.raises(ValueError, match="'python', 'numpy'"):
            engine(kernel="native")
        for knob in ("shm", "batch", "mode", "dest_order", "seed", "count_switch_sources"):
            with pytest.raises(TypeError, match=knob):
                engine(**{knob: 1})
    with pytest.raises(ValueError, match="'incremental' or 'rebuild'"):
        DFSSSPEngine(**{"cdg": "sharded"})


def test_numpy_kernel_matches_heap_on_uniform_weights(fabric):
    weights = np.ones(fabric.num_channels, dtype=np.int64)
    for dest in map(int, fabric.terminals[:4]):
        d_ref, p_ref = dijkstra_to_dest(fabric, dest, weights)
        d_np, p_np = dijkstra_to_dest_numpy(fabric, dest, weights)
        np.testing.assert_array_equal(d_np, d_ref)
        np.testing.assert_array_equal(p_np, p_ref)


def test_numpy_kernel_matches_heap_on_skewed_weights(fabric):
    rng = np.random.default_rng(11)
    weights = rng.integers(1, 10_000, size=fabric.num_channels).astype(np.int64)
    for dest in map(int, fabric.terminals[:4]):
        d_ref, p_ref = dijkstra_to_dest(fabric, dest, weights)
        d_np, p_np = dijkstra_to_dest_numpy(fabric, dest, weights)
        np.testing.assert_array_equal(d_np, d_ref)
        np.testing.assert_array_equal(p_np, p_ref)


def test_hops_equal_unit_weight_dijkstra(fabric):
    """BFS levels == Dijkstra distances under unit weights (INF -> -1)."""
    INF = np.iinfo(np.int64).max
    ones = np.ones(fabric.num_channels, dtype=np.int64)
    for dest in map(int, fabric.terminals[:4]):
        dist, _ = dijkstra_to_dest(fabric, dest, ones)
        expected = np.where(dist == INF, -1, dist)
        np.testing.assert_array_equal(hops_to_dest(fabric, dest), expected)


def test_terminals_never_forward(fabric):
    """Other terminals must be leaves of every shortest-path tree."""
    weights = np.ones(fabric.num_channels, dtype=np.int64)
    dest = int(fabric.terminals[0])
    _, parent = dijkstra_to_dest_numpy(fabric, dest, weights)
    used = parent[parent >= 0]
    through = fabric.channels.dst[used]  # node each parent channel enters
    kinds = fabric.kinds[through]
    assert ((kinds == 0) | (through == dest)).all()


def test_kernels_poll_compute_budget(fabric):
    dest = int(fabric.terminals[0])
    weights = np.ones(fabric.num_channels, dtype=np.int64)
    with pytest.raises(ComputeTimeoutError):
        with compute_budget(0.0, label="unit"):
            dijkstra_to_dest_numpy(fabric, dest, weights)
    with pytest.raises(ComputeTimeoutError):
        with compute_budget(0.0, label="unit"):
            hops_to_dest(fabric, dest)
