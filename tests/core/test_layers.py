"""Layer assignment (Algorithm 2): offline vs online, balancing, compaction."""

import numpy as np
import pytest

from repro import topologies
from repro.core import SSSPEngine, assign_layers_offline, assign_layers_online
from repro.core.layers import _balance_layers, _compact
from repro.deadlock import verify_deadlock_free
from repro.deadlock.cdg import ChannelDependencyGraph
from repro.exceptions import InsufficientLayersError, RoutingError
from repro.routing import extract_paths
from repro.routing.base import LayeredRouting


@pytest.fixture(scope="module")
def ring_paths():
    fab = topologies.ring(6, 1)
    tables = SSSPEngine().route(fab).tables
    return tables, extract_paths(tables)


def test_offline_produces_acyclic_layers(ring_paths):
    tables, paths = ring_paths
    assignment = assign_layers_offline(paths, max_layers=8)
    layered = LayeredRouting(tables, assignment.path_layers, 8)
    assert verify_deadlock_free(layered, paths).deadlock_free


def test_online_produces_acyclic_layers(ring_paths):
    tables, paths = ring_paths
    assignment = assign_layers_online(paths, max_layers=8)
    layered = LayeredRouting(tables, assignment.path_layers, 8)
    assert verify_deadlock_free(layered, paths).deadlock_free


def test_offline_and_online_agree_on_need(ring_paths):
    _tables, paths = ring_paths
    off = assign_layers_offline(paths, max_layers=8, balance=False)
    on = assign_layers_online(paths, max_layers=8)
    assert off.layers_needed == on.layers_needed == 2


def test_histogram_accounts_every_path(ring_paths):
    _tables, paths = ring_paths
    assignment = assign_layers_offline(paths, max_layers=8)
    assert assignment.histogram().sum() == paths.num_paths


def test_balance_uses_all_layers(ring_paths):
    _tables, paths = ring_paths
    assignment = assign_layers_offline(paths, max_layers=6, balance=True)
    hist = assignment.histogram()
    assert np.count_nonzero(hist) == 6


def test_balance_false_keeps_compact(ring_paths):
    _tables, paths = ring_paths
    assignment = assign_layers_offline(paths, max_layers=6, balance=False)
    hist = assignment.histogram()
    assert np.count_nonzero(hist) == assignment.layers_needed


def test_insufficient_layers(ring_paths):
    _tables, paths = ring_paths
    with pytest.raises(InsufficientLayersError):
        assign_layers_offline(paths, max_layers=1)
    with pytest.raises(InsufficientLayersError):
        assign_layers_online(paths, max_layers=1)


def test_invalid_max_layers(ring_paths):
    _tables, paths = ring_paths
    with pytest.raises(ValueError):
        assign_layers_offline(paths, max_layers=0)
    with pytest.raises(ValueError):
        assign_layers_online(paths, max_layers=0)


def test_compact_renumbers_densely():
    layers = np.array([0, 3, 3, 5], dtype=np.int16)
    used = _compact(layers)
    assert used == 3
    assert list(layers) == [0, 1, 1, 2]


def test_compact_empty():
    layers = np.zeros(0, dtype=np.int16)
    assert _compact(layers) == 0


def test_balance_splits_heaviest():
    layers = np.zeros(10, dtype=np.int16)
    _balance_layers(layers, layers_needed=1, max_layers=2)
    hist = np.bincount(layers, minlength=2)
    assert hist[0] == 5 and hist[1] == 5


def test_balance_stops_on_singletons():
    layers = np.zeros(1, dtype=np.int16)
    _balance_layers(layers, layers_needed=1, max_layers=4)
    assert list(layers) == [0]


def test_offline_heuristics_vary_layer_count():
    """§IV: weakest-edge should never need more layers than the others on
    the studied random topologies (statistically; we check one seed where
    the difference materialises)."""
    results = {}
    fab = topologies.random_topology(16, 40, 2, seed=13)
    paths = extract_paths(SSSPEngine().route(fab).tables)
    for heuristic in ("weakest", "strongest", "first"):
        a = assign_layers_offline(paths, max_layers=16, heuristic=heuristic, balance=False)
        results[heuristic] = a.layers_needed
    assert results["weakest"] <= results["strongest"]
    assert results["weakest"] <= results["first"]


def test_moved_paths_counted(ring_paths):
    _tables, paths = ring_paths
    assignment = assign_layers_offline(paths, max_layers=8, balance=False)
    moved = int((assignment.path_layers > 0).sum())
    assert assignment.paths_moved == moved


def test_cycle_edge_without_inducing_path_is_a_named_error(ring_paths, monkeypatch):
    monkeypatch.setattr(ChannelDependencyGraph, "pids_of_edge", lambda self, c1, c2: set())
    with pytest.raises(RoutingError, match=r"layer 0: no path induces cycle edge \(\d+, \d+\)"):
        assign_layers_offline(ring_paths[1], max_layers=8)


def test_path_that_fits_no_empty_layer_is_a_named_error(ring_paths, monkeypatch):
    """Not an ``assert``: under ``python -O`` the path would be recorded in
    a layer it was never added to."""
    monkeypatch.setattr(ChannelDependencyGraph, "try_add_path", lambda self, pid, chans: False)
    with pytest.raises(RoutingError, match="path 0 fits no empty layer"):
        assign_layers_online(ring_paths[1], max_layers=8)
