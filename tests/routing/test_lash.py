"""LASH: switch-pair layering, deadlock-freedom, layer budget."""

import pytest

from repro import topologies
from repro.deadlock import verify_deadlock_free, verify_with_networkx
from repro.deadlock.cdg import ChannelDependencyGraph
from repro.exceptions import InsufficientLayersError, RoutingError
from repro.routing import LASHEngine, extract_paths, path_minimality_violations


@pytest.mark.parametrize(
    "fabric_factory",
    [
        lambda: topologies.ring(8, 1),
        lambda: topologies.torus((4, 4), 1),
        lambda: topologies.kautz(2, 2, 12),
        lambda: topologies.random_topology(12, 26, 2, seed=1),
    ],
)
def test_deadlock_free_everywhere(fabric_factory):
    fabric = fabric_factory()
    result = LASHEngine().route(fabric)
    paths = extract_paths(result.tables)
    report = verify_deadlock_free(result.layered, paths)
    assert report.deadlock_free
    assert verify_with_networkx(result.layered, paths)


def test_minimal_paths(random16):
    result = LASHEngine().route(random16)
    paths = extract_paths(result.tables)
    assert path_minimality_violations(result.tables, paths) == 0


def test_torus_needs_multiple_layers():
    # Rings/tori force LASH to split wraparound paths into >= 2 layers.
    fab = topologies.torus((5,), terminals_per_switch=1)
    result = LASHEngine().route(fab)
    assert result.stats["layers_needed"] >= 2


def test_tree_needs_single_layer(ktree42):
    result = LASHEngine().route(ktree42)
    assert result.stats["layers_needed"] == 1


def test_insufficient_layers_raises():
    fab = topologies.torus((5, 5), terminals_per_switch=1)
    with pytest.raises(InsufficientLayersError) as exc:
        LASHEngine(max_layers=1).route(fab)
    assert exc.value.layers_available == 1


def test_layer_granularity_is_switch_pair(random16):
    # All destinations on the same switch share each source switch's layer.
    result = LASHEngine().route(random16)
    layered = result.layered
    S = random16.num_switches
    term_by_switch = {}
    for t_idx, term in enumerate(random16.terminals):
        sw = int(random16.attached_switches(int(term))[0])
        term_by_switch.setdefault(sw, []).append(t_idx)
    for sw, t_idxs in term_by_switch.items():
        if len(t_idxs) < 2:
            continue
        sw_idx = int(random16.switch_index[sw])
        for s_idx in range(S):
            if s_idx == sw_idx:
                continue
            layers = {
                int(layered.path_layers[t_idx * S + s_idx]) for t_idx in t_idxs
            }
            assert len(layers) == 1


def test_bad_max_layers():
    with pytest.raises(ValueError):
        LASHEngine(max_layers=0)


def test_stats_layers_needed_le_available(random16):
    result = LASHEngine(max_layers=8).route(random16)
    assert 1 <= result.stats["layers_needed"] <= 8


def test_a_pair_that_fits_no_empty_layer_is_a_named_error(monkeypatch):
    """Not an ``assert``: under ``python -O`` the pair would be recorded in
    a layer it was never added to."""
    monkeypatch.setattr(ChannelDependencyGraph, "try_add_path", lambda self, pid, chans: False)
    with pytest.raises(RoutingError, match=r"pair \(1,0\) fits no empty layer"):
        LASHEngine().route(topologies.ring(4, 1))
