"""DFSSSP: identical paths to SSSP + verified deadlock-freedom."""

import inspect

import numpy as np
import pytest

from repro import topologies
from repro.core import DFSSSPEngine, SSSPEngine
from repro.deadlock import verify_deadlock_free, verify_with_networkx
from repro.exceptions import InsufficientLayersError
from repro.routing import extract_paths, path_minimality_violations


def test_tables_identical_to_sssp(random16):
    """Virtual layers only choose buffers, never routes — the bandwidth
    argument of §IV depends on this."""
    sssp = SSSPEngine().route(random16).tables.next_channel
    dfsssp = DFSSSPEngine().route(random16).tables.next_channel
    assert (sssp == dfsssp).all()


@pytest.mark.parametrize(
    "fabric_factory",
    [
        lambda: topologies.ring(8, 1),
        lambda: topologies.torus((4, 4), 1),
        lambda: topologies.chordal_ring(8, (3,), 1),
        lambda: topologies.kautz(2, 3, 24),
        lambda: topologies.random_topology(14, 30, 2, seed=9),
        lambda: topologies.dragonfly(2, 2, 1),
        lambda: topologies.tsubame(scale=0.06),
    ],
)
def test_deadlock_free_everywhere(fabric_factory):
    fabric = fabric_factory()
    result = DFSSSPEngine().route(fabric)
    paths = extract_paths(result.tables)
    report = verify_deadlock_free(result.layered, paths)
    assert report.deadlock_free
    assert verify_with_networkx(result.layered, paths)


def test_minimal_paths(dfsssp_random16):
    paths = extract_paths(dfsssp_random16.tables)
    assert path_minimality_violations(dfsssp_random16.tables, paths) == 0


def test_ring_needs_exactly_two_layers(dfsssp_ring5):
    assert dfsssp_ring5.stats["layers_needed"] == 2


def test_tree_needs_one_layer(ktree42):
    result = DFSSSPEngine().route(ktree42)
    assert result.stats["layers_needed"] == 1


def test_balance_spreads_over_all_available_layers(dfsssp_ring5):
    # layers_needed == 2 but balancing spreads to all 8 lanes.
    hist = dfsssp_ring5.layered.layer_histogram()
    assert dfsssp_ring5.stats["layers_used"] == int(np.count_nonzero(hist))
    assert dfsssp_ring5.stats["layers_used"] > dfsssp_ring5.stats["layers_needed"]


def test_balance_disabled(ring5):
    result = DFSSSPEngine(balance=False).route(ring5)
    assert result.layered.layers_used == result.stats["layers_needed"] == 2


def test_insufficient_layers_raises():
    fab = topologies.torus((5,), terminals_per_switch=1)
    with pytest.raises(InsufficientLayersError) as exc:
        DFSSSPEngine(max_layers=1).route(fab)
    assert exc.value.layers_needed_at_least == 2


def test_heuristic_options(random16):
    for heuristic in ("weakest", "strongest", "first"):
        result = DFSSSPEngine(heuristic=heuristic).route(random16)
        paths = extract_paths(result.tables)
        assert verify_deadlock_free(result.layered, paths).deadlock_free


def test_option_surface():
    assert list(inspect.signature(DFSSSPEngine).parameters) == [
        "max_layers", "heuristic", "cdg", "balance", "workers", "kernel",
    ]


def test_defaults_are_the_production_step():
    engine = DFSSSPEngine()
    assert (engine._sssp.kernel, engine._sssp.workers, engine.cdg) == ("numpy", 0, "incremental")


@pytest.mark.parametrize("opts, named", [
    ({"heuristic": "bogus"}, "unknown heuristic 'bogus'"),
    ({"max_layers": 0}, "max_layers must be >= 1"),
], ids=["heuristic", "max_layers"])
def test_invalid_options_rejected_at_construction(opts, named):
    """A bad value fails when the engine is built, not at its first route."""
    with pytest.raises(ValueError, match=named):
        DFSSSPEngine(**opts)


def test_stats_complete(dfsssp_random16):
    stats = dfsssp_random16.stats
    for key in ("layers_needed", "cycles_broken", "paths_moved", "time_sssp_s", "time_layers_s"):
        assert key in stats
    assert stats["time_sssp_s"] > 0
    assert stats["time_layers_s"] > 0


def test_offline_reports_cycle_work(dfsssp_ring5):
    assert dfsssp_ring5.stats["cycles_broken"] >= 1
    assert dfsssp_ring5.stats["paths_moved"] >= 1


def test_layers_cover_torus_wraparound():
    """Classic: a 2D torus under minimal routing needs >= 2 VLs."""
    fab = topologies.torus((4, 4), 1)
    result = DFSSSPEngine().route(fab)
    assert result.stats["layers_needed"] >= 2
