"""LMC multipathing: plane divergence, joint deadlock-freedom, striping."""

import numpy as np
import pytest

import repro.core.multipath as multipath_mod
import repro.parallel.reduction as reduction_mod
from repro import topologies
from repro.core import (
    ConcatenatedPaths,
    DFSSSPEngine,
    MultipathDFSSSPEngine,
    MultipathRouting,
    assign_layers_offline,
)
from repro.exceptions import RoutingError, SimulationError
from repro.routing import extract_paths, path_minimality_violations
from repro.simulator import CongestionSimulator, MultipathCongestionSimulator, shift_pattern


@pytest.fixture(scope="module")
def fabric():
    return topologies.ranger(scale=0.04)


@pytest.fixture(scope="module")
def lmc2(fabric):
    return MultipathDFSSSPEngine(lmc=2).route(fabric)


def test_plane_count(lmc2):
    assert lmc2.num_planes == 4
    assert len(lmc2.planes) == 4
    assert lmc2.stats["lmc"] == 2


def test_lmc0_matches_single_path(fabric):
    mp = MultipathDFSSSPEngine(lmc=0).route(fabric)
    single = DFSSSPEngine().route(fabric)
    assert (mp.planes[0].next_channel == single.tables.next_channel).all()


def test_planes_diverge(lmc2):
    """Consecutive LID planes must not be copies of each other."""
    a = lmc2.planes[0].next_channel
    b = lmc2.planes[1].next_channel
    assert (a != b).any()


def test_every_plane_minimal(fabric, lmc2):
    for tables in lmc2.planes:
        paths = extract_paths(tables)
        assert path_minimality_violations(tables, paths) == 0


def test_joint_deadlock_freedom(lmc2):
    assert lmc2.verify_deadlock_free()


def test_layers_cover_all_planes(fabric, lmc2):
    expected = 4 * fabric.num_switches * fabric.num_terminals
    assert len(lmc2.path_layers) == expected


def test_plane_for_is_deterministic_and_spread(fabric, lmc2):
    terms = [int(t) for t in fabric.terminals[:8]]
    planes = {lmc2.plane_for(terms[0], d) for d in terms[1:]}
    assert len(planes) >= 2  # destinations spread over planes
    assert lmc2.plane_for(terms[0], terms[1]) == lmc2.plane_for(terms[0], terms[1])


def test_plane_for_rejects_switches(fabric, lmc2):
    with pytest.raises(RoutingError):
        lmc2.plane_for(int(fabric.switches[0]), int(fabric.terminals[0]))


def test_striping_improves_worst_flow(fabric, lmc2):
    """The headline LMC effect: tail bandwidth under adversarial shifts."""
    single = DFSSSPEngine().route(fabric)
    sim1 = CongestionSimulator(single.tables)
    sim2 = MultipathCongestionSimulator(lmc2, mode="stripe")
    pattern = shift_pattern(fabric, 1)
    worst_single = sim1.evaluate(pattern).min_bandwidth
    worst_striped = sim2.evaluate(pattern).min_bandwidth
    assert worst_striped >= worst_single


def test_select_mode_runs(fabric, lmc2):
    sim = MultipathCongestionSimulator(lmc2, mode="select")
    pattern = shift_pattern(fabric, 3)
    bw = sim.evaluate(pattern).flow_bandwidth
    assert (bw > 0).all() and (bw <= 1.0 + 1e-9).all()


def test_ebb_estimator(fabric, lmc2):
    sim = MultipathCongestionSimulator(lmc2)
    ebb = sim.effective_bisection_bandwidth(5, seed=0)
    assert 0 < ebb.ebb <= 1.0


def test_invalid_parameters(fabric, lmc2):
    with pytest.raises(ValueError):
        MultipathDFSSSPEngine(lmc=4)
    with pytest.raises(SimulationError):
        MultipathCongestionSimulator(lmc2, mode="anycast")
    sim = MultipathCongestionSimulator(lmc2)
    with pytest.raises(SimulationError):
        sim.evaluate([])


def test_concatenated_paths_indexing(fabric, lmc2):
    combined = lmc2.combined_paths()
    plane_size = combined.plane_size
    for plane in range(4):
        pid = plane * plane_size + 7
        assert (combined.path(pid) == lmc2.path_sets[plane].path(7)).all()


def test_concatenated_paths_validation(fabric):
    with pytest.raises(RoutingError):
        ConcatenatedPaths([])


@pytest.mark.parametrize(
    "make",
    [
        lambda: topologies.ranger(scale=0.1),  # breaks 750-821 cycles
        lambda: topologies.random_topology(24, 60, 2, seed=9),
        lambda: topologies.torus((4, 4), 2),
    ],
    ids=["ranger", "random", "torus"],
)
def test_layers_equal_the_rebuild_reference(make):
    """The engine layers the union of planes with the incremental
    Algorithm 2; the dict-backed reference over the same concatenated
    paths must give the very same assignment."""
    fabric = make()
    for lmc in (0, 1, 2):
        routing = MultipathDFSSSPEngine(lmc=lmc).route(fabric)
        combined = ConcatenatedPaths(routing.path_sets)
        ref = assign_layers_offline(combined, pids=combined.active_pids())
        np.testing.assert_array_equal(routing.path_layers, ref.path_layers)
        assert routing.stats["layers_needed"] == ref.layers_needed
        assert routing.stats["cycles_broken"] == ref.cycles_broken
        assert routing.verify_deadlock_free()


@pytest.mark.parametrize(
    "make, lmc",
    [
        (lambda: topologies.ranger(scale=0.1), 1),
        (lambda: topologies.ranger(scale=0.1), 2),
        (lambda: topologies.xgft(3, (4, 4, 4), (1, 2, 2)), 2),
    ],
    ids=["ranger-lmc1", "ranger-lmc2", "xgft-lmc2"],
)
def test_production_step_equals_the_heap_step(monkeypatch, make, lmc):
    """The planes run the engines' production step; swapping in the heap
    Dijkstra reference changes no plane, no layer and, once the last
    column is routed, no balancing weight."""
    fabric = make()
    kernels, weights = [], []
    real = reduction_mod.column_routine

    def recording(fab, kernel, name, order):
        kernels.append(kernel)
        step, reduction = real(fab, kernel, name, order)

        def step_and_keep(dest, w):
            if not weights or weights[-1] is not w:
                weights.append(w)
            return step(dest, w)

        return step_and_keep, reduction

    monkeypatch.setattr(reduction_mod, "column_routine", recording)
    got = MultipathDFSSSPEngine(lmc=lmc).route(fabric)
    monkeypatch.setattr(multipath_mod, "DEFAULT_KERNEL", "python")
    want = MultipathDFSSSPEngine(lmc=lmc).route(fabric)
    assert kernels == ["numpy", "python"]
    assert len(weights) == 2
    np.testing.assert_array_equal(weights[0], weights[1])
    for k, (a, b) in enumerate(zip(got.planes, want.planes)):
        np.testing.assert_array_equal(a.next_channel, b.next_channel, err_msg=f"plane {k}")
    np.testing.assert_array_equal(got.path_layers, want.path_layers)
    assert got.stats == want.stats


def test_verify_rejects_a_cyclic_layering():
    """Every path on layer 0 of a ring: the union's CDG has a cycle, so
    the check must say no (not only ever yes)."""
    routing = MultipathDFSSSPEngine(lmc=1).route(topologies.ring(5, 2))
    assert routing.stats["cycles_broken"] > 0
    assert routing.verify_deadlock_free()
    cyclic = MultipathRouting(
        routing.fabric,
        routing.planes,
        routing.path_sets,
        np.zeros_like(routing.path_layers),
        routing.num_layers,
        routing.stats,
    )
    assert not cyclic.verify_deadlock_free()


def test_select_mode_uses_each_flows_plane(fabric, lmc2):
    """A select-mode flow's bandwidth is that of its plane's single-path
    simulator on the same pattern, when no other plane carries traffic."""
    pattern = shift_pattern(fabric, 5)
    planes = lmc2.plane_for(*np.array(pattern).T)
    result = MultipathCongestionSimulator(lmc2, mode="select").evaluate(pattern)
    load = np.zeros(fabric.num_channels, dtype=np.int64)
    for k, (tables, paths) in enumerate(zip(lmc2.planes, lmc2.path_sets)):
        mine = [p for p, plane in zip(pattern, planes) if plane == k]
        if mine:
            load += CongestionSimulator(tables, paths).evaluate(mine).channel_load
    np.testing.assert_array_equal(result.channel_load, load)
    assert result.channel_load.dtype == np.int64
