"""Differential suite: incremental CSR engine vs the rebuild reference.

The contract (``repro.deadlock.incremental``) is *bit-identical* layer
assignments — not merely "both acyclic" — across every topology family,
every heuristic, and after faults. ``debug=True`` additionally
cross-checks the CSR delta state against a from-scratch dict CDG after
every eviction, so a drift in the vectorized bookkeeping fails loudly
here rather than surfacing as a subtly different assignment.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import topologies
from repro.core import DFSSSPEngine, SSSPEngine
from repro.core.layers import assign_layers_offline
from repro.deadlock import (
    LayerCDG,
    assign_layers_incremental,
    verify_deadlock_free,
)
from repro.exceptions import ComputeTimeoutError, InsufficientLayersError, ReproError
from repro.network.faults import cable_keys, degrade
from repro.obs import MetricsRegistry, get_hooks, set_registry
from repro.routing import extract_paths
from repro.routing.base import LayeredRouting
from repro.service.budget import compute_budget

# Seven distinct families (the acceptance floor), small enough to keep
# the full matrix fast but each with a genuinely different CDG shape.
FAMILIES = {
    "ring": lambda: topologies.ring(8, terminals_per_switch=1),
    "torus": lambda: topologies.torus((3, 3), terminals_per_switch=1),
    "mesh": lambda: topologies.mesh((3, 3), terminals_per_switch=1),
    "hypercube": lambda: topologies.hypercube(4, terminals_per_switch=1),
    "xgft": lambda: topologies.xgft(2, (4, 4), (1, 4)),
    "dragonfly": lambda: topologies.dragonfly(4, 2, 2),
    "random": lambda: topologies.random_topology(16, 40, 2, seed=13),
}

HEURISTICS = ("weakest", "strongest", "first")


def _paths_for(fabric):
    tables = SSSPEngine().route(fabric).tables
    return extract_paths(tables)


def _tables_and_paths(fabric):
    tables = SSSPEngine().route(fabric).tables
    return tables, extract_paths(tables)


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def family_paths(request):
    fabric = FAMILIES[request.param]()
    return request.param, _paths_for(fabric)


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_bit_identical_assignments(family_paths, heuristic):
    name, paths = family_paths
    pids = paths.active_pids()
    ref = assign_layers_offline(paths, heuristic=heuristic, pids=pids)
    inc = assign_layers_incremental(paths, heuristic=heuristic, pids=pids, debug=True)
    np.testing.assert_array_equal(
        inc.path_layers, ref.path_layers,
        err_msg=f"{name}/{heuristic}: incremental diverged from rebuild reference",
    )
    assert inc.layers_needed == ref.layers_needed
    assert inc.cycles_broken == ref.cycles_broken
    assert inc.paths_moved == ref.paths_moved


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_bit_identical_without_balancing(family_paths, heuristic):
    name, paths = family_paths
    pids = paths.active_pids()
    ref = assign_layers_offline(paths, heuristic=heuristic, balance=False, pids=pids)
    inc = assign_layers_incremental(paths, heuristic=heuristic, balance=False, pids=pids)
    np.testing.assert_array_equal(
        inc.path_layers, ref.path_layers,
        err_msg=f"{name}/{heuristic} (balance=False): engines diverged",
    )


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_incremental_result_is_deadlock_free(family):
    tables, paths = _tables_and_paths(FAMILIES[family]())
    assignment = assign_layers_incremental(paths, pids=paths.active_pids())
    layered = LayeredRouting(tables, assignment.path_layers, assignment.num_layers)
    report = verify_deadlock_free(layered, paths)
    assert report.deadlock_free, report.failure_summary()


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_bit_identical_after_fault(heuristic):
    """Post-fault full reroutes agree too (degraded CDGs have different
    shapes — missing channels renumber nothing but delete edge runs)."""
    fabric = topologies.random_topology(14, 34, 2, seed=7)
    switch_cables = [
        key
        for key in cable_keys(fabric)
        if fabric.is_switch(int(fabric.channels.src[key[0]]))
        and fabric.is_switch(int(fabric.channels.dst[key[0]]))
    ]
    degraded = degrade(fabric, dead_cables=switch_cables[:2]).fabric
    paths = _paths_for(degraded)
    pids = paths.active_pids()
    ref = assign_layers_offline(paths, heuristic=heuristic, pids=pids)
    inc = assign_layers_incremental(paths, heuristic=heuristic, pids=pids, debug=True)
    np.testing.assert_array_equal(inc.path_layers, ref.path_layers)


@pytest.mark.parametrize("cdg", ("incremental", "rebuild"))
def test_engine_reroute_matches_across_cdg_engines(cdg):
    """DFSSSPEngine-level check: route + reroute under each cdg engine
    produce the same layered result as the opposite engine."""
    fabric = topologies.torus((3, 3), terminals_per_switch=1)
    engine = DFSSSPEngine(cdg=cdg)
    other = DFSSSPEngine(cdg="rebuild" if cdg == "incremental" else "incremental")
    result = engine.route(fabric)
    expect = other.route(fabric)
    np.testing.assert_array_equal(
        result.layered.path_layers, expect.layered.path_layers
    )
    assert result.stats["cdg"] == cdg

    switch_cables = [
        key
        for key in cable_keys(fabric)
        if fabric.is_switch(int(fabric.channels.src[key[0]]))
        and fabric.is_switch(int(fabric.channels.dst[key[0]]))
    ]
    degraded = degrade(fabric, dead_cables=[switch_cables[0]])
    rerouted = engine.reroute(result, degraded)
    expect_rr = other.reroute(expect, degraded)
    np.testing.assert_array_equal(
        rerouted.tables.next_channel, expect_rr.tables.next_channel
    )
    np.testing.assert_array_equal(
        rerouted.layered.path_layers, expect_rr.layered.path_layers
    )


def test_layer_cdg_matches_reference_build():
    """The vectorized CSR build agrees with the dict CDG edge-for-edge."""
    from repro.deadlock.cdg import ChannelDependencyGraph

    paths = _paths_for(topologies.dragonfly(4, 2, 2))
    pids = np.asarray(paths.active_pids(), dtype=np.int64)
    cdg = LayerCDG(paths, pids)
    ref = ChannelDependencyGraph(paths.fabric)
    for pid in pids.tolist():
        ref.add_path(pid, paths.path(pid))
    assert cdg.num_edges == ref.num_edges
    assert cdg.num_paths == ref.num_paths
    for c1, row in ref.succ.items():
        for c2, ref_pids in row.items():
            assert cdg.edge_weight(c1, c2) == len(ref_pids)
            assert sorted(cdg.pids_of_edge(c1, c2)) == sorted(ref_pids)
    assert sorted(cdg.nodes()) == sorted(ref.nodes())


def test_evict_edge_moves_exactly_the_inducing_paths():
    paths = _paths_for(topologies.ring(8, terminals_per_switch=1))
    pids = np.asarray(paths.active_pids(), dtype=np.int64)
    cdg = LayerCDG(paths, pids)
    membership_edges = [e for e, _w in _edges_of(cdg)]
    c1, c2 = membership_edges[0]
    expect = sorted(cdg.pids_of_edge(c1, c2))
    before = cdg.num_paths
    movers, _dead = cdg.evict_edge(c1, c2)
    assert sorted(movers) == expect
    assert cdg.num_paths == before - len(expect)
    assert cdg.edge_weight(c1, c2) == 0


def _edges_of(cdg):
    out = []
    for i in range(len(cdg.alive)):
        if cdg.alive[i]:
            out.append(((int(cdg.edge_src[i]), int(cdg.edge_dst[i])), int(cdg.weight[i])))
    return out


def test_pids_must_be_strictly_increasing():
    from repro.exceptions import ReproError

    paths = _paths_for(topologies.ring(6, terminals_per_switch=1))
    with pytest.raises(ReproError, match="strictly increasing"):
        LayerCDG(paths, np.array([3, 1, 2], dtype=np.int64))


def test_unknown_heuristic_rejected():
    paths = _paths_for(topologies.ring(6, terminals_per_switch=1))
    with pytest.raises(ValueError, match="unknown heuristic"):
        assign_layers_incremental(paths, heuristic="bogus")


# ----------------------------------------------------------------------
# The fused drain (LayerCDG.drain): same evictions, event for event
# ----------------------------------------------------------------------
@contextmanager
def _evictions():
    """Collect ``(layer, edge, paths_moved)`` per ``cycle_broken`` event."""
    events = []
    hooks = get_hooks()
    handler = hooks.on_cycle_broken(
        lambda d: events.append((d["layer"], tuple(d["edge"]), d["paths_moved"]))
    )
    try:
        yield events
    finally:
        hooks.unsubscribe("cycle_broken", handler)


@pytest.fixture()
def fresh_registry():
    reg = MetricsRegistry()
    old = set_registry(reg)
    yield reg
    set_registry(old)


def _stream(assign, paths, **kwargs):
    with _evictions() as events:
        assign(paths, pids=paths.active_pids(), **kwargs)
    return events


@pytest.mark.parametrize("heuristic", HEURISTICS)
def test_eviction_stream_is_identical_across_engines(family_paths, heuristic):
    """Stronger than end-state equality: both engines break the same
    cycles in the same order and move the same number of paths each time."""
    name, paths = family_paths
    ref = _stream(assign_layers_offline, paths, heuristic=heuristic)
    inc = _stream(assign_layers_incremental, paths, heuristic=heuristic)
    assert inc == ref, f"{name}/{heuristic}: incremental stream diverged"


def test_budget_expiring_mid_drain_leaves_exact_counters(fresh_registry):
    """A deadline that passes after N cycles raises from inside the
    drain, and the per-component counter flush still reads exactly N."""
    paths = _paths_for(FAMILIES["random"]())
    n = 3
    with _evictions() as events, pytest.raises(ComputeTimeoutError):
        # the clock advances one tick per broken cycle
        with compute_budget(n, label="drain", clock=lambda: len(events)):
            assign_layers_incremental(paths, pids=paths.active_pids())
    reg = fresh_registry
    assert len(events) == n
    assert reg.value("dfsssp_cycles_broken") == n
    assert reg.value("dfsssp_edges_evicted", heuristic="weakest") == n
    assert reg.value("dfsssp_paths_moved") == sum(moved for _, _, moved in events)
    assert reg.value("cdg_incremental_edges_removed") > 0


@pytest.mark.parametrize(
    "make",
    (
        FAMILIES["ring"],  # two layers: the very first cycle overflows
        FAMILIES["dragonfly"],
        lambda: topologies.torus((4, 4), terminals_per_switch=1),
        lambda: topologies.random_topology(24, 60, 2, seed=3),
    ),
)
def test_insufficient_layers_raised_at_the_same_cycle(make):
    paths = _paths_for(make())
    pids = paths.active_pids()
    needed = assign_layers_offline(paths, pids=pids, max_layers=16).layers_needed
    assert needed >= 2
    streams = []
    for assign in (assign_layers_offline, assign_layers_incremental):
        with _evictions() as events, pytest.raises(InsufficientLayersError) as err:
            assign(paths, pids=pids, max_layers=needed - 1)
        assert err.value.layers_available == needed - 1
        streams.append(events)
    assert streams[0] == streams[1]
    assert streams[0] or needed == 2


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(min_value=4, max_value=10),  # switches
    st.integers(min_value=0, max_value=12),  # extra links beyond the tree
    st.integers(min_value=1, max_value=2),  # terminals per switch
    st.integers(min_value=0, max_value=10_000),  # fabric seed
    st.sampled_from(HEURISTICS),
)
def test_random_fabrics_match_reference_under_debug(s, extra, tps, seed, heuristic):
    links = min(s - 1 + extra, s * (s - 1) // 2)
    paths = _paths_for(topologies.random_topology(s, links, tps, seed=seed))
    pids = paths.active_pids()
    with _evictions() as want:
        ref = assign_layers_offline(paths, heuristic=heuristic, pids=pids, max_layers=16)
    with _evictions() as got:
        inc = assign_layers_incremental(
            paths, heuristic=heuristic, pids=pids, max_layers=16, debug=True
        )
    assert got == want
    np.testing.assert_array_equal(inc.path_layers, ref.path_layers)


@pytest.mark.parametrize("family", ("ring", "mesh", "hypercube", "dragonfly", "random"))
def test_walk_pointers_only_advance_past_unusable_edges(family):
    """The drain never re-scans an adjacency: what a pointer skipped is
    dead or leads out of the component's final membership for good."""
    paths = _paths_for(FAMILIES[family]())
    cdg = LayerCDG(paths, np.asarray(paths.active_pids(), dtype=np.int64))
    sccs = cdg.condense()
    assert sccs
    cdg.drain(sccs, 0, 16, "weakest")
    first = cdg._first
    for comp in sccs:
        stamp = min(comp) + 1
        final = {c for c in comp if cdg._member[c] == stamp}
        assert len(final) < 2  # drained
        for c in comp:
            assert first[c] <= cdg._ptr[c] <= first[c + 1]
            for e in range(first[c], cdg._ptr[c]):
                assert not cdg.alive[e] or cdg._dst[e] not in final
    assert not len(cdg.certify_core())


def test_evicting_an_unknown_or_dead_edge_is_an_error():
    paths = _paths_for(topologies.ring(8, terminals_per_switch=1))
    cdg = LayerCDG(paths, np.asarray(paths.active_pids(), dtype=np.int64))
    (c1, c2), _w = _edges_of(cdg)[0]
    with pytest.raises(ReproError, match=r"\(0, 0\)"):
        cdg.evict_edge(0, 0)  # a CDG has no self-loops
    assert cdg.evict_edge(c1, c2)[0]
    with pytest.raises(ReproError, match=rf"\({c1}, {c2}\)"):
        cdg.evict_edge(c1, c2)


def test_drain_rejects_a_cycle_edge_nobody_induces():
    """Corrupted state (paths deactivated behind the CDG's back) must
    raise, not spin or pass an `assert` that ``python -O`` strips."""
    paths = _paths_for(topologies.ring(8, terminals_per_switch=1))
    cdg = LayerCDG(paths, np.asarray(paths.active_pids(), dtype=np.int64))
    sccs = cdg.condense()
    cdg._active[:] = bytes(len(cdg._active))
    with pytest.raises(ReproError, match="without inducing paths"):
        cdg.drain(sccs, 0, 16, "weakest")
