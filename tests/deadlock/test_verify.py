"""Deadlock-freedom verification, cross-checked against networkx."""


import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import topologies
from repro.core import DFSSSPEngine, SSSPEngine
from repro.deadlock import (
    build_layer_cdgs,
    verify_deadlock_free,
    verify_with_networkx,
)
from repro.deadlock.cycles import tarjan_sccs
from repro.exceptions import ComputeTimeoutError
from repro.obs import MetricsRegistry, set_registry
from repro.routing import LASHEngine, MinHopEngine, extract_paths
from repro.routing.base import LayeredRouting
from repro.service.budget import compute_budget


def test_sssp_ring_is_cyclic(sssp_ring5, ring5):
    paths = extract_paths(sssp_ring5.tables)
    layered = LayeredRouting.single_layer(sssp_ring5.tables)
    report = verify_deadlock_free(layered, paths)
    assert not report.deadlock_free
    assert 0 in report.cycles
    assert len(report.cycles[0]) >= 3
    assert verify_with_networkx(layered, paths) is False


def test_dfsssp_ring_is_acyclic(dfsssp_ring5, ring5):
    paths = extract_paths(dfsssp_ring5.tables)
    report = verify_deadlock_free(dfsssp_ring5.layered, paths)
    assert report.deadlock_free
    assert report.cycles == {}
    assert verify_with_networkx(dfsssp_ring5.layered, paths)


def test_report_counts_paths_and_edges(dfsssp_random16, paths_dfsssp_random16):
    report = verify_deadlock_free(dfsssp_random16.layered, paths_dfsssp_random16)
    assert sum(report.paths_per_layer) == paths_dfsssp_random16.num_paths
    assert len(report.edges_per_layer) == dfsssp_random16.num_layers


def test_build_layer_cdgs_partitions_paths(dfsssp_random16, paths_dfsssp_random16):
    cdgs = build_layer_cdgs(dfsssp_random16.layered, paths_dfsssp_random16)
    assert sum(c.num_paths for c in cdgs) == paths_dfsssp_random16.num_paths


def test_witness_cycle_is_real(sssp_ring5, ring5):
    paths = extract_paths(sssp_ring5.tables)
    layered = LayeredRouting.single_layer(sssp_ring5.tables)
    report = verify_deadlock_free(layered, paths)
    cycle = report.cycles[0]
    cdgs = build_layer_cdgs(layered, paths)
    for a, b in cycle:
        assert cdgs[0].has_edge(a, b)
    # closed
    assert cycle[-1][1] == cycle[0][0]


def test_networkx_cross_validation_on_many_engines():
    fab = topologies.random_topology(10, 24, 2, seed=3)
    for engine in (MinHopEngine(), SSSPEngine(), LASHEngine(), DFSSSPEngine()):
        result = engine.route(fab)
        paths = extract_paths(result.tables)
        layered = result.layered or LayeredRouting.single_layer(result.tables)
        ours = verify_deadlock_free(layered, paths).deadlock_free
        theirs = verify_with_networkx(layered, paths)
        assert ours == theirs, f"{engine.name}: ours={ours}, networkx={theirs}"


def test_report_is_truthy_when_free(dfsssp_ring5):
    paths = extract_paths(dfsssp_ring5.tables)
    report = verify_deadlock_free(dfsssp_ring5.layered, paths)
    assert bool(report)


def test_traffic_only_excludes_spine_sourced_paths(ktree42):
    """Verification counts only CA-to-CA dependencies by default."""
    from repro.routing import MinHopEngine

    result = MinHopEngine().route(ktree42)
    paths = extract_paths(result.tables)
    layered = LayeredRouting.single_layer(result.tables)
    cdgs_traffic = build_layer_cdgs(layered, paths, traffic_only=True)
    cdgs_all = build_layer_cdgs(layered, paths, traffic_only=False)
    assert cdgs_traffic[0].num_paths < cdgs_all[0].num_paths
    report = verify_deadlock_free(layered, paths)
    assert report.paths_per_layer == [cdgs_traffic[0].num_paths]
    assert report.edges_per_layer == [cdgs_traffic[0].num_edges]
    # On a tree both views are acyclic anyway.
    assert report.deadlock_free
    assert verify_with_networkx(layered, paths, traffic_only=False)


# ----------------------------------------------------------------------
# Array verify vs the dict reference vs networkx
# ----------------------------------------------------------------------
def _verify_reference(layered, paths):
    """The dict-CDG verifier the array one replaced: every layer rebuilt
    path by path; a layer is cyclic iff Tarjan finds a non-trivial SCC
    (real paths induce no self-loops)."""
    cdgs = build_layer_cdgs(layered, paths, traffic_only=True)
    cyclic = [
        layer for layer, cdg in enumerate(cdgs) if tarjan_sccs(cdg.nodes(), cdg.successors)
    ]
    return cyclic, [c.num_edges for c in cdgs], [c.num_paths for c in cdgs], cdgs


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(min_value=4, max_value=12),  # switches
    st.integers(min_value=0, max_value=14),  # extra links beyond the tree
    st.integers(min_value=1, max_value=3),  # terminals per switch
    st.integers(min_value=0, max_value=10_000),  # fabric seed
    st.integers(min_value=1, max_value=4),  # layers
    st.integers(min_value=0, max_value=10_000),  # layer-assignment seed
)
def test_array_verify_matches_dict_reference_and_networkx(
    s, extra, tps, seed, num_layers, layer_seed
):
    """Random layer assignments over SSSP tables: mostly cyclic with one
    layer, increasingly acyclic with more — both verdicts get exercised.
    The verifier counts traffic-carrying paths only; the oracles are told
    so (``traffic_only=True``)."""
    links = min(s - 1 + extra, s * (s - 1) // 2)
    fabric = topologies.random_topology(s, links, tps, seed=seed)
    tables = SSSPEngine().route(fabric).tables
    paths = extract_paths(tables)
    rng = np.random.default_rng(layer_seed)
    layered = LayeredRouting(
        tables, rng.integers(0, num_layers, paths.num_paths).astype(np.int16), num_layers
    )

    report = verify_deadlock_free(layered, paths)
    cyclic, edges, counts, cdgs = _verify_reference(layered, paths)

    assert report.deadlock_free == (not cyclic)
    assert report.deadlock_free == verify_with_networkx(layered, paths, traffic_only=True)
    assert list(report.edges_per_layer) == edges
    assert list(report.paths_per_layer) == counts
    assert sorted(report.cycles) == cyclic
    for layer, cycle in report.cycles.items():
        assert len(cycle) >= 2
        for (a, b), (c, _) in zip(cycle, cycle[1:] + cycle[:1]):
            assert cdgs[layer].has_edge(a, b)
            assert b == c  # consecutive edges chain, and the last closes the loop


def test_verify_does_not_touch_the_dict_cdg_when_acyclic(dfsssp_random16, paths_dfsssp_random16):
    """``cdg_paths_added`` counts dict-CDG insertions: the verdict comes
    from the arrays alone, and so does a cyclic layer's witness."""
    reg = MetricsRegistry()
    old = set_registry(reg)
    try:
        assert verify_deadlock_free(dfsssp_random16.layered, paths_dfsssp_random16).deadlock_free
        assert not reg.value("cdg_paths_added")
        one_layer = LayeredRouting.single_layer(dfsssp_random16.tables)
        assert not verify_deadlock_free(one_layer, paths_dfsssp_random16).deadlock_free
        assert not reg.value("cdg_paths_added")
    finally:
        set_registry(old)


def test_verify_polls_the_compute_budget(dfsssp_random16, paths_dfsssp_random16):
    with pytest.raises(ComputeTimeoutError):
        with compute_budget(0.0, label="verify"):
            verify_deadlock_free(dfsssp_random16.layered, paths_dfsssp_random16)
