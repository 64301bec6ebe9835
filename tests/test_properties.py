"""Property-based tests (hypothesis) on the core invariants.

These are the library's load-bearing guarantees, checked over randomly
generated inputs:

* DFSSSP is deadlock-free on arbitrary connected topologies;
* SSSP paths are hop-minimal on arbitrary topologies;
* the APP exact solver's minimum equals the chromatic number through the
  Theorem 1 transformation, for arbitrary small graphs;
* fabric serialization round-trips;
* incremental repair is equivalent to a full reroute (reachability and
  hop-minimality) and keeps DFSSSP deadlock-free across fault streams.
"""


from hypothesis import HealthCheck, given, settings, strategies as st

from repro import topologies
from repro.core import (
    DFSSSPEngine,
    SSSPEngine,
    chromatic_number,
    coloring_to_app,
    minimum_cover,
)
from repro.deadlock import verify_deadlock_free
from repro.network import fabric_from_dict, fabric_to_dict
from repro.routing import extract_paths, path_minimality_violations

_slow = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

random_topo_params = st.tuples(
    st.integers(min_value=4, max_value=12),  # switches
    st.integers(min_value=0, max_value=14),  # extra links beyond the tree
    st.integers(min_value=1, max_value=3),  # terminals per switch
    st.integers(min_value=0, max_value=10_000),  # seed
)


@_slow
@given(random_topo_params)
def test_dfsssp_always_deadlock_free(params):
    s, extra, tps, seed = params
    links = min(s - 1 + extra, s * (s - 1) // 2)
    fabric = topologies.random_topology(s, links, tps, seed=seed)
    result = DFSSSPEngine(max_layers=16).route(fabric)
    paths = extract_paths(result.tables)
    assert verify_deadlock_free(result.layered, paths).deadlock_free


@_slow
@given(random_topo_params)
def test_sssp_always_minimal(params):
    s, extra, tps, seed = params
    links = min(s - 1 + extra, s * (s - 1) // 2)
    fabric = topologies.random_topology(s, links, tps, seed=seed)
    result = SSSPEngine().route(fabric)
    paths = extract_paths(result.tables)
    assert path_minimality_violations(result.tables, paths) == 0


@_slow
@given(random_topo_params)
def test_layer_assignment_partitions_paths(params):
    s, extra, tps, seed = params
    links = min(s - 1 + extra, s * (s - 1) // 2)
    fabric = topologies.random_topology(s, links, tps, seed=seed)
    result = DFSSSPEngine(max_layers=16).route(fabric)
    hist = result.layered.layer_histogram()
    assert hist.sum() == fabric.num_switches * fabric.num_terminals


small_graph = st.builds(
    lambda n, edges: (n, [(a % n, b % n) for a, b in edges if a % n != b % n]),
    st.integers(min_value=1, max_value=5),
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=8
    ),
)


@settings(max_examples=30, deadline=None)
@given(small_graph)
def test_theorem1_equivalence_on_random_graphs(graph):
    n, edges = graph
    nodes = list(range(n))
    chi = chromatic_number(nodes, edges)
    instance, _order = coloring_to_app(nodes, edges)
    k, witness = minimum_cover(instance)
    assert k == chi
    assert instance.is_cover(witness)


@_slow
@given(random_topo_params)
def test_fabric_dict_roundtrip(params):
    s, extra, tps, seed = params
    links = min(s - 1 + extra, s * (s - 1) // 2)
    fabric = topologies.random_topology(s, links, tps, seed=seed)
    loaded = fabric_from_dict(fabric_to_dict(fabric))
    assert loaded.num_nodes == fabric.num_nodes
    assert loaded.num_channels == fabric.num_channels
    assert (loaded.kinds == fabric.kinds).all()
    # Degree sequence is preserved (cables as a multiset).
    for v in range(fabric.num_nodes):
        assert loaded.degree(v) == fabric.degree(v)


repair_params = st.tuples(
    st.integers(min_value=6, max_value=12),  # switches
    st.integers(min_value=3, max_value=12),  # extra links beyond the tree
    st.integers(min_value=1, max_value=3),  # terminals per switch
    st.integers(min_value=0, max_value=1_000),  # topology seed
    st.integers(min_value=0, max_value=1_000),  # fault seed
)


@_slow
@given(repair_params)
def test_incremental_repair_equivalent_to_full_reroute(params):
    from hypothesis import assume

    from repro.exceptions import ReproError
    from repro.network import fail_links
    from repro.network.validate import check_routable
    from repro.resilience import repair_routing

    s, extra, tps, seed, fseed = params
    links = min(s - 1 + extra, s * (s - 1) // 2)
    fabric = topologies.random_topology(s, links, tps, seed=seed)
    degraded = fail_links(fabric, 1, seed=fseed)
    try:
        check_routable(degraded.fabric)
    except ReproError:
        assume(False)  # this pick disconnected the fabric; not repairable by anyone
    engine = SSSPEngine()
    prior = engine.route(fabric)
    repaired = repair_routing(prior, degraded, engine_name="sssp")
    full = engine.route(degraded.fabric)
    paths_r = extract_paths(repaired.tables)  # raises if any pair is unreached
    paths_f = extract_paths(full.tables)
    # Reachability and hop-minimality match a from-scratch reroute exactly.
    assert (paths_r.lengths() == paths_f.lengths()).all()
    assert path_minimality_violations(repaired.tables, paths_r) == 0


@_slow
@given(
    st.integers(min_value=0, max_value=1_000),  # topology seed
    st.integers(min_value=0, max_value=1_000),  # stream seed
)
def test_repair_stays_deadlock_free_across_fault_streams(seed, stream_seed):
    from repro.resilience import FaultInjector, relative_degradation

    fabric = topologies.random_topology(10, 24, 2, seed=seed)
    engine = DFSSSPEngine()
    result = engine.route(fabric)
    injector = FaultInjector(fabric, seed=stream_seed)
    prev = injector.current
    for _ in range(4):
        stepped = injector.step()
        if stepped is None:
            break
        _, cur = stepped
        # reroute() repairs incrementally and falls back to a full DFSSSP
        # run when it must (link-up, layer budget) — either way the result
        # must verify deadlock-free and hop-minimal after every event.
        result = engine.reroute(result, relative_degradation(prev, cur))
        paths = extract_paths(result.tables)
        assert verify_deadlock_free(result.layered, paths).deadlock_free
        assert path_minimality_violations(result.tables, paths) == 0
        prev = cur


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=3, max_value=9),
    st.integers(min_value=1, max_value=4),
)
def test_ring_dfsssp_needs_at_most_two_layers(n, shift):
    """Uni-ring cycles always split with 2 layers (known tight bound)."""
    fabric = topologies.ring(n, 1)
    result = DFSSSPEngine(balance=False).route(fabric)
    assert result.stats["layers_needed"] <= 2
