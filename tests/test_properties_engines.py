"""Property-based tests over the comparison engines and simulators.

Complements ``test_properties.py`` (which covers the core DFSSSP/APP
invariants) with the guarantees the rest of the system leans on:

* Up*/Down* realized routes are always legal up*-down* sequences and its
  layer is always acyclic, on arbitrary random fabrics;
* LASH is always deadlock-free and minimal;
* congestion accounting conserves flow-hop counts exactly.

The packet-level drain on random fabrics is a property of the DES
(``tests/des/test_properties.py``).
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro import topologies
from repro.core import DFSSSPEngine
from repro.deadlock import verify_deadlock_free
from repro.routing import (
    LASHEngine,
    UpDownEngine,
    extract_paths,
    path_minimality_violations,
    rank_switches,
)
from repro.simulator import CongestionSimulator, bisection_pattern

_slow = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

random_topo_params = st.tuples(
    st.integers(min_value=4, max_value=11),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=10_000),
)


def _fabric(params):
    s, extra, tps, seed = params
    links = min(s - 1 + extra, s * (s - 1) // 2)
    return topologies.random_topology(s, links, tps, seed=seed)


@_slow
@given(random_topo_params)
def test_updown_routes_always_legal(params):
    fabric = _fabric(params)
    result = UpDownEngine().route(fabric)
    rank, _root = rank_switches(fabric)
    paths = extract_paths(result.tables)
    for pid in range(paths.num_paths):
        went_down = False
        for c in paths.path(pid):
            u = int(fabric.channels.src[c])
            v = int(fabric.channels.dst[c])
            if not (fabric.is_switch(u) and fabric.is_switch(v)):
                continue
            down = (rank[v], v) > (rank[u], u)
            assert not (went_down and not down), "down->up transition"
            went_down = went_down or down
    assert verify_deadlock_free(result.layered, paths).deadlock_free


@_slow
@given(random_topo_params)
def test_lash_always_deadlock_free_and_minimal(params):
    fabric = _fabric(params)
    result = LASHEngine(max_layers=16).route(fabric)
    paths = extract_paths(result.tables)
    assert verify_deadlock_free(result.layered, paths).deadlock_free
    assert path_minimality_violations(result.tables, paths) == 0


@_slow
@given(random_topo_params)
def test_congestion_conserves_flow_hops(params):
    """Sum of channel loads == total hops over all flows, exactly."""
    fabric = _fabric(params)
    if fabric.num_terminals < 4:
        return
    result = DFSSSPEngine().route(fabric)
    sim = CongestionSimulator(result.tables)
    pattern = bisection_pattern(fabric, seed=1)
    res = sim.evaluate(pattern)
    total_hops = sum(
        len(result.tables.path_channels(s, d)) for s, d in pattern
    )
    assert int(res.channel_load.sum()) == total_hops
    assert (res.flow_bandwidth <= 1.0 + 1e-12).all()
    assert (res.flow_bandwidth > 0).all()

