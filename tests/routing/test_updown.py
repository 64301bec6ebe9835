"""Up*/Down*: legality of realized routes, deadlock-freedom, completeness."""

import pytest

from repro import topologies
from repro.deadlock import verify_deadlock_free, verify_with_networkx
from repro.exceptions import RoutingError
from repro.routing import UpDownEngine, extract_paths, rank_switches


def _assert_up_down_legal(fabric, tables, rank):
    """Every realized switch-level path must be up* down*."""
    paths = extract_paths(tables)
    for pid in range(paths.num_paths):
        chans = paths.path(pid)
        went_down = False
        for c in chans:
            u = int(fabric.channels.src[c])
            v = int(fabric.channels.dst[c])
            if not (fabric.is_switch(u) and fabric.is_switch(v)):
                continue
            down = (rank[v], v) > (rank[u], u)
            if down:
                went_down = True
            elif went_down:
                pytest.fail(f"path {pid} goes up after down: {list(chans)}")


@pytest.mark.parametrize(
    "fabric_factory",
    [
        lambda: topologies.ring(6, 1),
        lambda: topologies.torus((3, 3), 1),
        lambda: topologies.kary_ntree(3, 2),
        lambda: topologies.random_topology(10, 22, 2, seed=11),
        lambda: topologies.kautz(2, 2, 12),
    ],
)
def test_realized_routes_are_legal(fabric_factory):
    fabric = fabric_factory()
    result = UpDownEngine().route(fabric)
    rank, _root = rank_switches(fabric)
    _assert_up_down_legal(fabric, result.tables, rank)


@pytest.mark.parametrize("seed", range(4))
def test_deadlock_free_on_random_topologies(seed):
    fabric = topologies.random_topology(12, 26, 2, seed=seed)
    result = UpDownEngine().route(fabric)
    paths = extract_paths(result.tables)
    report = verify_deadlock_free(result.layered, paths)
    assert report.deadlock_free
    assert verify_with_networkx(result.layered, paths)


def test_single_layer(ring5):
    result = UpDownEngine().route(ring5)
    assert result.num_layers == 1
    assert result.deadlock_free


def test_explicit_root(ring5):
    result = UpDownEngine(root=2).route(ring5)
    assert result.stats["root"] == 2
    extract_paths(result.tables)  # complete


def test_non_switch_root_rejected(ring5):
    t = int(ring5.terminals[0])
    with pytest.raises(RoutingError, match="not a switch"):
        UpDownEngine(root=t).route(ring5)


def test_negative_root_rejected_not_wrapped():
    # -6 would index node 4 of ring(5, 1)'s 10 nodes, a switch.
    with pytest.raises(RoutingError, match=r"root -6 is not a switch"):
        UpDownEngine(root=-6).route(topologies.ring(5, 1))


def test_root_past_the_last_node_rejected():
    with pytest.raises(RoutingError, match=r"root 1000000 is not a switch"):
        UpDownEngine(root=10**6).route(topologies.ring(5, 1))


def test_default_root_is_max_degree():
    from repro.network import FabricBuilder

    b = FabricBuilder()
    hub = b.add_switch(name="hub")
    others = [b.add_switch() for _ in range(3)]
    for o in others:
        b.add_link(hub, o)
    t0, t1 = b.add_terminal(), b.add_terminal()
    b.add_link(t0, others[0])
    b.add_link(t1, others[1])
    fab = b.build()
    result = UpDownEngine().route(fab)
    assert result.stats["root"] == hub


def test_rank_zero_at_root(torus333):
    rank, root = rank_switches(torus333)
    assert rank[root] == 0
    for s in torus333.switches:
        assert rank[int(s)] >= 0


def test_disconnected_switch_graph_rejected():
    # Two switch islands joined only through a dual-homed terminal.
    from repro.network import FabricBuilder

    b = FabricBuilder()
    s0, s1 = b.add_switch(), b.add_switch()
    bridge = b.add_terminal(name="bridge")
    b.add_link(bridge, s0)
    b.add_link(bridge, s1)
    t0, t1 = b.add_terminal(), b.add_terminal()
    b.add_link(t0, s0)
    b.add_link(t1, s1)
    fab = b.build()
    with pytest.raises(RoutingError, match="connected switch graph"):
        UpDownEngine().route(fab)


def test_longer_paths_than_minhop_possible():
    # Up*/Down* may detour around the root: mean hops >= minhop's.
    from repro.routing import MinHopEngine

    fab = topologies.random_topology(14, 28, 2, seed=5)
    ud = extract_paths(UpDownEngine().route(fab).tables)
    mh = extract_paths(MinHopEngine().route(fab).tables)
    assert ud.mean_hops() >= mh.mean_hops() - 1e-9
