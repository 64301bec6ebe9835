"""Fabric validation: connectivity, attachment, routability preconditions."""

import pytest

from repro.exceptions import DisconnectedFabricError, FabricError
from repro.network import FabricBuilder
from repro.network.validate import (
    check_connected,
    check_routable,
    check_terminals_attached,
    switch_degree_histogram,
)


def test_connected_fabric_passes(ring5):
    check_connected(ring5)
    check_routable(ring5)


def test_disconnected_fabric_detected():
    b = FabricBuilder()
    s0, s1 = b.add_switch(), b.add_switch()
    s2, s3 = b.add_switch(), b.add_switch()
    b.add_link(s0, s1)
    b.add_link(s2, s3)  # second component
    with pytest.raises(DisconnectedFabricError, match="unreachable"):
        check_connected(b.build())


def test_empty_fabric_rejected():
    with pytest.raises(FabricError, match="no nodes"):
        check_connected(FabricBuilder().build())


def test_single_node_fabric_connected():
    b = FabricBuilder()
    b.add_switch()
    check_connected(b.build())


def test_unattached_terminal_detected():
    b = FabricBuilder()
    s = b.add_switch()
    t0 = b.add_terminal()
    b.add_link(t0, s)
    b.add_terminal(name="orphan")  # never cabled
    with pytest.raises(FabricError, match="orphan"):
        check_terminals_attached(b.build())


def test_routable_needs_two_terminals():
    b = FabricBuilder()
    s = b.add_switch()
    t = b.add_terminal()
    b.add_link(t, s)
    with pytest.raises(FabricError, match="at least 2"):
        check_routable(b.build())


def test_switch_degree_histogram(ring5):
    hist = switch_degree_histogram(ring5)
    # Every ring switch: 2 ring cables + 1 terminal = degree 3.
    assert hist == {3: 5}


def _component_of_zero(fabric):
    import networkx as nx

    graph = nx.Graph()
    graph.add_nodes_from(range(fabric.num_nodes))
    graph.add_edges_from(zip(fabric.channels.src.tolist(), fabric.channels.dst.tolist()))
    return nx.node_connected_component(graph, 0)


@pytest.mark.parametrize("seed", range(12))
def test_connectivity_matches_networkx(seed):
    """Random switch forests with terminals: the check passes iff node 0
    reaches every node, and otherwise names the count and the first five
    unreached ids."""
    import numpy as np

    rng = np.random.default_rng(seed)
    b = FabricBuilder()
    switches = b.add_switches(int(rng.integers(2, 9)))
    for i in range(1, len(switches)):
        if rng.random() < 0.8:
            b.add_link(switches[i], switches[int(rng.integers(0, i))])
    for s in switches:
        for _ in range(int(rng.integers(0, 3))):
            b.add_link(b.add_terminal(), s)
    fabric = b.build()
    reached = _component_of_zero(fabric)
    if len(reached) == fabric.num_nodes:
        check_connected(fabric)
        return
    missing = sorted(set(range(fabric.num_nodes)) - reached)
    with pytest.raises(DisconnectedFabricError) as err:
        check_connected(fabric)
    assert str(err.value) == (f"fabric is disconnected: {len(missing)} unreachable nodes "
                              f"(e.g. {missing[:5]})")
