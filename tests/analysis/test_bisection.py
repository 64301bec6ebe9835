"""Theoretical bisection estimates."""

import pytest

from repro import topologies
from repro.analysis import estimate_bisection, routing_efficiency
from repro.core import DFSSSPEngine
from repro.network import FabricBuilder
from repro.simulator import CongestionSimulator


def test_dumbbell_bisection_is_the_bridge():
    """Two cliques joined by one cable: the cut is obvious."""
    b = FabricBuilder()
    left = [b.add_switch() for _ in range(3)]
    right = [b.add_switch() for _ in range(3)]
    for grp in (left, right):
        for i in range(3):
            for j in range(i + 1, 3):
                b.add_link(grp[i], grp[j])
    b.add_link(left[0], right[0])  # the bridge
    for i, s in enumerate(left + right):
        t = b.add_terminal()
        b.add_link(t, s)
    fab = b.build()
    est = estimate_bisection(fab, restarts=8, seed=0)
    assert est.exact
    assert est.cut_capacity == pytest.approx(1.0)
    assert est.terminals_a == est.terminals_b == 3
    assert est.per_pair_bandwidth == pytest.approx(1.0 / 3.0)


def test_ring_bisection_is_two():
    fab = topologies.ring(8, terminals_per_switch=1)
    est = estimate_bisection(fab, restarts=8, seed=1)
    assert est.exact
    assert est.cut_capacity == pytest.approx(2.0)


def test_capacity_weighted_cut():
    b = FabricBuilder()
    s0, s1 = b.add_switch(), b.add_switch()
    b.add_link(s0, s1, capacity=4.0)
    for i in range(4):
        t = b.add_terminal()
        b.add_link(t, s0 if i < 2 else s1)
    fab = b.build()
    est = estimate_bisection(fab, restarts=6, seed=2)
    # Host links (1.0 each) are the true bottleneck: isolating side A's
    # two hosts costs 2.0, cheaper than the 4.0 trunk.
    assert est.exact
    assert est.cut_capacity == pytest.approx(2.0)
    assert est.per_pair_bandwidth == pytest.approx(1.0)


def test_full_bisection_tree_per_pair_bandwidth():
    fab = topologies.kary_ntree(4, 2)  # full-bisection fat tree
    est = estimate_bisection(fab, restarts=8, seed=3)
    assert est.per_pair_bandwidth >= 1.0 - 1e-9


def test_routing_efficiency_in_unit_range():
    fab = topologies.kary_ntree(3, 2)
    result = DFSSSPEngine().route(fab)
    ebb = CongestionSimulator(result.tables).effective_bisection_bandwidth(20, seed=4).ebb
    eff = routing_efficiency(ebb, fab, seed=4)
    assert 0.3 <= eff <= 1.6  # heuristic cut + sampling noise envelope



@pytest.mark.parametrize("switches,tps", [(3, 1), (4, 1), (5, 2)])
def test_heuristic_path_always_finds_a_split(switches, tps):
    # Every proposal is rebalanced to exactly half the terminals, so none
    # is ever skipped — even on fabrics this small forced off the exact path.
    fabric = topologies.ring(switches, tps)
    est = estimate_bisection(fabric, seed=0, exact_limit=0)
    assert not est.exact
    assert est.terminals_a == fabric.num_terminals // 2
    assert est.terminals_a + est.terminals_b == fabric.num_terminals
    assert est.cut_capacity > 0
