"""Dragonfly generator: balanced-configuration invariants."""

import pytest

from repro.exceptions import FabricError
from repro.network.topologies import dragonfly
from repro.network.validate import check_connected


def test_group_count():
    fab = dragonfly(a=4, p=2, h=2)
    assert fab.metadata["groups"] == 9
    assert fab.num_switches == 9 * 4
    assert fab.num_terminals == 9 * 4 * 2


def test_intra_group_complete():
    fab = dragonfly(a=3, p=0, h=1)
    # Each switch: (a-1) local + h global = 2 + 1.
    for s in fab.switches:
        assert fab.degree(int(s)) == 3


@pytest.mark.parametrize("a,h", [(1, 1), (2, 1), (2, 2), (3, 3), (4, 2)])
def test_every_switch_fills_its_h_global_ports(a, h):
    # g - 1 = a*h peer groups: each group uses exactly its a*h global slots.
    fab = dragonfly(a=a, p=0, h=h)
    assert {fab.degree(int(s)) for s in fab.switches} == {a - 1 + h}


def test_one_global_cable_per_group_pair():
    a, h = 2, 2
    fab = dragonfly(a=a, p=0, h=h)
    g = fab.metadata["groups"]
    local_cables = g * (a * (a - 1) // 2)
    global_cables = g * (g - 1) // 2
    assert fab.num_channels == 2 * (local_cables + global_cables)


def test_connected():
    check_connected(dragonfly(a=4, p=1, h=2))


def test_invalid_parameters():
    with pytest.raises(FabricError):
        dragonfly(a=0, p=1, h=1)
    with pytest.raises(FabricError):
        dragonfly(a=2, p=-1, h=1)
    with pytest.raises(FabricError, match="refusing"):
        dragonfly(a=100, p=1, h=100)
