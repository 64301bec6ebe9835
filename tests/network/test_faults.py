"""Failure injection: link/switch removal semantics and node maps."""

import pytest

from repro import topologies
from repro.exceptions import FabricError
from repro.network import cable_keys, degrade, fail_links, fail_specific_cable, fail_switches
from repro.network.validate import check_connected


def test_fail_links_removes_requested_count(torus333):
    degraded = fail_links(torus333, 3, seed=1)
    assert degraded.removed_cables == 3
    assert degraded.fabric.num_channels == torus333.num_channels - 6


def test_fail_links_keeps_all_nodes(torus333):
    degraded = fail_links(torus333, 2, seed=2)
    assert degraded.fabric.num_nodes == torus333.num_nodes
    assert (degraded.node_map >= 0).all()


def test_fail_links_switch_links_only_protects_terminals(ring5):
    degraded = fail_links(ring5, 1, seed=0)
    for t in degraded.fabric.terminals:
        assert degraded.fabric.degree(int(t)) == 1


def test_fail_links_too_many_rejected(ring5):
    with pytest.raises(FabricError, match="cannot fail"):
        fail_links(ring5, 100, seed=0)


def test_fail_switches_removes_node_and_cables():
    fab = topologies.kary_ntree(4, 2)
    degraded = fail_switches(fab, 1, seed=3)
    assert degraded.fabric.num_switches == fab.num_switches - 1
    assert degraded.removed_switches == 1
    # Terminals survive.
    assert degraded.fabric.num_terminals == fab.num_terminals


def test_fail_switches_never_orphans_terminals():
    fab = topologies.kary_ntree(4, 2)
    for seed in range(5):
        degraded = fail_switches(fab, 2, seed=seed)
        for t in degraded.fabric.terminals:
            assert degraded.fabric.degree(int(t)) >= 1


def test_fail_switches_protects_singly_homed(ring5):
    # Every ring switch hosts a singly-homed terminal -> none removable.
    with pytest.raises(FabricError, match="removable"):
        fail_switches(ring5, 1, seed=0)


def test_node_map_marks_removed():
    fab = topologies.kary_ntree(4, 2)
    degraded = fail_switches(fab, 1, seed=5)
    removed = [v for v in range(fab.num_nodes) if degraded.node_map[v] < 0]
    assert len(removed) == 1
    assert fab.is_switch(removed[0])


def test_fail_specific_cable(ring5):
    degraded = fail_specific_cable(ring5, 0, 1)
    assert degraded.fabric.num_channels == ring5.num_channels - 2
    assert degraded.fabric.channel_between(0, 1) == -1


def test_fail_specific_cable_missing(ring5):
    with pytest.raises(FabricError, match="no cable"):
        fail_specific_cable(ring5, 0, 2)


def test_degraded_metadata_flag(ring5):
    degraded = fail_specific_cable(ring5, 0, 1)
    assert degraded.fabric.metadata["degraded"] is True


def test_zero_faults_leave_metadata_unflagged(ring5):
    # Regression: the rebuild used to stamp metadata["degraded"] even when
    # nothing was removed, making pristine copies look degraded.
    degraded = fail_links(ring5, 0, seed=0)
    assert degraded.removed_cables == 0
    assert "degraded" not in degraded.fabric.metadata


def test_explicit_degrade_validates_arguments(ring5):
    t = int(ring5.terminals[0])
    with pytest.raises(FabricError, match="not a switch"):
        degrade(ring5, dead_switches=[t])
    with pytest.raises(FabricError, match="not a cable"):
        degrade(ring5, dead_cables=[(0, 5)])


def test_explicit_degrade_accepts_single_channel_id(ring5):
    key = cable_keys(ring5)[0]
    by_key = degrade(ring5, dead_cables=[key])
    by_cid = degrade(ring5, dead_cables=[key[1]])  # either id of the pair
    assert by_key.removed_cables == by_cid.removed_cables == 1
    assert by_key.fabric.num_channels == by_cid.fabric.num_channels


def test_degraded_tree_still_connected():
    fab = topologies.kary_ntree(4, 2)
    degraded = fail_links(fab, 1, seed=7)
    check_connected(degraded.fabric)  # trees have redundancy at k=4


def test_coordinates_survive_remapping(torus333):
    degraded = fail_links(torus333, 1, seed=9)
    old_coords = torus333.coordinates
    for old, new in enumerate(degraded.node_map):
        if old in old_coords:
            assert degraded.fabric.coordinates[int(new)] == old_coords[old]
