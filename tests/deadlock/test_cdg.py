"""ChannelDependencyGraph: edge bookkeeping, path add/remove, online insert."""

import numpy as np
import pytest

from repro.deadlock.cdg import ChannelDependencyGraph, first_fit
from repro.exceptions import InsufficientLayersError
from repro.network import FabricBuilder


@pytest.fixture()
def triangle():
    """3 switches in a triangle + 1 terminal each: 6 switch channels."""
    b = FabricBuilder()
    s = [b.add_switch() for _ in range(3)]
    for i in range(3):
        b.add_link(s[i], s[(i + 1) % 3])
    for i in range(3):
        t = b.add_terminal()
        b.add_link(t, s[i])
    return b.build()


def _chan(f, u, v):
    return f.channel_between(u, v)


def test_add_path_creates_edges(triangle):
    cdg = ChannelDependencyGraph(triangle)
    c01, c12 = _chan(triangle, 0, 1), _chan(triangle, 1, 2)
    cdg.add_path(0, np.array([c01, c12], dtype=np.int32))
    assert cdg.has_edge(c01, c12)
    assert cdg.edge_weight(c01, c12) == 1
    assert cdg.num_edges == 1
    assert cdg.num_paths == 1


def test_terminal_channels_excluded(triangle):
    cdg = ChannelDependencyGraph(triangle)
    term = int(triangle.terminals[0])
    eject = _chan(triangle, int(triangle.attached_switches(term)[0]), term)
    c01 = _chan(triangle, 0, 1)
    cdg.add_path(0, np.array([c01, eject], dtype=np.int32))
    assert cdg.num_edges == 0  # (switch, terminal) pair filtered


def test_multiple_paths_share_edge(triangle):
    cdg = ChannelDependencyGraph(triangle)
    c01, c12 = _chan(triangle, 0, 1), _chan(triangle, 1, 2)
    chain = np.array([c01, c12], dtype=np.int32)
    cdg.add_path(0, chain)
    cdg.add_path(1, chain)
    assert cdg.edge_weight(c01, c12) == 2
    assert cdg.pids_of_edge(c01, c12) == {0, 1}


def test_remove_path_deletes_empty_edges(triangle):
    cdg = ChannelDependencyGraph(triangle)
    c01, c12 = _chan(triangle, 0, 1), _chan(triangle, 1, 2)
    chain = np.array([c01, c12], dtype=np.int32)
    cdg.add_path(0, chain)
    cdg.add_path(1, chain)
    cdg.remove_path(0, chain)
    assert cdg.edge_weight(c01, c12) == 1
    cdg.remove_path(1, chain)
    assert not cdg.has_edge(c01, c12)
    assert cdg.num_edges == 0
    assert cdg.num_paths == 0


def test_remove_missing_path_is_noop(triangle):
    cdg = ChannelDependencyGraph(triangle)
    c01, c12 = _chan(triangle, 0, 1), _chan(triangle, 1, 2)
    cdg.remove_path(9, np.array([c01, c12], dtype=np.int32))
    assert cdg.num_edges == 0


def test_nodes_and_successors(triangle):
    cdg = ChannelDependencyGraph(triangle)
    c01, c12, c20 = (_chan(triangle, 0, 1), _chan(triangle, 1, 2), _chan(triangle, 2, 0))
    cdg.add_path(0, np.array([c01, c12], dtype=np.int32))
    cdg.add_path(1, np.array([c12, c20], dtype=np.int32))
    assert cdg.nodes() == {c01, c12, c20}
    assert set(cdg.successors(c01)) == {c12}


def test_try_add_rejects_cycle_closure(triangle):
    cdg = ChannelDependencyGraph(triangle)
    c01, c12, c20 = (_chan(triangle, 0, 1), _chan(triangle, 1, 2), _chan(triangle, 2, 0))
    assert cdg.try_add_path(0, np.array([c01, c12], dtype=np.int32))
    assert cdg.try_add_path(1, np.array([c12, c20], dtype=np.int32))
    # closing the triangle would create c20 -> c01 -> ... cycle
    assert not cdg.try_add_path(2, np.array([c20, c01], dtype=np.int32))
    # rejection left the CDG unchanged
    assert cdg.num_paths == 2
    assert not cdg.has_edge(c20, c01)


def test_try_add_accepts_and_rolls_back_cleanly(triangle):
    cdg = ChannelDependencyGraph(triangle)
    c01, c12, c20 = (_chan(triangle, 0, 1), _chan(triangle, 1, 2), _chan(triangle, 2, 0))
    long_chain = np.array([c01, c12, c20], dtype=np.int32)
    assert cdg.try_add_path(0, long_chain)
    # the same chain again shares edges; still acyclic
    assert cdg.try_add_path(1, long_chain)
    assert cdg.edge_weight(c01, c12) == 2


def test_try_add_single_channel_path_trivially_ok(triangle):
    cdg = ChannelDependencyGraph(triangle)
    c01 = _chan(triangle, 0, 1)
    assert cdg.try_add_path(0, np.array([c01], dtype=np.int32))
    assert cdg.num_paths == 1
    assert cdg.num_edges == 0


def test_first_fit_follows_order_grows_then_names_the_path(triangle):
    """The one first-fit loop (LASH, the online variant, repair): the first
    layer in ``order`` that stays acyclic takes the path; a new layer opens
    while the budget allows; past it, a named InsufficientLayersError."""
    c01, c12, c20 = (_chan(triangle, 0, 1), _chan(triangle, 1, 2), _chan(triangle, 2, 0))
    a, b, closing = (np.array(p, dtype=np.int32) for p in ([c01, c12], [c12, c20], [c20, c01]))
    cdgs = [ChannelDependencyGraph(triangle)]
    assert first_fit(cdgs, 0, a, "path 0", max_layers=2) == 0
    assert first_fit(cdgs, 1, b, "path 1", max_layers=2) == 0
    assert first_fit(cdgs, 2, closing, "path 2", max_layers=2) == 1  # opened
    assert len(cdgs) == 2
    assert first_fit(cdgs, 3, a, "path 3", order=(1, 0)) == 1  # order, not index
    with pytest.raises(InsufficientLayersError, match="path 4 fits no layer and all 1 layers"):
        first_fit(cdgs[:1], 4, closing, "path 4", max_layers=1)
