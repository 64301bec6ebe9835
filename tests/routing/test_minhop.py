"""MinHop engine: minimality, balancing, completeness."""


import numpy as np

from repro import topologies
from repro.parallel.kernel import hops_to_dest
from repro.routing import MinHopEngine, extract_paths, path_minimality_violations


def _route_scalar(fabric):
    """The sequential OpenSM-style loop MinHop vectorises: per destination,
    every node takes its least-loaded minimum-hop out-channel, lowest
    channel id first. Returns the table and the largest port load."""
    T = fabric.num_terminals
    next_channel = np.full((fabric.num_nodes, T), -1, dtype=np.int32)
    load = np.zeros(fabric.num_channels, dtype=np.int64)
    chan_dst = fabric.channels.dst
    for t_idx in range(T):
        dest = int(fabric.terminals[t_idx])
        dist = hops_to_dest(fabric, dest)
        for v in range(fabric.num_nodes):
            if v == dest:
                continue
            best, best_load = -1, None
            dv = dist[v]
            for c in fabric.out_channels(v):
                if dist[chan_dst[c]] < 0 or dist[chan_dst[c]] + 1 != dv:
                    continue
                lc = load[c]
                if best < 0 or lc < best_load:
                    best, best_load = int(c), lc
            if best < 0:
                continue
            next_channel[v, t_idx] = best
            load[best] += 1
    return next_channel, int(load.max(initial=0))


def test_complete_tables(minhop_random16, random16):
    paths = extract_paths(minhop_random16.tables)  # raises if incomplete
    assert paths.num_paths == random16.num_switches * random16.num_terminals


def test_minimal_paths_on_every_family():
    for fab in (
        topologies.ring(6, 1),
        topologies.torus((3, 3), 1),
        topologies.kary_ntree(3, 2),
        topologies.kautz(2, 2, 8),
    ):
        result = MinHopEngine().route(fab)
        paths = extract_paths(result.tables)
        assert path_minimality_violations(result.tables, paths) == 0


def test_not_claimed_deadlock_free(minhop_random16):
    assert minhop_random16.deadlock_free is False
    assert minhop_random16.layered is None


def test_balances_trunked_links():
    # Two switches with a 4-cable trunk and 8 terminals per side: the 8
    # cross destinations per switch must spread over all 4 trunk cables.
    from repro.network import FabricBuilder

    b = FabricBuilder()
    s0, s1 = b.add_switch(), b.add_switch()
    b.add_link(s0, s1, count=4)
    for i in range(8):
        t = b.add_terminal()
        b.add_link(t, s0 if i < 4 else s1)
    fab = b.build()
    result = MinHopEngine().route(fab)
    trunk = fab.channels_between(s0, s1)
    # count destination entries per trunk channel at s0
    usage = {c: 0 for c in trunk}
    for t_idx in range(fab.num_terminals):
        c = int(result.tables.next_channel[s0, t_idx])
        if c in usage:
            usage[c] += 1
    counts = sorted(usage.values())
    assert counts == [1, 1, 1, 1]  # 4 cross-destinations spread 1 each


def test_bfs_hops_symmetric_distance(ring5):
    dest = int(ring5.terminals[0])
    hops = hops_to_dest(ring5, dest)
    assert hops[dest] == 0
    sw0 = int(ring5.attached_switches(dest)[0])
    assert hops[sw0] == 1
    assert (hops >= 0).all()


def test_bfs_does_not_route_through_terminals():
    # Dual-homed terminal between two otherwise-distant switches must not
    # become a transit shortcut.
    from repro.network import FabricBuilder

    b = FabricBuilder()
    s = [b.add_switch() for _ in range(4)]
    for i in range(3):
        b.add_link(s[i], s[i + 1])
    t_far = b.add_terminal()
    b.add_link(t_far, s[0])
    b.add_link(t_far, s[3])  # dual-homed
    t0 = b.add_terminal()
    b.add_link(t0, s[0])
    t3 = b.add_terminal()
    b.add_link(t3, s[3])
    fab = b.build()
    hops = hops_to_dest(fab, t0)
    # Without transit through t_far, s[3] is 4 hops from t0 (3 switch hops + eject).
    assert hops[s[3]] == 4
    result = MinHopEngine().route(fab)
    path = result.tables.path_channels(t3, t0)
    nodes = [int(fab.channels.src[c]) for c in path]
    assert t_far not in nodes


def test_stats_contain_load(minhop_random16):
    assert minhop_random16.stats["max_port_load"] > 0


def test_deterministic(random16):
    a = MinHopEngine().route(random16).tables.next_channel
    b = MinHopEngine().route(random16).tables.next_channel
    assert (a == b).all()


def test_vectorized_equals_scalar_reference(random16, ktree42):
    """The vectorised per-destination pass must reproduce the sequential
    OpenSM-style loop bit for bit (see the module docstring's argument)."""
    dual_homed = topologies.xgft(2, (4, 4), (2, 2))  # no shared sweep
    for fab in (random16, ktree42, topologies.deimos(scale=0.08), dual_homed):
        fast = MinHopEngine()._route(fab)
        next_channel, max_port_load = _route_scalar(fab)
        assert (fast.tables.next_channel == next_channel).all()
        assert fast.stats["max_port_load"] == max_port_load
