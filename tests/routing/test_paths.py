"""PathSet extraction: completeness, layout, flows, minimality counter."""

import numpy as np
import pytest

from repro import topologies
from repro.exceptions import RoutingError
from repro.obs import InMemorySink, use_sink
from repro.routing import (
    MinHopEngine,
    RoutingTables,
    extract_paths,
    flow_channels,
    path_minimality_violations,
)
from repro.routing import paths as paths_mod
from repro.routing.paths import PathSet


def test_pathset_shape(minhop_random16, random16):
    paths = extract_paths(minhop_random16.tables)
    assert paths.num_paths == random16.num_switches * random16.num_terminals


def test_every_path_terminates_at_destination(minhop_random16, random16):
    paths = extract_paths(minhop_random16.tables)
    for pid in range(0, paths.num_paths, 17):
        chans = paths.path(pid)
        src_sw, dst_term = paths.endpoints_of(pid)
        if len(chans) == 0:
            continue
        assert int(random16.channels.src[chans[0]]) == src_sw
        assert int(random16.channels.dst[chans[-1]]) == dst_term


def test_paths_chain_consecutively(minhop_random16, random16):
    paths = extract_paths(minhop_random16.tables)
    for pid in range(0, paths.num_paths, 23):
        chans = paths.path(pid)
        for a, b in zip(chans, chans[1:]):
            assert random16.channels.dst[a] == random16.channels.src[b]


def test_pid_layout_destination_major(minhop_random16, random16):
    paths = extract_paths(minhop_random16.tables)
    sw = int(random16.switches[3])
    term = int(random16.terminals[2])
    pid = paths.pid(sw, term)
    assert pid == 2 * random16.num_switches + 3
    src_sw, dst_term = paths.endpoints_of(pid)
    assert (src_sw, dst_term) == (sw, term)


def test_path_between_matches_walk(minhop_random16, random16):
    paths = extract_paths(minhop_random16.tables)
    sw = int(random16.switches[0])
    term = int(random16.terminals[4])
    expected = minhop_random16.tables.path_channels(sw, term)
    assert list(paths.path_between(sw, term)) == expected


def test_lengths_and_histogram(minhop_random16):
    paths = extract_paths(minhop_random16.tables)
    lengths = paths.lengths()
    hist = paths.hop_histogram()
    assert hist.sum() == paths.num_paths
    assert paths.mean_hops() == pytest.approx(float(lengths.mean()))


def test_extract_raises_on_missing_entry(ring5):
    tables = RoutingTables.empty(ring5, engine="empty")
    with pytest.raises(RoutingError, match="missing table entry"):
        extract_paths(tables)


def test_extract_raises_on_loop(ring5):
    nc = np.full((ring5.num_nodes, ring5.num_terminals), -1, dtype=np.int32)
    for t_idx in range(ring5.num_terminals):
        # every switch forwards clockwise forever
        for s in range(5):
            nc[s, t_idx] = ring5.channel_between(s, (s + 1) % 5)
    tables = RoutingTables(ring5, nc, engine="loop")
    with pytest.raises(RoutingError, match="loop"):
        extract_paths(tables)


def test_flow_channels_prepends_injection(minhop_random16, random16):
    paths = extract_paths(minhop_random16.tables)
    src, dst = int(random16.terminals[0]), int(random16.terminals[7])
    flow = flow_channels(minhop_random16.tables, paths, src, dst)
    assert int(random16.channels.src[flow[0]]) == src
    assert int(random16.channels.dst[flow[-1]]) == dst


def test_flow_channels_self_flow_rejected(minhop_random16, random16):
    paths = extract_paths(minhop_random16.tables)
    t = int(random16.terminals[0])
    with pytest.raises(RoutingError, match="distinct"):
        flow_channels(minhop_random16.tables, paths, t, t)


def test_minhop_paths_are_minimal(minhop_random16):
    paths = extract_paths(minhop_random16.tables)
    assert path_minimality_violations(minhop_random16.tables, paths) == 0


def test_pathset_bad_offsets_rejected(random16):
    with pytest.raises(RoutingError, match="offsets"):
        PathSet(random16, np.zeros(3, dtype=np.int64), np.zeros(0, dtype=np.int32))


def test_same_switch_paths_are_single_hop(minhop_random16, random16):
    paths = extract_paths(minhop_random16.tables)
    term = int(random16.terminals[0])
    sw = int(random16.attached_switches(term)[0])
    chans = paths.path_between(sw, term)
    assert len(chans) == 1
    assert int(random16.channels.dst[chans[0]]) == term


def test_active_mask_marks_leaf_sources(ktree42):
    """Only switches hosting terminals originate traffic (CA-to-CA)."""
    from repro.routing import MinHopEngine

    paths = extract_paths(MinHopEngine().route(ktree42).tables)
    mask = paths.active_mask()
    levels = ktree42.metadata["switch_levels"]
    S = ktree42.num_switches
    for pid in range(paths.num_paths):
        src_sw, _dst = paths.endpoints_of(pid)
        expect = levels[src_sw] == 1  # leaf switches host the terminals
        assert bool(mask[pid]) == expect


def test_active_pids_consistent_with_mask(minhop_random16):
    paths = extract_paths(minhop_random16.tables)
    mask = paths.active_mask()
    pids = paths.active_pids()
    assert mask.sum() == len(pids)
    assert mask.all()  # every random16 switch hosts terminals


def _active_mask_loop(paths):
    """The per-terminal loop ``active_mask`` used to be."""
    fab = paths.fabric
    leaf = np.zeros(fab.num_switches, dtype=bool)
    for t in fab.terminals:
        for sw in fab.attached_switches(int(t)):
            leaf[int(fab.switch_index[int(sw)])] = True
    return np.tile(leaf, fab.num_terminals)


def _dual_homed_fabric():
    """Four switches in a line; one terminal cabled to both ends, one to
    the second switch, the third switch hosting none."""
    from repro.network import FabricBuilder

    b = FabricBuilder()
    sw = b.add_switches(4)
    for a, c in zip(sw, sw[1:]):
        b.add_link(a, c)
    dual, single = b.add_terminals(2)
    b.add_link(dual, sw[0])
    b.add_link(dual, sw[3])
    b.add_link(single, sw[1])
    return b.build()


def test_active_mask_equals_the_loop_and_is_computed_once(ktree42, random16):
    for fabric in (ktree42, random16, _dual_homed_fabric()):
        paths = extract_paths(MinHopEngine().route(fabric).tables)
        mask = paths.active_mask()
        assert mask.dtype == np.bool_
        assert np.array_equal(mask, _active_mask_loop(paths))
        assert paths.active_mask() is mask  # memoised ...
        with pytest.raises(ValueError):
            mask[0] = not mask[0]  # ... so nobody may write to it
    dual = extract_paths(MinHopEngine().route(_dual_homed_fabric()).tables)
    assert dual.active_mask()[:4].tolist() == [True, True, False, True]


def test_turn_index_lists_the_switch_channel_pairs_of_each_path(minhop_random16):
    paths = extract_paths(minhop_random16.tables)
    fab = paths.fabric
    is_sw = fab.is_switch_channel
    index = paths.turn_index()
    # The turn table: every pair of switch channels meeting at a node, in (c1, c2) order.
    turns = sorted(
        (a, b)
        for a in map(int, fab.switch_channel_ids())
        for b in map(int, fab.out_channels(int(fab.channels.dst[a])))
        if is_sw[b]
    )
    assert list(zip(index.src.tolist(), index.dst.tolist())) == turns
    assert [index.turn(a, b) for a, b in turns] == list(range(len(turns)))
    uplink = int(fab.out_channels(int(fab.terminals[0]))[0])
    assert index.turn(0, 0) == -1 and index.turn(uplink, turns[0][1]) == -1
    # Every path's turns, path-major, in hop order.
    want = [
        (pid, (a, b))
        for pid in range(paths.num_paths)
        for a, b in zip(paths.path(pid).tolist()[:-1], paths.path(pid).tolist()[1:])
        if is_sw[a] and is_sw[b]
    ]
    occ_pid = np.repeat(np.arange(paths.num_paths), np.diff(index.occ_ptr))
    got = [(p, turns[t]) for p, t in zip(occ_pid.tolist(), index.occ_turn.tolist())]
    assert got == want
    pids = np.arange(3, paths.num_paths, 7)
    edges = np.stack(paths.dependency_edges(pids), axis=1)
    chosen = set(pids.tolist())
    assert [tuple(e) for e in edges.tolist()] == sorted({e for p, e in want if p in chosen})
    assert len(paths.dependency_edges(np.zeros(0, dtype=np.int64))[0]) == 0


def test_indexing_freezes_the_path_arrays(minhop_random16):
    """The index is built once per path set; after that an in-place write
    raises instead of leaving it stale."""
    paths = extract_paths(_fresh(minhop_random16.tables))
    paths.chans[0] = paths.chans[0]  # writable until indexed
    index = paths.turn_index()
    assert paths.turn_index() is index
    for arr in (paths.chans, paths.offsets, index.occ_ptr, index.occ_turn, index.src):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]


def test_a_path_whose_channels_do_not_meet_is_a_named_error(ring5):
    ring = [ring5.channel_between(s, (s + 1) % 5) for s in range(5)]
    lengths = np.zeros(ring5.num_switches * ring5.num_terminals, dtype=np.int64)
    lengths[3] = 2
    paths = PathSet(ring5, np.concatenate([[0], np.cumsum(lengths)]),
                    np.array([ring[0], ring[2]], dtype=np.int32))
    with pytest.raises(RoutingError, match="path 3 is not a channel chain"):
        paths.dependency_edges([3])


# ----------------------------------------------------------------------
# one walk per tables, in blocks
# ----------------------------------------------------------------------
def _walk_per_destination(tables):
    """The per-destination walk ``extract_paths`` used to be (oracle)."""
    fab = tables.fabric
    S, T = fab.num_switches, fab.num_terminals
    nc, chan_dst = tables.next_channel, fab.channels.dst
    switches = fab.switches.astype(np.int64)
    all_lengths = np.empty(S * T, dtype=np.int64)
    chunks = []
    for t_idx in range(T):
        term = int(fab.terminals[t_idx])
        cur = switches.copy()
        alive = cur != term
        lengths = np.zeros(S, dtype=np.int64)
        steps = []
        while alive.any():
            c = nc[cur, t_idx]
            assert not (alive & (c < 0)).any() and len(steps) <= fab.num_nodes
            steps.append(np.where(alive, c, -1).astype(np.int32))
            lengths[alive] += 1
            cur = np.where(alive, chan_dst[np.maximum(c, 0)].astype(np.int64), cur)
            alive = cur != term
        if steps:
            m = np.vstack(steps)  # (depth, S)
            chunks.append(m.T[(m >= 0).T])  # per-switch channel runs, s order
        all_lengths[t_idx * S : (t_idx + 1) * S] = lengths
    offsets = np.zeros(S * T + 1, dtype=np.int64)
    np.cumsum(all_lengths, out=offsets[1:])
    return offsets, np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int32)


def _fresh(tables):
    """Unwalked tables over a copy of the array."""
    return RoutingTables(tables.fabric, tables.next_channel.copy(), engine=tables.engine)


def test_extract_paths_walks_each_tables_once_and_freezes_them(minhop_random16):
    from repro.obs import get_registry

    tables = _fresh(minhop_random16.tables)
    tables.next_channel[0, 0] = tables.next_channel[0, 0]  # still writable
    walked = get_registry().value("paths_extracted_total") or 0
    with use_sink(InMemorySink()) as sink:
        paths = extract_paths(tables)
        assert extract_paths(tables) is paths
    # only the real walk is traced and counted
    assert len(sink.find("paths.extract")) == 1
    assert get_registry().value("paths_extracted_total") == walked + 1
    with pytest.raises(ValueError, match="read-only"):
        tables.next_channel[0, 0] = 0
    again = extract_paths(_fresh(tables))
    assert again is not paths
    assert np.array_equal(again.offsets, paths.offsets)
    assert np.array_equal(again.chans, paths.chans)


def test_repair_result_carries_its_own_pathset(ring5, dfsssp_ring5):
    from repro.network.faults import fail_specific_cable
    from repro.resilience.repair import repair_routing

    prior_paths = extract_paths(dfsssp_ring5.tables)
    repaired = repair_routing(dfsssp_ring5, fail_specific_cable(ring5, 0, 1))
    assert repaired.tables is not dfsssp_ring5.tables
    assert repaired.tables._paths is not None  # walked by the repair itself
    assert extract_paths(repaired.tables) is not prior_paths
    assert extract_paths(dfsssp_ring5.tables) is prior_paths


@pytest.mark.parametrize("name", ["ring5", "random16", "torus333", "xgft"])
def test_block_walk_equals_the_per_destination_walk(name, request, monkeypatch):
    fabric = (
        topologies.xgft(2, (4, 4), (1, 2)) if name == "xgft" else request.getfixturevalue(name)
    )
    tables = MinHopEngine().route(fabric).tables
    S, T = tables.fabric.num_switches, tables.fabric.num_terminals
    want_offsets, want_chans = _walk_per_destination(tables)
    # 1 walker and S walkers: one destination per block; b·S + 1: a block
    # edge inside the fabric with T not a multiple of the block
    b = 3 if T % 3 else 5
    for walkers, blocks in ((1, T), (S, T), (b * S + 1, T // b + 1),
                            (paths_mod.MAX_WALKERS, 1)):
        monkeypatch.setattr(paths_mod, "MAX_WALKERS", walkers)
        with use_sink(InMemorySink()) as sink:
            got = extract_paths(_fresh(tables))
        # allocated at the width rule's narrowest widths, as the oracle's
        # int64 / int32 arrays are not
        assert got.offsets.dtype == np.int32 == paths_mod.offset_dtype(len(want_chans))
        assert got.chans.dtype == np.uint16 == paths_mod.chan_dtype(fabric.num_channels)
        assert np.array_equal(got.offsets, want_offsets)
        assert np.array_equal(got.chans, want_chans)
        (sp,) = sink.find("paths.extract")
        assert sp.attrs == {"paths": S * T, "chans": len(want_chans), "blocks": blocks}


def test_block_walk_narrows_a_block_that_holds_too_many_steps(random16, monkeypatch):
    tables = MinHopEngine().route(random16).tables
    want_offsets, want_chans = _walk_per_destination(tables)
    monkeypatch.setattr(paths_mod, "MAX_HELD", 4 * random16.num_switches)
    with use_sink(InMemorySink()) as sink:
        got = extract_paths(_fresh(tables))
    assert np.array_equal(got.offsets, want_offsets)
    assert np.array_equal(got.chans, want_chans)
    assert sink.find("paths.extract")[0].attrs["blocks"] > 1


def test_extraction_errors_name_a_terminal_of_the_second_block(random16, monkeypatch):
    good = MinHopEngine().route(random16).tables
    S = random16.num_switches
    monkeypatch.setattr(paths_mod, "MAX_WALKERS", 5 * S)  # blocks of 5 destinations
    t_idx = 7
    term = int(random16.terminals[t_idx])
    node = int(random16.switches[3])

    nc = good.next_channel.copy()
    nc[node, t_idx] = -1
    with pytest.raises(
        RoutingError, match=rf"holey: missing table entry at node {node} for terminal {term}$"
    ):
        extract_paths(RoutingTables(random16, nc, engine="holey"))

    # two neighbouring switches forward to each other, toward ``term`` only
    nc = good.next_channel.copy()
    back = int(good.next_channel[node, t_idx])
    peer = int(random16.channels.dst[back])
    assert random16.kinds[peer] == 0
    nc[peer, t_idx] = random16.channel_between(peer, node)
    with use_sink(InMemorySink()) as sink:
        with pytest.raises(RoutingError, match=rf"loopy: forwarding loop toward terminal {term}$"):
            extract_paths(RoutingTables(random16, nc, engine="loopy"))
    (sp,) = sink.find("paths.extract")
    assert sp.status == "error"
