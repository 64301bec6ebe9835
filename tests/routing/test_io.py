"""Routing-state persistence."""

import zipfile

import numpy as np
import pytest

from repro import topologies
from repro.exceptions import RoutingError
from repro.routing.base import RoutingTables
from repro.routing.io import fabric_fingerprint, load_routing, load_routing_state, save_routing


def test_roundtrip_tables_and_layers(tmp_path, dfsssp_random16, random16):
    p = tmp_path / "routing.npz"
    save_routing(p, dfsssp_random16.tables, dfsssp_random16.layered)
    tables, layered = load_routing(p, random16)
    assert (tables.next_channel == dfsssp_random16.tables.next_channel).all()
    assert tables.engine == "dfsssp"
    assert layered is not None
    assert (layered.path_layers == dfsssp_random16.layered.path_layers).all()
    assert layered.num_layers == dfsssp_random16.layered.num_layers


def test_roundtrip_without_layers(tmp_path, minhop_random16, random16):
    p = tmp_path / "mh.npz"
    save_routing(p, minhop_random16.tables)
    tables, layered = load_routing(p, random16)
    assert layered is None
    assert (tables.next_channel == minhop_random16.tables.next_channel).all()


def test_fingerprint_rejects_recabled_fabric(tmp_path, dfsssp_random16):
    p = tmp_path / "r.npz"
    save_routing(p, dfsssp_random16.tables, dfsssp_random16.layered)
    other = topologies.random_topology(16, 34, terminals_per_switch=3, seed=43)
    with pytest.raises(RoutingError, match="does not match"):
        load_routing(p, other)


def test_fingerprint_ignores_names(random16):
    fp1 = fabric_fingerprint(random16)
    # Same structure, different names.
    from repro.network import fabric_from_dict, fabric_to_dict

    data = fabric_to_dict(random16)
    for node in data["nodes"]:
        node["name"] = f"renamed{node['id']}"
    renamed = fabric_from_dict(data)
    assert fabric_fingerprint(renamed) == fp1


def test_fingerprint_sensitive_to_capacity(random16):
    from repro.network import fabric_from_dict, fabric_to_dict

    data = fabric_to_dict(random16)
    data["cables"][0]["capacity"] = 7.0
    changed = fabric_from_dict(data)
    assert fabric_fingerprint(changed) != fabric_fingerprint(random16)


def test_mismatched_layered_rejected(tmp_path, dfsssp_random16, minhop_random16):
    p = tmp_path / "bad.npz"
    with pytest.raises(RoutingError, match="different tables"):
        save_routing(p, minhop_random16.tables, dfsssp_random16.layered)


def test_layered_from_tables_of_another_shape_rejected(tmp_path, dfsssp_random16, ring5):
    with pytest.raises(RoutingError, match="different tables"):
        save_routing(tmp_path / "bad.npz", RoutingTables.empty(ring5), dfsssp_random16.layered)


def _legacy_save(path, result):
    """A format-1 archive, as this module wrote it before format 2 and
    before it chose its own zlib level: the dense ``next_channel``."""
    np.savez_compressed(
        path,
        format=np.array([1]),
        engine=np.array([result.tables.engine]),
        fingerprint=np.array([fabric_fingerprint(result.tables.fabric)]),
        next_channel=result.tables.next_channel,
        path_layers=result.layered.path_layers,
        num_layers=np.array([result.layered.num_layers]),
        channel_weights=result.channel_weights,
    )


def _leaf_nodes(fabric):
    """Single-homed terminals: one out-channel, into a switch."""
    return [t for t in map(int, fabric.terminals)
            if len(fabric.out_channels(t)) == 1
            and fabric.is_switch(fabric.channels.dst[fabric.out_channels(t)[0]])]


def _savez_format2(path, result):
    """Format 2 written by ``np.savez_compressed``: every row but the
    leaves', and no leaf entry that breaks the rule (an SSSP table)."""
    fabric = result.tables.fabric
    others = np.setdiff1d(np.arange(fabric.num_nodes), _leaf_nodes(fabric))
    np.savez_compressed(
        path,
        format=np.array([2]),
        engine=np.array([result.tables.engine]),
        fingerprint=np.array([fabric_fingerprint(fabric)]),
        next_channel_rows=result.tables.next_channel[others],
        leaf_exceptions=np.zeros((0, 3), dtype=np.int32),
        path_layers=result.layered.path_layers,
        num_layers=np.array([result.layered.num_layers]),
        channel_weights=result.channel_weights,
    )


def test_level1_archive_holds_what_savez_compressed_wrote(tmp_path, dfsssp_random16):
    """Same members in the same order, and byte-identical ``.npy`` payloads
    (header, dtype, shape, data): only the deflate level differs."""
    new, old = tmp_path / "new.npz", tmp_path / "old.npz"
    save_routing(new, dfsssp_random16.tables, dfsssp_random16.layered,
                 channel_weights=dfsssp_random16.channel_weights)
    _savez_format2(old, dfsssp_random16)
    with zipfile.ZipFile(new) as a, zipfile.ZipFile(old) as b:
        assert a.namelist() == b.namelist()
        for name in a.namelist():
            assert a.getinfo(name).compress_type == zipfile.ZIP_DEFLATED
            assert a.read(name) == b.read(name), name
    with np.load(new) as a, np.load(old) as b:
        assert a.files == b.files
        for name in a.files:
            assert a[name].dtype == b[name].dtype and a[name].shape == b[name].shape
            assert a[name].tobytes() == b[name].tobytes()


def test_savez_compressed_archives_still_load(tmp_path, dfsssp_random16, random16):
    from repro.service import CheckpointStore

    _legacy_save(tmp_path / "old.npz", dfsssp_random16)
    state = load_routing_state(tmp_path / "old.npz", random16)
    assert np.array_equal(state.tables.next_channel, dfsssp_random16.tables.next_channel)
    assert np.array_equal(state.layered.path_layers, dfsssp_random16.layered.path_layers)
    assert np.array_equal(state.channel_weights, dfsssp_random16.channel_weights)

    store = CheckpointStore(tmp_path / "ckpt")
    ckpt_dir = store.save(version=1, baseline=random16, result=dfsssp_random16,
                          state={"engine": "dfsssp", "state": "healthy",
                                 "dead_cables": [], "dead_switches": []})
    _legacy_save(ckpt_dir / "routing.npz", dfsssp_random16)
    restored = store.load().result
    assert np.array_equal(restored.tables.next_channel, dfsssp_random16.tables.next_channel)
    assert np.array_equal(restored.layered.path_layers, dfsssp_random16.layered.path_layers)
    assert restored.layered.num_layers == dfsssp_random16.layered.num_layers


def test_loaded_tables_route_identically(tmp_path, dfsssp_random16, random16):
    """The reloaded state drives the simulator identically."""
    from repro.simulator import CongestionSimulator

    p = tmp_path / "sim.npz"
    save_routing(p, dfsssp_random16.tables, dfsssp_random16.layered)
    tables, _ = load_routing(p, random16)
    a = CongestionSimulator(dfsssp_random16.tables).effective_bisection_bandwidth(5, seed=1)
    b = CongestionSimulator(tables).effective_bisection_bandwidth(5, seed=1)
    assert np.allclose(a.per_pattern_mean, b.per_pattern_mean)


# ----------------------------------------------------------------------
# format 2: switch rows stored, leaf rows derived
# ----------------------------------------------------------------------
ROUNDTRIP_FABRICS = {
    "ring6x2": lambda: topologies.ring(6, terminals_per_switch=2),
    "ktree42": lambda: topologies.kary_ntree(4, 2),
    "xgft_dual": lambda: topologies.xgft(2, (4, 4), (2, 2)),
    "torus33": lambda: topologies.torus((3, 3), terminals_per_switch=2),
}


def _roundtrip(tmp_path, tables, weights=None):
    path = tmp_path / f"{tables.engine}.npz"
    save_routing(path, tables, channel_weights=weights)
    state = load_routing_state(path, tables.fabric)
    np.testing.assert_array_equal(state.tables.next_channel, tables.next_channel)
    assert state.tables.engine == tables.engine
    with np.load(path) as data:
        assert "next_channel" not in data.files
        others = tables.fabric.num_nodes - len(_leaf_nodes(tables.fabric))
        assert data["next_channel_rows"].shape == (others, tables.fabric.num_terminals)
        return data["leaf_exceptions"]


@pytest.mark.parametrize("name", sorted(ROUNDTRIP_FABRICS))
def test_every_engines_tables_round_trip(tmp_path, name):
    from repro.exceptions import ReproError
    from repro.routing.registry import engines

    fabric = ROUNDTRIP_FABRICS[name]()
    routed = 0
    for engine_name, engine in sorted(engines().items()):
        try:
            result = engine().route(fabric)
        except ReproError:  # the engine refuses this family
            continue
        routed += 1
        broken = _roundtrip(tmp_path, result.tables, result.channel_weights)
        if engine_name in ("sssp", "dfsssp"):
            assert broken.shape == (0, 3)  # SSSP derives its leaf rows by the rule
    assert routed >= 4


def test_unreached_host_switch_round_trips(tmp_path):
    """A degraded fabric where a host switch reaches nothing: its leaves
    have no entry toward any other destination, by the rule."""
    from repro.core import SSSPEngine

    from tests.parallel.test_reduction import _islands

    fabric = _islands()
    tables = SSSPEngine()._route(fabric).tables  # the fabric is not routable as a whole
    stranded = [t for t in _leaf_nodes(fabric)
                if (tables.next_channel[t] < 0).sum() > 1]  # more than toward itself
    assert stranded
    broken = _roundtrip(tmp_path, tables)
    assert broken.shape == (0, 3)


def test_leaf_rows_that_break_the_rule_round_trip(tmp_path, minhop_random16, random16):
    """A hand-edited table: a leaf with no entry where its switch has one,
    one with an entry toward itself, and one on a channel not its own."""
    next_channel = minhop_random16.tables.next_channel.copy()
    a, b = _leaf_nodes(random16)[:2]
    col_a, col_b = int(random16.term_index[a]), int(random16.term_index[b])
    up_a = int(random16.out_channels(a)[0])
    other = (col_a + 1) % random16.num_terminals
    if other == col_b:
        other = (other + 1) % random16.num_terminals
    next_channel[a, other] = -1
    next_channel[a, col_a] = up_a
    next_channel[b, col_a] = up_a
    tables = RoutingTables(random16, next_channel, engine="edited")
    broken = _roundtrip(tmp_path, tables)
    assert sorted(map(tuple, broken.tolist())) == sorted(
        [(a, other, -1), (a, col_a, up_a), (b, col_a, up_a)])


def test_writer_allocates_no_dense_table(tmp_path, monkeypatch):
    """The leaf rows are compared a few at a time: the writer's traced
    peak stays well under the dense table's bytes."""
    import tracemalloc

    from repro.core import SSSPEngine
    from repro.routing import base

    fabric = topologies.xgft(2, (32, 32), (1, 16))  # a 4.4 MB table
    result = SSSPEngine().route(fabric)
    dense = result.tables.next_channel.nbytes
    monkeypatch.setattr(base, "LEAF_BLOCK_BYTES", dense // 32)
    tracemalloc.start()
    try:
        save_routing(tmp_path / "r.npz", result.tables, channel_weights=result.channel_weights)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense // 4


@pytest.mark.parametrize("member", ["next_channel_rows", "leaf_exceptions"])
def test_malformed_format2_member_is_a_routing_error(tmp_path, dfsssp_random16, random16,
                                                     member):
    path = tmp_path / "bad.npz"
    _savez_format2(path, dfsssp_random16)
    with np.load(path) as data:
        members = {name: data[name] for name in data.files}
    members[member] = (members[member][1:] if member == "next_channel_rows"
                       else np.array([[0, 0, 0, 0]], dtype=np.int32))
    np.savez_compressed(path, **members)
    with pytest.raises(RoutingError, match="malformed routing state"):
        load_routing_state(path, random16)
