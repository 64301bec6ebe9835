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
    """The writer this module had before it chose its own zlib level."""
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


def test_level1_archive_holds_what_savez_compressed_wrote(tmp_path, dfsssp_random16):
    """Same members in the same order, and byte-identical ``.npy`` payloads
    (header, dtype, shape, data): only the deflate level differs."""
    new, old = tmp_path / "new.npz", tmp_path / "old.npz"
    save_routing(new, dfsssp_random16.tables, dfsssp_random16.layered,
                 channel_weights=dfsssp_random16.channel_weights)
    _legacy_save(old, dfsssp_random16)
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
