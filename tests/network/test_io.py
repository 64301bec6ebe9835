"""Fabric serialization round-trips (JSON and edge-list formats)."""

import json

import pytest

from repro.exceptions import FabricError
from repro.network import (
    FabricBuilder,
    fabric_from_dict,
    fabric_to_dict,
    load_edge_list,
    load_fabric,
    save_edge_list,
    save_fabric,
)


def _assert_same_structure(a, b):
    assert a.num_nodes == b.num_nodes
    assert a.num_channels == b.num_channels
    assert list(a.kinds) == list(b.kinds)
    assert a.names == b.names
    # Cable multiset by endpoint pair.
    def cable_multiset(f):
        out = {}
        for cid in range(f.num_channels):
            key = (int(f.channels.src[cid]), int(f.channels.dst[cid]))
            out[key] = out.get(key, 0) + 1
        return out

    assert cable_multiset(a) == cable_multiset(b)


def test_json_roundtrip(tmp_path, random16):
    p = tmp_path / "f.json"
    save_fabric(random16, p)
    loaded = load_fabric(p)
    _assert_same_structure(random16, loaded)
    assert loaded.metadata["family"] == "random"


def test_json_roundtrip_preserves_coordinates(tmp_path, torus333):
    from repro.routing import fabric_fingerprint

    p = tmp_path / "t.json"
    save_fabric(torus333, p)
    assert "\n" not in p.read_text()  # compact: written by json's C encoder
    loaded = load_fabric(p)
    assert loaded.coordinates == torus333.coordinates
    assert loaded.metadata == json.loads(json.dumps(torus333.metadata)) != {}
    assert fabric_fingerprint(loaded) == fabric_fingerprint(torus333)


def test_json_roundtrip_preserves_capacity(tmp_path):
    b = FabricBuilder()
    s0, s1 = b.add_switch(), b.add_switch()
    t0, t1 = b.add_terminal(), b.add_terminal()
    b.add_link(t0, s0)
    b.add_link(s0, s1, capacity=4.0)
    b.add_link(s1, t1)
    p = tmp_path / "c.json"
    save_fabric(b.build(), p)
    loaded = load_fabric(p)
    c = loaded.channel_between(s0, s1)
    assert loaded.channels.capacity[c] == 4.0


def test_dict_version_check():
    with pytest.raises(FabricError, match="version"):
        fabric_from_dict({"version": 999, "nodes": [], "cables": []})


def test_dict_dense_ids_required(ring5):
    data = fabric_to_dict(ring5)
    data["nodes"][0]["id"] = 77
    with pytest.raises(FabricError, match="dense"):
        fabric_from_dict(data)


def test_dict_unknown_kind_rejected(ring5):
    data = fabric_to_dict(ring5)
    data["nodes"][0]["kind"] = "router"
    with pytest.raises(FabricError, match="kind"):
        fabric_from_dict(data)


def test_edge_list_roundtrip(tmp_path, ring5):
    p = tmp_path / "f.edges"
    save_edge_list(ring5, p)
    loaded = load_edge_list(p)
    assert loaded.num_switches == ring5.num_switches
    assert loaded.num_terminals == ring5.num_terminals
    assert loaded.num_channels == ring5.num_channels


def test_edge_list_implicit_kinds(tmp_path):
    p = tmp_path / "imp.edges"
    p.write_text("H0 -- leaf\nH1 -- leaf\nleaf -- spine\n")
    fabric = load_edge_list(p)
    assert fabric.num_terminals == 2
    assert fabric.num_switches == 2


def test_edge_list_comments_and_blank_lines(tmp_path):
    p = tmp_path / "c.edges"
    p.write_text("# comment\n\nnode S a\nnode S b\na -- b  # trailing\n")
    fabric = load_edge_list(p)
    assert fabric.num_switches == 2
    assert fabric.num_channels == 2


def test_edge_list_duplicate_node_rejected(tmp_path):
    p = tmp_path / "dup.edges"
    p.write_text("node S a\nnode S a\n")
    with pytest.raises(FabricError, match="duplicate"):
        load_edge_list(p)


def test_edge_list_bad_cable_rejected(tmp_path):
    p = tmp_path / "bad.edges"
    p.write_text("node S a\nthis is not a cable\n")
    with pytest.raises(FabricError, match="cable"):
        load_edge_list(p)


def test_edge_list_export_requires_unique_names():
    b = FabricBuilder()
    b.add_switch(name="dup")
    b.add_switch(name="dup")
    with pytest.raises(FabricError, match="unique"):
        save_edge_list(b.build(), "/tmp/never-written.edges")


def test_json_file_is_valid_json(tmp_path, ring5):
    p = tmp_path / "j.json"
    save_fabric(ring5, p)
    data = json.loads(p.read_text())
    assert data["version"] == 1
    assert len(data["nodes"]) == ring5.num_nodes


# ----------------------------------------------------------------------
# hardened error paths: every failure is a FabricError naming the file
# ----------------------------------------------------------------------
def test_load_fabric_missing_file():
    with pytest.raises(FabricError, match="no-such-fabric.json"):
        load_fabric("/nonexistent/no-such-fabric.json")


def test_load_fabric_malformed_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"version": 1, "nodes": [')
    with pytest.raises(FabricError, match="broken.json.*malformed"):
        load_fabric(p)


def test_load_fabric_not_an_object(tmp_path):
    p = tmp_path / "list.json"
    p.write_text("[1, 2, 3]")
    with pytest.raises(FabricError, match="list.json"):
        load_fabric(p)


def test_load_fabric_missing_lists(tmp_path):
    p = tmp_path / "nolists.json"
    p.write_text(json.dumps({"version": 1, "nodes": []}))
    with pytest.raises(FabricError, match="cables"):
        load_fabric(p)


def test_load_fabric_node_without_id(tmp_path):
    p = tmp_path / "noid.json"
    p.write_text(json.dumps({"version": 1, "nodes": [{"kind": "switch"}], "cables": []}))
    with pytest.raises(FabricError, match="'id'"):
        load_fabric(p)


def test_load_fabric_cable_without_endpoints(tmp_path, ring5):
    data = fabric_to_dict(ring5)
    data["cables"][0] = {"capacity": 1.0}
    p = tmp_path / "nocable.json"
    p.write_text(json.dumps(data))
    with pytest.raises(FabricError, match="cable 0"):
        load_fabric(p)


def test_load_edge_list_missing_file():
    with pytest.raises(FabricError, match="no-such.edges"):
        load_edge_list("/nonexistent/no-such.edges")


def test_save_fabric_is_atomic(tmp_path, ring5):
    p = tmp_path / "atomic.json"
    save_fabric(ring5, p)
    leftovers = [q.name for q in tmp_path.iterdir() if q.name != "atomic.json"]
    assert leftovers == []  # no temp files survive a successful write
