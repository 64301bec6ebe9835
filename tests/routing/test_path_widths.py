"""The path set's width rule, at its limits and against the wide widths.

``extract_paths`` allocates channel ids as uint16 while the fabric has at
most ``CHANNEL_ID_LIMIT`` (65 536) channels and as int32 beyond; path
offsets, and the turn index's ``occ_ptr`` with them, are int32 while the
channel total stays below ``OFFSET_LIMIT`` (2**31) and int64 from there.
A certificate's layers take the narrowest signed width holding
``-1 … num_layers - 1``. The limits are module constants, so monkeypatching
them routes a small fabric at either width: every output must be the
same at both.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import topologies
from repro.analysis import routing_utilization
from repro.core import DFSSSPEngine
from repro.core.multipath import MultipathDFSSSPEngine
from repro.deadlock.certificate import DeadlockFreedomCertificate, emit_certificate, layer_dtype
from repro.deadlock.incremental import assign_layers_incremental
from repro.exceptions import RoutingError
from repro.network.builder import FabricBuilder
from repro.routing import DORVCEngine, MinHopEngine, RoutingTables, extract_paths, gather_flows
from repro.routing import paths as paths_mod
from repro.routing.paths import PathSet, chan_dtype, offset_dtype
from repro.simulator import CongestionSimulator

#: limits that force the wide widths: int32 channel ids, int64 offsets
WIDE = {"CHANNEL_ID_LIMIT": 0, "OFFSET_LIMIT": 0}


def test_the_rule_at_its_limits():
    assert paths_mod.CHANNEL_ID_LIMIT == 1 << 16 and paths_mod.OFFSET_LIMIT == 1 << 31
    assert chan_dtype(65_536) == np.uint16 and chan_dtype(65_537) == np.int32
    assert offset_dtype(2**31 - 1) == np.int32 and offset_dtype(2**31) == np.int64
    assert [layer_dtype(n) for n in (1, 8, 128, 129, 32_768, 32_769)] == [
        np.int8, np.int8, np.int8, np.int16, np.int16, np.int32,
    ]


def _fresh(tables):
    return RoutingTables(tables.fabric, tables.next_channel.copy(), engine=tables.engine)


def test_monkeypatched_limits_flip_each_width(random16, monkeypatch):
    tables = MinHopEngine().route(random16).tables
    narrow = extract_paths(_fresh(tables))
    total = len(narrow.chans)
    cases = [
        # (limits, chans, offsets and occ_ptr)
        ({"CHANNEL_ID_LIMIT": random16.num_channels}, np.uint16, np.int32),
        ({"CHANNEL_ID_LIMIT": random16.num_channels - 1}, np.int32, np.int32),
        ({"OFFSET_LIMIT": total + 1}, np.uint16, np.int32),
        ({"OFFSET_LIMIT": total}, np.uint16, np.int64),
    ]
    for limits, chans, offsets in cases:
        with monkeypatch.context() as mp:
            for name, value in limits.items():
                mp.setattr(paths_mod, name, value)
            got = extract_paths(_fresh(tables))
            index = got.turn_index()
        assert (got.chans.dtype, got.offsets.dtype, index.occ_ptr.dtype) == (
            chans, offsets, offsets), limits
        np.testing.assert_array_equal(got.chans, narrow.chans)
        np.testing.assert_array_equal(got.offsets, narrow.offsets)
        np.testing.assert_array_equal(index.occ_ptr, narrow.turn_index().occ_ptr)


def test_a_fabric_past_65536_channels_keeps_int32_ids():
    b = FabricBuilder()
    s0, s1 = b.add_switch(), b.add_switch()
    t0, t1 = b.add_terminal(), b.add_terminal()
    b.add_link(s0, s1, count=32_767)
    b.add_link(t0, s0)
    b.add_link(t1, s1)
    fabric = b.build()
    assert fabric.num_channels == 65_538
    tables = MinHopEngine().route(fabric).tables
    paths = extract_paths(tables)
    assert paths.chans.dtype == np.int32
    assert paths.chans.max() == 65_537  # a terminal channel no uint16 holds
    flat, _ = gather_flows(tables, paths, [t0], [t1])
    assert flat.dtype == np.int32
    assert int(fabric.channels.dst[flat[-1]]) == t1


def test_a_hand_built_path_set_is_copied_to_the_rule_or_refused(ring5):
    S, T = ring5.num_switches, ring5.num_terminals
    offsets = np.zeros(S * T + 1, dtype=np.int64)
    paths = PathSet(ring5, offsets, np.zeros(0, dtype=np.int64))
    assert (paths.chans.dtype, paths.offsets.dtype) == (np.uint16, np.int32)
    offsets[-1] = 1
    with pytest.raises(RoutingError, match="channel ids do not fit uint16"):
        PathSet(ring5, offsets, np.array([-1]))


def _outputs(fabric, monkeypatch, limits) -> dict:
    """Every output the path set feeds, routed under ``limits``."""
    with monkeypatch.context() as mp:
        for name, value in limits.items():
            mp.setattr(paths_mod, name, value)
        result = DFSSSPEngine().route(fabric)
        paths = extract_paths(result.tables)
        index = paths.turn_index()
        assignment = assign_layers_incremental(paths, pids=paths.active_pids())
        layered = result.layered
        traffic = np.where(paths.active_mask(), layered.path_layers, -1)
        cert = emit_certificate(layered, paths)
        util = routing_utilization(result.tables, paths)
        lmc = MultipathDFSSSPEngine(lmc=1).route(fabric)
        out = {
            "widths": (paths.chans.dtype, paths.offsets.dtype, index.occ_ptr.dtype),
            "next_channel": result.tables.next_channel,
            "channel_weights": result.channel_weights,
            **{f"turns.{name}": getattr(index, name)
               for name in ("src", "dst", "ptr", "rank", "occ_turn", "occ_ptr")},
            "assignment": (assignment.path_layers, assignment.layers_needed,
                           assignment.cycles_broken, assignment.paths_moved),
            "path_layers": layered.path_layers,
            "layer_edges": paths.layer_edges(traffic, layered.num_layers),
            "certificate": cert.to_json(),
            "certificate_widths": (cert.path_layers.dtype,
                                   {lw.edges.dtype for lw in cert.layers},
                                   {lw.topo_order.dtype for lw in cert.layers}),
            "ebb": CongestionSimulator(result.tables, paths)
            .effective_bisection_bandwidth(12, seed=3).per_pattern_mean,
            "utilization": (util.paths_per_channel, util.mean, util.maximum, util.gini),
            "lmc_offsets": lmc.combined_paths().offsets,
            "lmc_path_layers": lmc.path_layers,
        }
        if fabric.coordinates:
            out["dor_vc_lanes"] = DORVCEngine().route(fabric).layered.path_layers
        round_trip = DeadlockFreedomCertificate.from_dict(cert.to_dict())
        assert round_trip.to_json() == out["certificate"]
        assert round_trip.path_layers.dtype == cert.path_layers.dtype == np.int8
    return out


def _assert_same(narrow, wide, key=""):
    if isinstance(narrow, (tuple, list)):
        assert len(narrow) == len(wide), key
        for i, (a, b) in enumerate(zip(narrow, wide)):
            _assert_same(a, b, f"{key}[{i}]")
    elif isinstance(narrow, np.ndarray):
        np.testing.assert_array_equal(narrow, wide, err_msg=key)
    else:
        assert narrow == wide, key


@pytest.mark.parametrize("family", ["torus", "fattree"])
def test_both_widths_route_identically(family, monkeypatch):
    fabric = (topologies.torus((4, 4), 1) if family == "torus"
              else topologies.xgft(2, (4, 4), (1, 2)))
    narrow = _outputs(fabric, monkeypatch, {})
    wide = _outputs(fabric, monkeypatch, WIDE)
    assert narrow.pop("widths") == (np.uint16, np.int32, np.int32)
    assert wide.pop("widths") == (np.int32, np.int64, np.int64)
    assert narrow["lmc_offsets"].dtype == np.int32 and wide["lmc_offsets"].dtype == np.int64
    if family == "torus":
        assert narrow["assignment"][2] > 0  # cycles were broken
        assert "dor_vc_lanes" in narrow
    for name in ("src", "dst", "ptr", "rank"):
        assert narrow[f"turns.{name}"].dtype == wide[f"turns.{name}"].dtype == np.int32
    assert narrow.keys() == wide.keys()
    for key in narrow:
        _assert_same(narrow[key], wide[key], key)
