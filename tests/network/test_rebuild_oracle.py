"""The array-built degraded fabric against the builder-driven reference.

:func:`repro.network.faults._rebuild` builds the degraded :class:`Fabric`
from arrays. The reference below is the original construction: one
:class:`FabricBuilder` call per surviving node and per surviving cable.
Both must agree on everything a degraded fabric carries — structure
(fingerprint, channel pairing, capacities), names, coordinates, metadata,
both id maps, the removed counts — and :func:`degrade` must refuse the
same bad switches and cables with the same errors.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import topologies
from repro.exceptions import FabricError
from repro.network import FabricBuilder, fail_links, fail_switches
from repro.network.fabric import Fabric
from repro.network.faults import DegradedFabric, cable_keys, degrade
from repro.routing import fabric_fingerprint


def rebuild_oracle(fabric: Fabric, dead_nodes: set[int],
                   dead_cables: set[tuple[int, int]]) -> DegradedFabric:
    """The degraded fabric, one builder call per node and per cable."""
    builder = FabricBuilder()
    node_map = np.full(fabric.num_nodes, -1, dtype=np.int64)
    channel_map = np.full(fabric.num_channels, -1, dtype=np.int64)
    for v in range(fabric.num_nodes):
        if v in dead_nodes:
            continue
        if fabric.is_switch(v):
            node_map[v] = builder.add_switch(name=fabric.names[v])
        else:
            node_map[v] = builder.add_terminal(name=fabric.names[v])
        if v in fabric.coordinates:
            builder.set_coordinates(int(node_map[v]), fabric.coordinates[v])
    removed_cables = 0
    seen = set()
    for cid in range(fabric.num_channels):
        rid = int(fabric.channels.reverse[cid])
        key = (min(cid, rid), max(cid, rid))
        if key in seen:
            continue
        seen.add(key)
        a = int(fabric.channels.src[cid])
        b = int(fabric.channels.dst[cid])
        if a in dead_nodes or b in dead_nodes or key in dead_cables:
            removed_cables += 1
            continue
        new_fwd = builder.add_link(
            int(node_map[a]), int(node_map[b]), capacity=float(fabric.channels.capacity[cid])
        )[0]
        channel_map[cid] = new_fwd
        channel_map[rid] = new_fwd + 1
    builder.metadata = dict(fabric.metadata)
    if removed_cables or dead_nodes:
        builder.metadata["degraded"] = True
    levels = fabric.metadata.get("switch_levels")
    if levels:
        builder.metadata["switch_levels"] = {
            int(node_map[int(k)]): int(v)
            for k, v in levels.items()
            if node_map[int(k)] >= 0
        }
    return DegradedFabric(
        fabric=builder.build(),
        node_map=node_map,
        removed_cables=removed_cables,
        removed_switches=len(dead_nodes),
        channel_map=channel_map,
    )


def degrade_oracle(fabric: Fabric, dead_switches=(), dead_cables=()) -> DegradedFabric:
    """:func:`degrade`'s argument checks in front of :func:`rebuild_oracle`."""
    dead_nodes = {int(s) for s in dead_switches}
    for v in dead_nodes:
        if not (0 <= v < fabric.num_nodes) or not fabric.is_switch(v):
            raise FabricError(f"node {v} is not a switch; only switches can fail")
    keys = set()
    for key in dead_cables:
        cid, rid = (int(key[0]), int(key[1])) if isinstance(key, tuple) else (int(key), -1)
        if rid < 0:
            rid = int(fabric.channels.reverse[cid])
        if not (0 <= cid < fabric.num_channels) or int(fabric.channels.reverse[cid]) != rid:
            raise FabricError(f"({cid}, {rid}) is not a cable of this fabric")
        keys.add((min(cid, rid), max(cid, rid)))
    return rebuild_oracle(fabric, dead_nodes, keys)


def assert_same_degradation(got: DegradedFabric, want: DegradedFabric) -> None:
    a, b = got.fabric, want.fabric
    assert fabric_fingerprint(a) == fabric_fingerprint(b)
    np.testing.assert_array_equal(a.channels.reverse, b.channels.reverse)
    assert a.names == b.names
    assert a.coordinates == b.coordinates
    assert a.metadata == b.metadata
    assert list(a.metadata) == list(b.metadata)  # and in the same key order
    np.testing.assert_array_equal(got.node_map, want.node_map)
    np.testing.assert_array_equal(got.channel_map, want.channel_map)
    assert got.node_map.dtype == want.node_map.dtype
    assert got.channel_map.dtype == want.channel_map.dtype
    assert got.removed_cables == want.removed_cables
    assert got.removed_switches == want.removed_switches


def _outcome(fn, *args):
    """``("ok", result)`` or ``("error", type, message)``."""
    try:
        return ("ok", fn(*args))
    except Exception as err:  # noqa: BLE001 - the comparison is the point
        return ("error", type(err), str(err))


def assert_same_outcome(fabric, dead_switches, dead_cables) -> None:
    got = _outcome(degrade, fabric, dead_switches, dead_cables)
    want = _outcome(degrade_oracle, fabric, dead_switches, dead_cables)
    assert got[0] == want[0], (got, want)
    if got[0] == "ok":
        assert_same_degradation(got[1], want[1])
    else:
        assert got[1:] == want[1:]


@st.composite
def decorated_fabrics(draw):
    """A random builder fabric with trunks, mixed capacities, a
    dual-homed terminal, coordinates on some nodes and metadata (switch
    levels keyed by int or, as after a JSON round trip, by str)."""
    s = draw(st.integers(min_value=2, max_value=7))
    b = FabricBuilder()
    sw = b.add_switches(s)
    capacity = st.sampled_from([1.0, 0.5, 2.0, 4.0])
    for i in range(1, s):
        b.add_link(sw[i], sw[draw(st.integers(min_value=0, max_value=i - 1))],
                   capacity=draw(capacity), count=draw(st.integers(min_value=1, max_value=2)))
    pair = st.tuples(st.integers(min_value=0, max_value=s - 1),
                     st.integers(min_value=0, max_value=s - 1))
    for a, c in draw(st.lists(pair, max_size=s)):
        if a != c:
            b.add_link(sw[a], sw[c], capacity=draw(capacity))
    for switch in sw:
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            b.add_link(b.add_terminal(), switch)
    both = b.add_terminal(name="dual")
    for i in draw(st.lists(st.integers(min_value=0, max_value=s - 1),
                           min_size=1, max_size=2, unique=True)):
        b.add_link(both, sw[i])
    if draw(st.booleans()):
        b.add_switch(name="lone")  # no cables: its removal removes no cable
    nodes = len(b._kinds)
    for v in draw(st.lists(st.integers(min_value=0, max_value=nodes - 1), unique=True)):
        b.set_coordinates(v, (v % 3, v // 3))
    b.metadata = {"family": "drawn"}
    if draw(st.booleans()):
        key = draw(st.sampled_from([int, str]))
        b.metadata["switch_levels"] = {key(v): v % 3 for v in sw}
    if draw(st.booleans()):
        b.metadata["degraded"] = True  # already degraded once
    return b.build()


_quick = settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])


@_quick
@given(decorated_fabrics(), st.data())
def test_rebuild_matches_the_builder_reference(fabric, data):
    dead_switches = data.draw(st.lists(st.sampled_from(list(map(int, fabric.switches))),
                                       unique=True))
    keys = cable_keys(fabric)
    dead_cables = data.draw(st.lists(st.sampled_from(keys), max_size=4, unique=True)) if keys else []
    assert_same_outcome(fabric, dead_switches, dead_cables)


@_quick
@given(decorated_fabrics(), st.data())
def test_bad_switches_and_cables_raise_the_same_errors(fabric, data):
    """Terminals and out-of-range ids as switches; mismatched pairs and
    out-of-range ids as cables, alone or beside valid picks."""
    n, E = fabric.num_nodes, fabric.num_channels
    dead_switches = data.draw(st.lists(st.integers(min_value=-1, max_value=n), max_size=3))
    cid = st.integers(min_value=-1, max_value=E)
    cable = st.one_of(st.tuples(cid, cid), cid)
    dead_cables = data.draw(st.lists(cable, max_size=3))
    assert_same_outcome(fabric, dead_switches, dead_cables)


@pytest.mark.parametrize("make", [
    lambda: topologies.xgft(3, (4, 4, 3), (1, 2, 2)),  # switch_levels
    lambda: topologies.torus((3, 3, 3), 1),  # coordinates
    lambda: topologies.random_topology(12, 26, 2, seed=4),
], ids=["xgft", "torus", "random"])
@pytest.mark.parametrize("seed", range(4))
def test_injected_faults_match_the_reference(make, seed):
    fabric = make()
    rng = np.random.default_rng(seed)
    switches = rng.choice(fabric.switches, size=2, replace=False).tolist()
    keys = cable_keys(fabric)
    cables = [keys[int(i)] for i in rng.choice(len(keys), size=3, replace=False)]
    for dead_switches, dead_cables in (([], []), ([], cables), (switches, []),
                                       (switches, cables)):
        assert_same_outcome(fabric, dead_switches, dead_cables)
    # fail_links / fail_switches pick their victims, then rebuild
    links = fail_links(fabric, 2, seed=seed)
    dead = [key for key in keys if links.channel_map[key[0]] < 0]
    assert_same_degradation(links, degrade_oracle(fabric, [], dead))
    try:
        lost = fail_switches(fabric, 1, seed=seed)
    except FabricError:  # every switch protects a single-homed terminal
        return
    gone = [int(s) for s in fabric.switches if lost.node_map[s] < 0]
    assert_same_degradation(lost, degrade_oracle(fabric, gone, []))


def test_removing_a_cableless_switch_flags_the_fabric():
    """No cable goes with it, yet the fabric is degraded."""
    b = FabricBuilder()
    s0, s1 = b.add_switches(2)
    b.add_link(s0, s1)
    for s in (s0, s1):
        b.add_link(b.add_terminal(), s)
    lone = b.add_switch(name="lone")
    fabric = b.build()
    got = degrade(fabric, dead_switches=[lone])
    assert got.removed_cables == 0 and got.fabric.metadata["degraded"] is True
    assert_same_degradation(got, degrade_oracle(fabric, [lone]))
