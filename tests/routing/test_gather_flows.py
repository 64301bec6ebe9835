"""``gather_flows`` against the per-flow loop it replaced.

Every flow consumer — both congestion simulators, the adversary and
``flow_channels`` — reads terminal-to-terminal flows from
:func:`repro.routing.paths.gather_flows`. The reference here is the loop
each of them used to carry, kept in this file only: the injection channel
from the source's table row, then the switch-level path from the
first-hop switch.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import topologies
from repro.core import DFSSSPEngine
from repro.exceptions import RoutingError
from repro.routing import MinHopEngine, RoutingTables, extract_paths, flow_channels
from repro.routing.paths import gather_flows

FAMILIES = {
    "deimos": lambda: topologies.deimos(scale=0.1),  # trunked directors
    "chic": lambda: topologies.chic(scale=0.1),  # dual-homed storage nodes
    "ranger": lambda: topologies.ranger(scale=0.04),  # dual-homed chassis
    "random": lambda: topologies.random_topology(12, 30, 2, seed=5),
    "torus": lambda: topologies.torus((3, 4), 2),
}

_routed: dict = {}


def _routing(family):
    if family not in _routed:
        fab = FAMILIES[family]()
        engine = MinHopEngine() if family == "deimos" else DFSSSPEngine()
        tables = engine.route(fab).tables
        _routed[family] = (tables, extract_paths(tables))
    return _routed[family]


def _reference(tables, paths, src, dst):
    fab = tables.fabric
    flows = []
    for s, d in zip(src, dst):
        t_idx = int(fab.term_index[d])
        inject = int(tables.next_channel[s, t_idx])
        first = int(fab.switch_index[fab.channels.dst[inject]])
        flows.append(np.concatenate([[inject], paths.path(t_idx * fab.num_switches + first)]))
    offsets = np.concatenate([[0], np.cumsum([len(f) for f in flows])])
    return np.concatenate(flows).astype(np.int32), offsets


@st.composite
def patterns(draw):
    family = draw(st.sampled_from(sorted(FAMILIES)))
    tables, paths = _routing(family)
    T = tables.fabric.num_terminals
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, T - 1), st.integers(0, T - 2)), min_size=1, max_size=40
        )
    )
    terms = tables.fabric.terminals
    # The destination skips the source's index: never a self-flow.
    src = [int(terms[s]) for s, _ in pairs]
    dst = [int(terms[d + (d >= s)]) for s, d in pairs]
    return tables, paths, src, dst


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(patterns())
def test_gather_matches_the_per_flow_loop(case):
    tables, paths, src, dst = case
    flat, offsets = gather_flows(tables, paths, src, dst)
    want_flat, want_offsets = _reference(tables, paths, src, dst)
    np.testing.assert_array_equal(offsets, want_offsets)
    np.testing.assert_array_equal(flat, want_flat)
    assert flat.dtype == paths.chans.dtype  # the path set's channel-id width
    for i in (0, len(src) - 1):
        one = flow_channels(tables, paths, src[i], dst[i])
        np.testing.assert_array_equal(one, flat[offsets[i] : offsets[i + 1]])


def test_no_injection_entry_is_a_named_error():
    tables, paths = _routing("random")
    fab = tables.fabric
    src, dst = int(fab.terminals[0]), int(fab.terminals[3])
    nc = tables.next_channel.copy()
    nc[src, fab.term_index[dst]] = -1
    broken = RoutingTables(fab, nc)
    with pytest.raises(RoutingError, match=f"no injection channel from terminal {src} to {dst}"):
        gather_flows(broken, paths, [int(fab.terminals[1]), src], [dst, dst])


def test_self_flow_is_a_named_error():
    tables, paths = _routing("torus")
    t = int(tables.fabric.terminals[2])
    other = int(tables.fabric.terminals[0])
    with pytest.raises(RoutingError, match=rf"flow \({t}, {t}\) requires distinct endpoints"):
        gather_flows(tables, paths, [other, t], [t, t])


def test_non_terminal_endpoint_is_a_named_error():
    """A switch id would otherwise index the table's last column."""
    tables, paths = _routing("torus")
    fab = tables.fabric
    t, sw = int(fab.terminals[1]), int(fab.switches[0])
    for src, dst in ((t, sw), (sw, t)):
        with pytest.raises(RoutingError, match="references a non-terminal"):
            gather_flows(tables, paths, [src], [dst])
