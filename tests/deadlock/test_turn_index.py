"""The dependency index against the sort-based derivation it replaced.

``PathSet.turn_index()`` numbers the fabric's turns — switch-channel
pairs ``(c1, c2)`` that meet at a node — in ``(c1, c2)`` order, so
``dependency_edges`` / ``layer_edges`` read edges off a presence mask and
``LayerCDG`` counts its edge table with ``np.bincount``. The reference
here is the old derivation, kept in this file only: every consecutive
switch-channel pair packed as ``c1 << 32 | c2``, uniqued with
``np.unique`` and grouped with ``np.lexsort``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings, strategies as st

from repro.deadlock import LayerCDG, assign_layers_incremental
from repro.exceptions import ReproError, RoutingError
from repro.network import FabricBuilder
from repro.network.faults import cable_keys, degrade
from repro.routing import MinHopEngine, extract_paths
from repro.routing.paths import PathSet

SHIFT = 32
MASK = (1 << SHIFT) - 1

_examples = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def _reference_pairs(paths, pids):
    """Packed switch-channel pairs of the paths ``pids`` and, per pair, the
    index into ``pids`` of its path; path-major, in hop order."""
    is_sw = paths.fabric.is_switch_channel
    keys, rows = [], []
    for row, pid in enumerate(np.asarray(pids).tolist()):
        chans = paths.path(pid).tolist()
        for a, b in zip(chans, chans[1:]):
            if is_sw[a] and is_sw[b]:
                keys.append(a << SHIFT | b)
                rows.append(row)
    return np.array(keys, dtype=np.int64), np.array(rows, dtype=np.int64)


def _assert_layer_cdg_matches(paths, pids):
    """Edge table, weights and both CSR indexes against the reference."""
    keys, rows = _reference_pairs(paths, pids)
    edge_keys, eids, weight = np.unique(keys, return_inverse=True, return_counts=True)
    cdg = LayerCDG(paths, pids)
    cdg._mirror()
    want = {
        "edge_src": edge_keys >> SHIFT,
        "edge_dst": edge_keys & MASK,
        "weight": weight,
        "e_off": np.concatenate([[0], np.cumsum(weight)]),
        "e_rows": rows[np.lexsort((rows, keys))],
        "p_off": np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=len(pids)))]),
        "p_eids": eids,
    }
    for name, arr in want.items():
        np.testing.assert_array_equal(getattr(cdg, name), arr, err_msg=name)


def _assert_index_matches(paths, num_layers, seed):
    """A random layering (``-1`` leaves a path out) plus one layer nobody
    is in: every layer's edges, and its LayerCDG, equal the reference."""
    path_layers = np.random.default_rng(seed).integers(-1, num_layers, paths.num_paths)
    derived = paths.layer_edges(path_layers, num_layers + 1)
    assert len(derived) == num_layers + 1
    for layer, edges in enumerate(derived):
        pids = np.flatnonzero(path_layers == layer)
        keys = np.unique(_reference_pairs(paths, pids)[0])
        for src, dst in (edges, paths.dependency_edges(pids)):
            assert src.dtype == dst.dtype == np.int32
            np.testing.assert_array_equal(src, keys >> SHIFT)
            np.testing.assert_array_equal(dst, keys & MASK)
        _assert_layer_cdg_matches(paths, pids)
    _assert_layer_cdg_matches(paths, np.arange(paths.num_paths))


@st.composite
def fabrics(draw):
    """A spanning tree of 2–7 switches plus random extra cables (parallel
    ones included), 1–2 terminals per switch, one dual-homed terminal,
    and up to two dead switch cables."""
    s = draw(st.integers(min_value=2, max_value=7))
    b = FabricBuilder()
    sw = b.add_switches(s)
    for i in range(1, s):
        b.add_link(sw[i], sw[draw(st.integers(min_value=0, max_value=i - 1))])
    pair = st.tuples(st.integers(min_value=0, max_value=s - 1),
                     st.integers(min_value=0, max_value=s - 1))
    for a, c in draw(st.lists(pair, max_size=2 * s)):
        if a != c:
            b.add_link(sw[a], sw[c])  # may parallel a cable already there
    for switch in sw:
        for _ in range(draw(st.integers(min_value=1, max_value=2))):
            b.add_link(b.add_terminal(), switch)
    dual = b.add_terminal()
    for i in draw(st.lists(st.integers(min_value=0, max_value=s - 1),
                           min_size=2, max_size=2, unique=True)):
        b.add_link(dual, sw[i])
    fabric = b.build()
    switch_cables = [key for key in cable_keys(fabric) if fabric.is_switch_channel[key[0]]]
    dead = draw(st.lists(st.sampled_from(switch_cables), max_size=2, unique=True))
    return degrade(fabric, dead_cables=dead).fabric


def _random_walks(fabric, seed):
    """A hand-built path set: from each path's source switch, a random walk
    of 0–5 channels that repeats none and need not end at a terminal
    (U-turns and detours through the dual-homed terminal included)."""
    rng = np.random.default_rng(seed)
    chans, lengths = [], []
    for pid in range(fabric.num_switches * fabric.num_terminals):
        node, walk = int(fabric.switches[pid % fabric.num_switches]), []
        for _ in range(int(rng.integers(0, 6))):
            out = [c for c in fabric.out_channels(node).tolist() if c not in walk]
            if not out:
                break
            walk.append(int(rng.choice(out)))
            node = int(fabric.channels.dst[walk[-1]])
        chans += walk
        lengths.append(len(walk))
    offsets = np.concatenate([[0], np.cumsum(lengths)])
    return PathSet(fabric, offsets, np.array(chans, dtype=np.int32))


@_examples
@given(fabrics(), st.integers(min_value=1, max_value=3), st.integers(0, 2**32 - 1))
def test_routed_paths_match_the_sort_based_derivation(fabric, num_layers, seed):
    try:
        paths = extract_paths(MinHopEngine().route(fabric).tables)
    except ReproError:
        reject()  # the dead cables cut the fabric in two
    _assert_index_matches(paths, num_layers, seed)


@_examples
@given(fabrics(), st.integers(min_value=1, max_value=3), st.integers(0, 2**32 - 1))
def test_hand_built_paths_match_the_sort_based_derivation(fabric, num_layers, seed):
    _assert_index_matches(_random_walks(fabric, seed), num_layers, seed)


def test_a_path_that_repeats_a_channel_is_a_named_error(ring5):
    """Tables cannot produce one — ``extract_paths`` rejects forwarding
    loops — but a hand-built path once round the ring and on induces two
    pairs twice: the CSR build names it instead of counting it once."""
    ring = [ring5.channel_between(s, (s + 1) % 5) for s in range(5)]
    lengths = np.zeros(ring5.num_switches * ring5.num_terminals, dtype=np.int64)
    lengths[0] = 7
    paths = PathSet(ring5, np.concatenate([[0], np.cumsum(lengths)]),
                    np.array(ring + ring[:2], dtype=np.int32))
    with pytest.raises(RoutingError, match=r"path 0 induces the dependency \(\d+, \d+\) twice"):
        assign_layers_incremental(paths)
