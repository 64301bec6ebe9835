"""The comparators' array passes against the loops they replaced.

Up*/Down* and FatTree settle every destination column in level-synchronous
array passes over the CSR, DOR moves every switch of a column in one
NumPy pass, and FatTree levels its switches with array passes. The
per-node loops they replaced are kept here as oracles: the heapq dynamic
program (:func:`_dp_from_dest`), DOR's one call per (switch, destination)
(:func:`_step`) and the dict-based leveling (:func:`_tree_ranks`).
Hypothesis checks that each pass reproduces its oracle byte for byte:
every Up*/Down* and FatTree column and the port load after it, every DOR
table or error message, every tree rank array or error message.
"""

from __future__ import annotations

import heapq
from itertools import product

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from repro import topologies
from repro.exceptions import ReproError, UnsupportedTopologyError
from repro.network import (
    FabricBuilder, fabric_from_dict, fabric_to_dict, fail_links, fail_switches,
)
from repro.network.fabric import Fabric
from repro.routing import DOREngine, UpDownEngine, rank_switches, tree_ranks
from repro.routing.base import attach_terminals
from repro.routing.dor import _dims_and_wrap
from repro.routing.updown import _updown_graph

_TREE_FAMILIES = ("kary_ntree", "xgft")


def _dp_from_dest(fabric: Fabric, dest: int, rank: np.ndarray, load: np.ndarray) -> np.ndarray:
    """Choose a phase-consistent next hop for every node, in two stages.

    **Stage 1 (descent):** Dijkstra from the destination over *down*
    edges only. Every node settled here owns an all-down chosen path.
    The BFS-tree argument guarantees the Up*/Down* root is always
    among them (the tree path root→…→dest's switch descends).

    **Stage 2 (ascent):** remaining nodes relax exclusively via *up*
    edges into already-settled nodes. Prepending an up hop to any
    legal path stays ``up* down*``, so realized routes are legal by
    construction; every non-root switch has an up neighbor, so all
    nodes settle.

    Descent nodes keep their all-down path even when a shorter
    up-then-down mixture exists — the conservative choice that makes
    destination-based tables phase-consistent. Ties break on port
    load (OpenSM-style balancing), then insertion order.
    """
    n = fabric.num_nodes
    chosen = np.full(n, -1, dtype=np.int32)
    settled = np.zeros(n, dtype=bool)
    dist = np.zeros(n, dtype=np.int64)
    chan_dst = fabric.channels.dst
    reverse = fabric.channels.reverse

    def goes_down(u: int, v: int) -> bool:
        """Does the channel u->v descend? Terminals hang below their
        switches; among switches, strictly larger (rank, id) is lower."""
        if fabric.is_terminal(v):
            return True
        if fabric.is_terminal(u):
            return False
        return (rank[v], v) > (rank[u], u)

    counter = 0

    def push_predecessors(heap: list, u: int, want_down: bool):
        nonlocal counter
        du = int(dist[u])
        for c_out in fabric.out_channels(u):
            c = int(reverse[c_out])  # channel p -> u
            p = int(chan_dst[c_out])
            if settled[p]:
                continue
            if goes_down(p, u) != want_down:
                continue
            counter += 1
            heapq.heappush(heap, (du + 1, int(load[c]), counter, p, c))

    def run(heap: list, want_down: bool):
        while heap:
            d, _lc, _cnt, node, c = heapq.heappop(heap)
            if settled[node]:
                continue
            settled[node] = True
            dist[node] = d
            chosen[node] = c
            if fabric.is_switch(node):
                # Terminals never forward traffic for others.
                push_predecessors(heap, node, want_down)

    settled[dest] = True
    down_heap: list = []
    push_predecessors(down_heap, dest, want_down=True)
    run(down_heap, want_down=True)

    up_heap: list = []
    for u in range(n):
        if settled[u] and fabric.is_switch(u):
            push_predecessors(up_heap, u, want_down=False)
    push_predecessors(up_heap, dest, want_down=False)
    run(up_heap, want_down=False)
    chosen[dest] = -1
    return chosen


def _dor_reference(fabric: Fabric) -> np.ndarray:
    """The per-(switch, destination) DOR loop: its table, or its error."""
    dims, wrap = _dims_and_wrap(fabric)
    coords = fabric.coordinates
    for s in fabric.switches:
        if int(s) not in coords or len(coords[int(s)]) != len(dims):
            raise UnsupportedTopologyError(
                f"switch {int(s)} lacks {len(dims)}-dimensional coordinates"
            )
    coord_to_switch = {coords[int(s)]: int(s) for s in fabric.switches}

    next_channel = np.full((fabric.num_nodes, fabric.num_terminals), -1, dtype=np.int32)
    target = attach_terminals(fabric, next_channel)
    for t_idx, tgt in enumerate(target.tolist()):
        tc = coords[tgt]
        for s in fabric.switches.tolist():
            if s != tgt:
                next_channel[s, t_idx] = _step(
                    fabric, coords, coord_to_switch, dims, wrap, s, tc, t_idx
                )
    return next_channel


def _step(fabric, coords, coord_to_switch, dims, wrap, s, tc, t_idx) -> int:
    sc = coords[s]
    for axis, size in enumerate(dims):
        delta = (tc[axis] - sc[axis]) % size
        if delta == 0:
            continue
        if wrap:
            # Shorter wrap direction; ties go positive.
            step = 1 if delta <= size - delta else -1
        else:
            step = 1 if tc[axis] > sc[axis] else -1
        nxt = list(sc)
        nxt[axis] = (sc[axis] + step) % size if wrap else sc[axis] + step
        nxt_switch = coord_to_switch.get(tuple(nxt))
        if nxt_switch is None:
            raise UnsupportedTopologyError(
                f"coordinate grid incomplete at {tuple(nxt)} "
                f"(degraded fabric?); DOR cannot route"
            )
        chans = fabric.channels_between(s, nxt_switch)
        if not chans:
            raise UnsupportedTopologyError(
                f"missing cable {sc} -> {tuple(nxt)}; DOR cannot route"
            )
        return chans[t_idx % len(chans)]
    raise AssertionError("DOR step called with source == target")  # pragma: no cover


def _infer_switch_levels(fabric: Fabric) -> dict[int, int]:
    """Detect a fat-tree leveling structurally (OpenSM's ftree does the
    same on the live subnet).

    Rules: every switch with attached terminals is a leaf (level 1);
    other switches take 1 + (hop distance to the nearest leaf). The
    result must satisfy (a) every cable connects adjacent levels, and
    (b) all "roots" (switches without up-links) sit on the single top
    level. Violations — trunked leaf-to-leaf cables, mid-level terminals,
    capped sub-spines — raise :class:`UnsupportedTopologyError`, which is
    how the irregular real-world systems end up as the paper's missing
    bars.
    """
    from collections import deque

    levels: dict[int, int] = {}
    queue: deque[int] = deque()
    for s in fabric.switches:
        s = int(s)
        if any(fabric.is_terminal(int(n)) for n in fabric.neighbors(s)):
            levels[s] = 1
            queue.append(s)
    if not queue:
        raise UnsupportedTopologyError("no leaf switches (no terminals attached?)")
    while queue:
        v = queue.popleft()
        for n in fabric.neighbors(v):
            n = int(n)
            if fabric.is_switch(n) and n not in levels:
                levels[n] = levels[v] + 1
                queue.append(n)
    for s in fabric.switches:
        if int(s) not in levels:
            raise UnsupportedTopologyError(f"switch {int(s)} is not level-reachable")
    # (a) adjacency of levels.
    for cid in fabric.switch_channel_ids():
        u = int(fabric.channels.src[cid])
        v = int(fabric.channels.dst[cid])
        if abs(levels[u] - levels[v]) != 1:
            raise UnsupportedTopologyError(
                f"cable {u}<->{v} connects levels {levels[u]} and {levels[v]}; "
                f"not a fat tree"
            )
    # (b) all roots on the top level.
    top = max(levels.values())
    for s in fabric.switches:
        s = int(s)
        if levels[s] == top:
            continue
        if not any(
            fabric.is_switch(int(n)) and levels[int(n)] == levels[s] + 1
            for n in fabric.neighbors(s)
        ):
            raise UnsupportedTopologyError(
                f"switch {s} at level {levels[s]} has no up-links; not a fat tree"
            )
    return levels


def _tree_ranks(fabric: Fabric) -> np.ndarray:
    """Ranks (0 = top level) from generator metadata, or inferred
    structurally when the fabric was not built by a tree generator.

    Raises :class:`UnsupportedTopologyError` when the fabric is not a
    leveled tree (e.g. after failure injection removed switches).
    """
    levels = fabric.metadata.get("switch_levels")
    if levels:
        if fabric.metadata.get("family") not in _TREE_FAMILIES:
            raise UnsupportedTopologyError(
                f"switch_levels metadata present but family "
                f"{fabric.metadata.get('family')!r} is not a tree"
            )
        # JSON round-trips turn int keys into strings; normalise.
        levels = {int(k): int(v) for k, v in levels.items()}
    else:
        levels = _infer_switch_levels(fabric)
    max_level = max(levels.values())
    rank = np.full(fabric.num_nodes, -1, dtype=np.int64)
    for s in fabric.switches:
        s = int(s)
        if s not in levels:
            raise UnsupportedTopologyError(f"switch {s} has no tree level")
        rank[s] = max_level - int(levels[s])
    # Structural check: switch cables must connect adjacent levels.
    for cid in fabric.switch_channel_ids():
        u = int(fabric.channels.src[cid])
        v = int(fabric.channels.dst[cid])
        if abs(int(rank[u]) - int(rank[v])) != 1:
            raise UnsupportedTopologyError(
                f"cable {u}<->{v} does not connect adjacent tree levels"
            )
    return rank


_examples = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _outcome(fn, *args):
    """``fn(*args)``, or the class name and message of its ReproError."""
    try:
        return fn(*args)
    except ReproError as err:
        return f"{type(err).__name__}: {err}"


def _assert_same(got, want):
    """The same error message, or equal arrays of one dtype."""
    if isinstance(want, str) or isinstance(got, str):
        assert [got if isinstance(got, str) else "no error"] == [
            want if isinstance(want, str) else "no error"
        ]
    else:
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def _assert_columns_match(fabric: Fabric, rank: np.ndarray) -> None:
    """Every destination column of the array pass and the load after it
    against the heap DP, fed its own load as ``updown_tables`` did."""
    graph = _updown_graph(fabric, rank)
    load = np.zeros(fabric.num_channels, dtype=np.int64)
    ref_load = np.zeros(fabric.num_channels, dtype=np.int64)
    for t_idx, dest in enumerate(fabric.terminals.tolist()):
        want = _dp_from_dest(fabric, dest, rank, ref_load)
        np.add.at(ref_load, want[want >= 0], 1)
        got = UpDownEngine._dp_from_dest(fabric, dest, graph, load)
        _assert_same(got, want)
        np.testing.assert_array_equal(load, ref_load, err_msg=f"load after column {t_idx}")


def _with_extra_cables(fabric: Fabric, picks: list[tuple[int, int]]) -> Fabric:
    """``fabric`` plus one cable per ``(terminal index, switch index)``
    pick (modulo the counts): multi-homed and multi-cabled terminals."""
    data = fabric_to_dict(fabric)
    for t, s in picks:
        data["cables"].append({
            "a": int(fabric.terminals[t % fabric.num_terminals]),
            "b": int(fabric.switches[s % fabric.num_switches]),
            "capacity": 1.0,
        })
    return fabric_from_dict(data)


@st.composite
def irregular_fabrics(draw):
    """Random fabrics, sometimes trunked, cut by ``fail_links``, or with
    multi-homed terminals."""
    s = draw(st.integers(3, 10))
    links = min(s - 1 + draw(st.integers(0, 10)), s * (s - 1) // 2)
    trunked = draw(st.booleans())
    fabric = topologies.random_topology(
        s, links + 2 * trunked, draw(st.integers(1, 3)), seed=draw(st.integers(0, 10_000)),
        allow_parallel=trunked,
    )
    cut = draw(st.integers(0, 3))
    if cut:
        fabric = fail_links(fabric, min(cut, links), seed=draw(st.integers(0, 99))).fabric
    picks = draw(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=4))
    return _with_extra_cables(fabric, picks) if picks else fabric


@_examples
@given(irregular_fabrics(), st.one_of(st.none(), st.integers(0, 99)))
def test_updown_columns_match_the_heap_dp(fabric, root):
    if root is not None:
        root = int(fabric.switches[root % fabric.num_switches])
    ranked = _outcome(rank_switches, fabric, root)
    assume(not isinstance(ranked, str))
    _assert_columns_match(fabric, ranked[0])


@st.composite
def tree_fabrics(draw):
    """k-ary n-trees and XGFTs, some with switches failed, some stripped
    of their level metadata; scaled-down real-world Clos systems; and
    random fabrics, which FatTree refuses."""
    kind = draw(st.sampled_from(("ktree", "xgft", "cluster", "random")))
    if kind == "ktree":
        fabric = topologies.kary_ntree(draw(st.integers(2, 4)), draw(st.integers(1, 3)))
    elif kind == "xgft":
        h = draw(st.integers(1, 3))
        ms = tuple(draw(st.lists(st.integers(1, 4), min_size=h, max_size=h)))
        ws = (1,) + tuple(draw(st.lists(st.integers(1, 3), min_size=h - 1, max_size=h - 1)))
        fabric = topologies.xgft(h, ms, ws)
    elif kind == "cluster":
        name = draw(st.sampled_from(("odin", "deimos", "chic", "tsubame", "juropa")))
        return topologies.cluster(name, scale=draw(st.sampled_from((0.08, 0.15, 0.3))))
    else:
        return draw(irregular_fabrics())
    failed = draw(st.integers(0, 2))
    if failed:
        degraded = _outcome(fail_switches, fabric, failed, draw(st.integers(0, 99)))
        if not isinstance(degraded, str):
            fabric = degraded.fabric
    if draw(st.booleans()):
        metadata = {k: v for k, v in fabric.metadata.items() if k != "switch_levels"}
        fabric = Fabric(fabric.kinds, fabric.channels, fabric.names, fabric.coordinates, metadata)
    return fabric


@_examples
@given(tree_fabrics())
def test_tree_ranks_and_ftree_columns_match_the_loops(fabric):
    rank = _outcome(tree_ranks, fabric)
    want = _outcome(_tree_ranks, fabric)
    _assert_same(rank, want)
    if not isinstance(rank, str):
        _assert_columns_match(fabric, rank)


def _grid(dims, wrap, holes, trunk, terminals):
    """A torus or mesh with the switches at ``holes`` (indices into the
    grid) missing, every cable ``trunk`` wide and ``terminals[i % len]``
    terminals on the i-th switch."""
    b = FabricBuilder()
    index = {}
    for i, c in enumerate(product(*(range(d) for d in dims))):
        if i in holes:
            continue
        index[c] = b.add_switch()
        b.set_coordinates(index[c], c)
        for _ in range(terminals[i % len(terminals)]):
            b.add_link(b.add_terminal(), index[c])
    for c, s in index.items():
        for axis, size in enumerate(dims):
            nxt = list(c)
            nxt[axis] = c[axis] + 1 if c[axis] + 1 < size else (0 if wrap and size > 2 else None)
            if nxt[axis] is not None and tuple(nxt) in index:
                b.add_link(s, index[tuple(nxt)], count=trunk)
    b.metadata = {"family": "torus" if wrap else "mesh", "dims": tuple(dims), "wraparound": wrap}
    return b.build()


@st.composite
def coordinate_fabrics(draw):
    """Generated tori, meshes, hypercubes and rings, some cut by
    ``fail_links``; and hand-built grids with holes, trunks and switches
    without terminals."""
    kind = draw(st.sampled_from(("torus", "mesh", "hypercube", "ring", "grid")))
    tps = draw(st.integers(1, 2))
    dims = tuple(draw(st.lists(st.integers(2, 5), min_size=1, max_size=3)))
    if kind == "grid":
        cells = int(np.prod(dims))
        holes = set(draw(st.lists(st.integers(0, cells - 1), max_size=2)))
        assume(len(holes) < cells)
        terminals = draw(st.lists(st.integers(0, 2), min_size=1, max_size=4))
        assume(any(terminals))
        return _grid(dims, draw(st.booleans()), holes, draw(st.integers(1, 3)), terminals)
    fabric = {
        "torus": lambda: topologies.torus(dims, tps),
        "mesh": lambda: topologies.mesh(dims, tps),
        "hypercube": lambda: topologies.hypercube(len(dims) + 1, tps),
        "ring": lambda: topologies.ring(dims[0] + 1, tps),
    }[kind]()
    cut = draw(st.integers(0, 2))
    cables = int(np.count_nonzero(fabric.is_switch_channel)) // 2
    if cut and cables > cut:
        fabric = fail_links(fabric, cut, seed=draw(st.integers(0, 99))).fabric
    return fabric


@_examples
@given(coordinate_fabrics())
def test_dor_tables_and_errors_match_the_step_loop(fabric):
    got = _outcome(lambda f: DOREngine()._route(f).tables.next_channel, fabric)
    _assert_same(got, _outcome(_dor_reference, fabric))


@pytest.mark.parametrize("holes, message", [
    ({4}, "coordinate grid incomplete at (1, 1)"),
    (set(), None),
])
def test_dor_grid_with_a_hole(holes, message):
    fabric = _grid((3, 3), False, holes, 2, [1])
    want = _outcome(_dor_reference, fabric)
    got = _outcome(lambda f: DOREngine()._route(f).tables.next_channel, fabric)
    _assert_same(got, want)
    assert (message in got) if message else not isinstance(got, str)
