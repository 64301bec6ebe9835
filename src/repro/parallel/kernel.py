"""Vectorized routing kernels.

Two interchangeable implementations of the per-destination shortest-path
primitive drive the SSSP/DFSSSP engines:

* ``"python"`` — the reference binary-heap Dijkstra
  (:func:`repro.core.sssp.dijkstra_to_dest`), one relaxation at a time;
* ``"numpy"`` — :func:`dijkstra_to_dest_numpy`, a masked-argmin frontier
  over the fabric's flat channel arrays.

The numpy kernel settles *every* node at the current minimum tentative
distance in one step (their final distances are equal, so Dijkstra's
invariant holds for the whole group) and relaxes all of the group's
predecessor channels with one ``lexsort`` over ``(distance, channel id)``.
That reproduces the heap kernel's tie-breaking exactly: at convergence
``parent[v]`` is the lowest channel id among the channels ``(v -> u)``
that minimise ``dist[u] + weight[c]`` — a property of the *fixpoint*, not
of the relaxation order — so the two kernels are bit-identical, which the
differential suite (``tests/parallel``) asserts on every topology family.

:func:`hop_rows` is the weight-independent sibling: plain BFS levels
toward a block of roots, equal to Dijkstra distances under uniform
weights. Hop rows never go stale, so they are the one part of Algorithm 1
a thread pool can compute ahead (see :mod:`repro.parallel.executor`).
"""

from __future__ import annotations

from typing import NamedTuple
from weakref import WeakKeyDictionary

import numpy as np

from repro.network.fabric import Fabric, csr_gather
from repro.service.budget import check_budget

INT64_INF = np.iinfo(np.int64).max


def dijkstra_to_dest_numpy(fabric: Fabric, dest: int, weights: np.ndarray):
    """Weighted shortest paths to ``dest``, vectorized.

    Bit-identical to :func:`repro.core.sssp.dijkstra_to_dest`: same
    ``(dist, parent)`` arrays, including the (distance, node id, channel
    id) tie-breaking and the terminals-never-forward rule.
    """
    n = fabric.num_nodes
    dist = np.full(n, INT64_INF, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int32)
    dist[dest] = 0
    settled = np.zeros(n, dtype=bool)
    forwards = fabric.kinds == 0  # NodeKind.SWITCH
    forwards = forwards.copy()
    forwards[dest] = True
    out_ptr = fabric.out_ptr
    out_chan = fabric.out_chan
    reverse = fabric.channels.reverse
    chan_dst = fabric.channels.dst
    # `frontier_key` mirrors dist but flips to INF once a node settles, so
    # the masked argmin is a single vector min per step.
    frontier_key = dist.copy()
    while True:
        check_budget()  # cooperative deadline, once per settled group
        d = frontier_key.min()
        if d == INT64_INF:
            break
        group = np.flatnonzero(frontier_key == d)
        settled[group] = True
        frontier_key[group] = INT64_INF
        senders = group[forwards[group]]
        if not len(senders):
            continue
        # Gather the out-channel CSR slices of every sender at once.
        starts = out_ptr[senders]
        lens = (out_ptr[senders + 1] - starts).astype(np.int64)
        total = int(lens.sum())
        if not total:
            continue
        flat = np.repeat(starts, lens) + (
            np.arange(total) - np.repeat(np.cumsum(lens) - lens, lens)
        )
        c_out = out_chan[flat]  # channels (u -> v), u in senders
        c_in = reverse[c_out]  # forward channels (v -> u)
        v = chan_dst[c_out]
        keep = ~settled[v]
        c_in = c_in[keep]
        v = v[keep]
        if not len(v):
            continue
        nd = d + weights[c_in]
        # Best (distance, channel) candidate per predecessor node: group by
        # node, order each group by (distance, channel id), take the first.
        order = np.lexsort((c_in, nd, v))
        v_sorted = v[order]
        first = np.ones(len(v_sorted), dtype=bool)
        first[1:] = v_sorted[1:] != v_sorted[:-1]
        v_best = v_sorted[first]
        nd_best = nd[order][first]
        c_best = c_in[order][first]
        improves = (nd_best < dist[v_best]) | (
            (nd_best == dist[v_best]) & (c_best < parent[v_best])
        )
        v_upd = v_best[improves]
        dist[v_upd] = nd_best[improves]
        parent[v_upd] = c_best[improves].astype(np.int32)
        frontier_key[v_upd] = dist[v_upd]
    return dist, parent


class _SwitchGraph(NamedTuple):
    """A fabric's switches as a CSR graph, plus each terminal's way in.

    ``ptr`` / ``nbr`` list, per switch index, the switch indices of its
    switch neighbours (one entry per channel, CSR order). ``term`` /
    ``term_sw`` / ``term_starts`` are the terminal -> switch channels:
    their terminal, the switch index they enter, and where each
    terminal's run starts.
    """

    ptr: np.ndarray
    nbr: np.ndarray
    term: np.ndarray
    term_sw: np.ndarray
    term_starts: np.ndarray


#: derived once per fabric (immutable) and dropped with it
_switch_graphs: WeakKeyDictionary = WeakKeyDictionary()


def _switch_graph(fabric: Fabric) -> _SwitchGraph:
    graph = _switch_graphs.get(fabric)
    if graph is None:
        chan = fabric.out_chan  # grouped by source node, so by switch index too
        src, dst = fabric.channels.src[chan], fabric.channels.dst[chan]
        src_sw, dst_sw = fabric.kinds[src] == 0, fabric.kinds[dst] == 0
        trunk = src_sw & dst_sw
        ptr = np.zeros(fabric.num_switches + 1, dtype=np.int64)
        np.cumsum(np.bincount(fabric.switch_index[src[trunk]],
                              minlength=fabric.num_switches), out=ptr[1:])
        up = ~src_sw & dst_sw
        term = src[up]
        first = np.r_[True, term[1:] != term[:-1]][: len(term)]
        graph = _SwitchGraph(ptr, fabric.switch_index[dst[trunk]].astype(np.int64),
                             term[first], fabric.switch_index[dst[up]],
                             np.flatnonzero(first))
        for arr in graph:  # shared by every caller on this fabric
            arr.flags.writeable = False
        _switch_graphs[fabric] = graph
    return graph


def hop_rows(fabric: Fabric, roots) -> np.ndarray:
    """Minimum hop counts toward each of ``roots``: row ``i`` is the hop
    column of ``roots[i]`` (-1 where unreachable), as ``int32 (len(roots),
    num_nodes)``.

    One breadth-first search in switch space serves the whole block:
    only switches forward, so a level is one gather over the frontier
    switches' switch neighbours, for every root at once. A terminal root
    seeds its switch neighbours at level 1. Every other terminal then
    sits one hop beyond its nearest reached switch; a root's own
    neighbours are at 1 and the root at 0. The compute budget is polled
    once per level.
    """
    roots = np.asarray(roots, dtype=np.int64).reshape(-1)
    graph = _switch_graph(fabric)
    B, S = len(roots), fabric.num_switches
    level_of = np.full(B * S, -1, dtype=np.int32)
    row = np.arange(B, dtype=np.int64)
    at_switch = fabric.kinds[roots] == 0
    level_of[row[at_switch] * S + fabric.switch_index[roots[at_switch]]] = 0
    # A terminal root: every channel out of it leads to a level-1 node.
    owner, flat = csr_gather(fabric.out_ptr, roots[~at_switch])
    near = fabric.channels.dst[fabric.out_chan[flat]]
    near_row = row[~at_switch][owner]
    seeds = fabric.kinds[near] == 0
    level_of[near_row[seeds] * S + fabric.switch_index[near[seeds]]] = 1
    frontier = np.flatnonzero(level_of == 0)
    level = 0
    while True:
        check_budget()
        if len(frontier):
            b, u = np.divmod(frontier, S)
            owner, flat = csr_gather(graph.ptr, u)
            v = b[owner] * S + graph.nbr[flat]
            v = v[level_of[v] < 0]
            level_of[v] = level + 1
        level += 1
        frontier = np.flatnonzero(level_of == level)
        if not len(frontier):
            break
    level_of = level_of.reshape(B, S)
    hops = np.full((B, fabric.num_nodes), -1, dtype=np.int32)
    hops[:, fabric.switches] = level_of
    if len(graph.term):
        unreached = np.iinfo(np.int32).max - 1
        via = level_of[:, graph.term_sw]
        via[via < 0] = unreached
        nearest = np.minimum.reduceat(via, graph.term_starts, axis=1) + 1
        nearest[nearest > unreached] = -1
        hops[:, graph.term] = nearest
    hops[near_row, near] = 1
    hops[row, roots] = 0
    return hops


def hops_to_dest(fabric: Fabric, dest: int) -> np.ndarray:
    """Minimum hop count from every node to ``dest`` (-1 if unreachable).

    Equals ``dijkstra_to_dest(fabric, dest, ones)[0]`` (with unreachable
    mapped to -1): BFS levels are Dijkstra distances under uniform unit
    weights. Terminals never forward, exactly as in the weighted kernels.
    The one-root case of :func:`hop_rows`.
    """
    return hop_rows(fabric, [dest])[0]
