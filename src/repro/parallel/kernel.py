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

:func:`hops_to_dest` is the weight-independent sibling: plain BFS levels
toward a destination, equal to Dijkstra distances under uniform weights.
The parallel executor fans it out to worker processes because hop columns
never go stale (see :mod:`repro.parallel.executor`).
"""

from __future__ import annotations

import numpy as np

from repro.core.sssp import KERNELS, dijkstra_to_dest
from repro.network.fabric import Fabric
from repro.service.budget import check_budget

INT64_INF = np.iinfo(np.int64).max


def resolve_kernel(name: str):
    """Map a kernel name to its ``(fabric, dest, weights)`` callable."""
    if name == "python":
        return dijkstra_to_dest
    if name == "numpy":
        return dijkstra_to_dest_numpy
    raise ValueError(f"kernel must be one of {KERNELS}, got {name!r}")


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


def hops_to_dest(fabric: Fabric, dest: int) -> np.ndarray:
    """Minimum hop count from every node to ``dest`` (-1 if unreachable).

    Equals ``dijkstra_to_dest(fabric, dest, ones)[0]`` (with unreachable
    mapped to -1): BFS levels are Dijkstra distances under uniform unit
    weights. Terminals never forward, exactly as in the weighted kernels.
    """
    n = fabric.num_nodes
    hops = np.full(n, -1, dtype=np.int32)
    hops[dest] = 0
    forwards = fabric.kinds == 0
    forwards = forwards.copy()
    forwards[dest] = True
    out_ptr = fabric.out_ptr
    out_chan = fabric.out_chan
    chan_dst = fabric.channels.dst
    frontier = np.array([dest], dtype=np.int64)
    level = 0
    while len(frontier):
        check_budget()
        senders = frontier[forwards[frontier]]
        if not len(senders):
            break
        starts = out_ptr[senders]
        lens = (out_ptr[senders + 1] - starts).astype(np.int64)
        total = int(lens.sum())
        if not total:
            break
        flat = np.repeat(starts, lens) + (
            np.arange(total) - np.repeat(np.cumsum(lens) - lens, lens)
        )
        v = chan_dst[out_chan[flat]]  # predecessors reached via (v -> sender)
        v = v[hops[v] < 0]
        if not len(v):
            break
        level += 1
        hops[v] = level
        # The new level, sorted and deduplicated: one scan of ``hops`` costs
        # less than np.unique's sort of ``v``.
        frontier = np.flatnonzero(hops == level)
    return hops
