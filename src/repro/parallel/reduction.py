"""Exact, order-preserving reduction for fanned-out routing columns.

The data dependency that makes SSSP hard to parallelize is the balancing
weights: destination *t*'s Dijkstra runs on weights updated by every
destination before it, so per-destination trees cannot simply be computed
concurrently. The reduction here resolves that dependency *exactly*:

1. Workers ship back the **hop column** per destination — minimum hop
   counts, which do not depend on the weights at all and therefore never
   go stale (see :mod:`repro.parallel.executor`).
2. In the fixed serial destination order, :meth:`ExactReduction.refine`
   rebuilds the weighted tree *restricted to the min-hop DAG* under the
   current weights — a handful of vectorized level sweeps instead of a
   full Dijkstra. Because SSSP's initial weight ``W0 = T**2 + 1``
   dominates any accumulated balancing weight, the weighted shortest
   paths are hop-minimal in practice, and the DAG-restricted optimum
   coincides with the unrestricted one.
3. :meth:`ExactReduction.validate` then *proves* the candidate column is
   exactly what serial Dijkstra would produce: with strictly positive
   weights, ``(dist, parent)`` is the serial answer **iff** it is the
   unique Bellman fixpoint with the lowest-channel-id tie-break
   (``parent[v]`` = min channel id among minimisers of
   ``dist[u] + weight[c]`` over channels ``(v -> u)`` into forwarding
   nodes). That is one vectorized O(E) pass. If validation ever fails
   (e.g. a pathological fabric where balancing weight overwhelms ``W0``),
   the caller falls back to a full per-destination Dijkstra — so the
   parallel engine is bit-identical to the serial one *unconditionally*,
   not merely when the hop-minimality heuristic holds.

``weights`` are then advanced with the ordinary
:func:`repro.core.sssp.update_weights_for_dest`, keeping the weight
stream byte-for-byte equal to the serial engine's.

:meth:`ExactReduction.column` is steps 2–3 plus the fallback as one
routine. The pool reducer feeds it the workers' hop columns; the serial
numpy engine and the incremental repair let it sweep the hops itself —
the same validated column either way, at a fraction of a frontier
Dijkstra's cost (:func:`column_routine` picks it for ``kernel="numpy"``).
"""

from __future__ import annotations

import numpy as np

from repro.network.fabric import Fabric
from repro.obs import get_registry
from repro.parallel.kernel import INT64_INF, hops_to_dest, resolve_kernel


def column_routine(fabric: Fabric, kernel: str, engine_name: str = "sssp"):
    """``(dest, weights) -> (dist, parent)`` for one serial column.

    ``"numpy"`` routes through :meth:`ExactReduction.column`; the
    ``"python"`` reference and the ``"native"`` jit run their Dijkstra
    directly. All three return identical arrays.
    """
    if kernel == "numpy":
        return ExactReduction(fabric, kernel, engine_name).column
    dijkstra = resolve_kernel(kernel)
    return lambda dest, weights: dijkstra(fabric, dest, weights)


class ExactReduction:
    """Per-run scratch state for the refine/validate steps.

    Groups the fabric's channels by their source node once (reusing the
    CSR out-channel layout) so each per-destination step is pure vector
    arithmetic. ``kernel`` names the Dijkstra a column falls back to when
    validation fails; ``engine_name`` labels the fallback counter.
    """

    def __init__(self, fabric: Fabric, kernel: str = "numpy", engine_name: str = "sssp"):
        self.fabric = fabric
        self._dijkstra = resolve_kernel(kernel)
        self._m_fallbacks = get_registry().counter(
            "routing_parallel_fallbacks",
            "reduction columns that failed validation and re-ran full Dijkstra",
            engine=engine_name,
        )
        # Channels grouped by src node, lowest channel id first — exactly
        # the CSR out-channel ordering.
        self.chan = fabric.out_chan.astype(np.int64)
        self.chan_src = fabric.channels.src[self.chan]
        self.chan_dst = fabric.channels.dst[self.chan]
        self.dst_is_switch = fabric.kinds[self.chan_dst] == 0  # NodeKind.SWITCH

    # ------------------------------------------------------------------
    def column(self, dest: int, weights: np.ndarray, hops: np.ndarray | None = None):
        """Exactly the serial Dijkstra's ``(dist, parent)`` toward ``dest``.

        Refines ``hops`` (swept here when the caller has no worker-made
        column) on the min-hop DAG, validates the candidate against the
        Bellman fixpoint and re-runs the full Dijkstra when it fails.
        """
        if hops is None:
            hops = hops_to_dest(self.fabric, dest)
        dist, parent = self.refine(dest, hops, weights)
        if not self.validate(dest, dist, parent, weights):
            self._m_fallbacks.inc()
            dist, parent = self._dijkstra(self.fabric, dest, weights)
        return dist, parent

    def refine(self, dest: int, hops: np.ndarray, weights: np.ndarray):
        """Weighted ``(dist, parent)`` column restricted to the min-hop DAG.

        ``hops`` is the worker-computed hop column for ``dest``. The
        result is a *candidate* — callers must :meth:`validate` it.
        """
        n = self.fabric.num_nodes
        dist = np.full(n, INT64_INF, dtype=np.int64)
        parent = np.full(n, -1, dtype=np.int32)
        dist[dest] = 0
        hv = hops[self.chan_src]
        hu = hops[self.chan_dst]
        receives = self.dst_is_switch | (self.chan_dst == dest)
        dag = receives & (hu >= 0) & (hv == hu + 1)
        w = weights[self.chan]
        max_hop = int(hops.max())
        for level in range(1, max_hop + 1):
            sel = np.flatnonzero(dag & (hv == level))
            if not len(sel):
                continue
            cand = dist[self.chan_dst[sel]] + w[sel]
            c_ids = self.chan[sel]
            v_ids = self.chan_src[sel]
            order = np.lexsort((c_ids, cand, v_ids))
            v_sorted = v_ids[order]
            first = np.ones(len(v_sorted), dtype=bool)
            first[1:] = v_sorted[1:] != v_sorted[:-1]
            v_best = v_sorted[first]
            dist[v_best] = cand[order][first]
            parent[v_best] = c_ids[order][first].astype(np.int32)
        return dist, parent

    # ------------------------------------------------------------------
    def validate(
        self, dest: int, dist: np.ndarray, parent: np.ndarray, weights: np.ndarray
    ) -> bool:
        """True iff ``(dist, parent)`` is exactly the serial Dijkstra answer.

        Checks the Bellman fixpoint with the serial tie-break in one
        vectorized pass: for every node ``v != dest``,
        ``dist[v] == min(dist[u] + w[c])`` over channels ``c = (v -> u)``
        into forwarding nodes, and ``parent[v]`` is the lowest channel id
        attaining that minimum (with unreachable nodes at INF / -1).
        """
        receives = self.dst_is_switch | (self.chan_dst == dest)
        du = dist[self.chan_dst]
        usable = receives & (du < INT64_INF)
        # The inner where keeps INF + w from overflowing on masked lanes.
        cand = np.where(usable, du + np.where(usable, weights[self.chan], 0), INT64_INF)
        order = np.lexsort((self.chan, cand, self.chan_src))
        v_sorted = self.chan_src[order]
        first = np.ones(len(v_sorted), dtype=bool)
        first[1:] = v_sorted[1:] != v_sorted[:-1]
        v_best = v_sorted[first]
        d_best = cand[order][first]
        c_best = self.chan[order][first]
        n = self.fabric.num_nodes
        fix_d = np.full(n, INT64_INF, dtype=np.int64)
        fix_c = np.full(n, -1, dtype=np.int64)
        fix_d[v_best] = d_best
        reached = d_best < INT64_INF
        fix_c[v_best[reached]] = c_best[reached]
        fix_d[dest] = 0
        fix_c[dest] = -1
        if not np.array_equal(fix_d, dist):
            return False
        return bool(np.array_equal(fix_c, parent.astype(np.int64)))
