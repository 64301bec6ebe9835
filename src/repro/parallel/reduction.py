"""One Algorithm-1 step — column, validation, weight update — made exact.

The data dependency that makes SSSP hard to parallelize is the balancing
weights: destination *t*'s Dijkstra runs on weights updated by every
destination before it, so per-destination trees cannot simply be computed
concurrently. What does **not** depend on the weights is the min-hop DAG
toward a destination, and because SSSP's initial weight ``W0 = T**2 + 1``
dominates any accumulated balancing weight, the weighted shortest-path
tree lives inside that DAG in practice. :meth:`ExactReduction.step`
exploits both facts, in the engine's fixed destination order:

1. **Hop plan.** One hop sweep toward the destination (done here, or
   shipped by a pool worker — :mod:`repro.parallel.executor`) is bucketed
   once into a :class:`HopPlan`: the DAG channels level-major, in CSR
   order (source-major, channel id ascending) within a level. Uplinks of
   *leaves* — single-homed terminals: one out-channel, into a switch —
   stay out of it: a leaf has one way out, so its column entry is fixed
   (its uplink, or -1 under an unreached switch). For a single-homed
   destination the plan is rooted at its attachment switch and is *the
   same plan for every terminal on that switch*: it is cached there and
   reused (see below).
2. **Refine.** Per level, one ``np.minimum.reduceat`` over the bucket
   gives every node's distance and a second one its first minimiser —
   the lowest channel id, since buckets are in CSR order. No sort.
   ``parent`` starts as a copy of a template holding every leaf's
   uplink; leaf distances are not kept (they stay INF).
3. **Validate.** :meth:`ExactReduction.validate` *proves* the candidate
   is exactly what serial Dijkstra would produce: with strictly positive
   weights, ``(dist, parent)`` is the serial answer **iff** it is the
   unique Bellman fixpoint with the lowest-channel-id tie-break
   (``parent[v]`` = min channel id among minimisers of ``dist[u] +
   weight[c]`` over channels ``(v -> u)`` into forwarding nodes). A
   leaf's row needs no check — one out-channel leaves no tie, and it is
   reached iff its switch is — so this is one ``reduceat`` over the
   *non-leaf* rows: the channels into switches from non-leaves, plus the
   channels into ``dest``, the one terminal that forwards. If it ever
   fails — a pathological fabric where balancing weight overwhelms
   ``W0``, or a plan that does not fit the destination — the step falls
   back to a full per-destination Dijkstra, so the result is
   bit-identical to the reference *unconditionally*.
4. **Advance the weights.** Every leaf uplink gains its one source in a
   single add (corrected for ``dest`` and for unreached switches), and
   the subtree counts start from a precomputed base: per switch, the
   leaves it hosts. A validated column's tree depth is the plan's hop
   level, so the counts are then walked over the plan's levels
   deepest-first; after a fallback the generic
   :func:`repro.core.sssp.update_weights_for_dest_fast` levels the tree
   from its parent pointers instead.

Per destination, steps 2–4 thus touch the switches and the channels into
them, O(S + E_switch), not every node and channel, O(N + E); only the
template copy and the uplink add are O(N), as plain array operations.

**Sharing and why it is safe.** Two single-homed terminals on one switch
see the same hop levels on every node but themselves, and neither is in
the plan, so one sweep serves them all (14 per leaf on a 2 352-terminal
fat tree: 168 sweeps, not 2 352). Correctness never rests on that
argument: every column, shared plan or not, passes step 3 or is
recomputed. Plans are cached only for switches that host at least two
single-homed terminals, live on the per-run :class:`ExactReduction`, and
stop being inserted once they hold :data:`PLAN_CACHE_BYTES` — later
destinations then sweep for themselves.

:func:`column_routine` hands the serial engine and the incremental repair
this step for ``kernel="numpy"``, and the heap Dijkstra + reference
update for ``kernel="python"``; the pool reducer always runs this one.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.sssp import (
    DEFAULT_KERNEL,
    update_weights_for_dest,
    update_weights_for_dest_fast,
)
from repro.network.fabric import Fabric
from repro.obs import get_registry
from repro.parallel.kernel import INT64_INF, hops_to_dest, resolve_kernel

#: Most bytes one run's cached hop plans may hold (int32 arrays, ~10 kB a
#: plan on a 2 352-terminal fat tree). When the next plan would not fit,
#: caching stops for the rest of the run.
PLAN_CACHE_BYTES = 32 << 20


def column_routine(fabric: Fabric, kernel: str, engine_name: str = "sssp"):
    """One Algorithm-1 step for ``kernel``, as ``(step, counts)``.

    ``step(dest, weights)`` routes the column toward ``dest``, advances
    ``weights`` in place and returns the column's ``parent`` array.
    ``"numpy"`` is :meth:`ExactReduction.step` and ``counts`` its live
    ``sweeps / plans / plan_hits / fallbacks``; the ``"python"``
    reference runs the heap Dijkstra and the farthest-first update
    directly (no counts). Both produce identical arrays.
    """
    if kernel == "numpy":
        reduction = ExactReduction(fabric, kernel, engine_name)
        return reduction.step, reduction.counts
    dijkstra = resolve_kernel(kernel)
    is_term = fabric.kinds == 1  # NodeKind.TERMINAL

    def step(dest: int, weights: np.ndarray):
        dist, parent = dijkstra(fabric, dest, weights)
        update_weights_for_dest(fabric, dest, dist, parent, weights, is_term)
        return parent

    return step, {}


class HopPlan(NamedTuple):
    """The min-hop DAG toward one root, bucketed for sort-free refinement.

    ``root`` is the node whose distance is seeded before the level pass:
    the attachment switch of a single-homed destination (then the plan
    fits every single-homed terminal on it) or the destination itself.
    ``levels`` holds, nearest level first, ``(chan, dst, seg, starts,
    nodes)``: the level's DAG channels in CSR order, the node each one
    enters, the index of its source node within the level, where each
    source's run of channels starts, and the source nodes themselves.
    """

    root: int
    levels: list
    nbytes: int


class ExactReduction:
    """Per-run state of the fused step: CSR views, leaf terminals, plans.

    ``kernel`` names the Dijkstra a column falls back to when validation
    fails; ``engine_name`` labels the fallback counter. The plan cache
    dies with the instance, i.e. with the SSSP phase that made it.
    """

    def __init__(
        self, fabric: Fabric, kernel: str = DEFAULT_KERNEL, engine_name: str = "sssp"
    ):
        self.fabric = fabric
        self._dijkstra = resolve_kernel(kernel)
        self._m_fallbacks = get_registry().counter(
            "routing_parallel_fallbacks",
            "reduction columns that failed validation and re-ran full Dijkstra",
            engine=engine_name,
        )
        #: hop sweeps done for this run (here, or by the pool's workers),
        #: plans built, steps served from a cached plan, failed validations
        self.counts = {"sweeps": 0, "plans": 0, "plan_hits": 0, "fallbacks": 0}
        n, E = fabric.num_nodes, fabric.num_channels
        channels = fabric.channels
        self._is_switch = fabric.kinds == 0  # NodeKind.SWITCH
        self._is_term = fabric.kinds == 1
        # All channels grouped by source node, lowest channel id first —
        # exactly the CSR out-channel ordering.
        self._chan = fabric.out_chan.astype(np.intp)
        self._chan_src = channels.src[self._chan]
        self._chan_dst = channels.dst[self._chan]
        degree = np.diff(fabric.out_ptr)
        self._index = np.arange(E, dtype=np.intp)

        # Single-homed terminals: one out-channel, into a switch.
        lone = np.flatnonzero(self._is_term & (degree == 1))
        uplink = fabric.out_chan[fabric.out_ptr[lone]].astype(np.intp)
        into_switch = self._is_switch[channels.dst[uplink]]
        self._leaf = lone[into_switch]
        self._leaf_up = uplink[into_switch]
        self._leaf_sw = channels.dst[self._leaf_up].astype(np.intp)
        self._uplink = np.full(n, -1, dtype=np.intp)
        self._uplink[self._leaf] = self._leaf_up
        hosted = np.bincount(self._leaf_sw, minlength=n)
        self._hosts = np.flatnonzero(hosted)
        #: per node: the switch whose plan it shares, -1 where nothing is shared
        self._shared_root = np.full(n, -1, dtype=np.intp)
        self._shared_root[self._leaf] = np.where(hosted[self._leaf_sw] >= 2, self._leaf_sw, -1)
        # Every column starts from this: each leaf on its uplink.
        self._parent0 = np.full(n, -1, dtype=np.int32)
        self._parent0[self._leaf] = self._leaf_up
        # Subtree counts before any tree node adds its own: a switch
        # already carries the leaves it hosts.
        self._cnt0 = self._is_term + hosted
        # CSR positions a plan may draw from: channels into switches that
        # are not a single-homed terminal's uplink.
        leaf_uplink = np.zeros(E, dtype=bool)
        leaf_uplink[self._leaf_up] = True
        self._trunk = self._is_switch[self._chan_dst] & ~leaf_uplink[self._chan]
        self._trunk_pos = np.flatnonzero(self._trunk)
        # The rows validation checks: every node but the leaves, over the
        # trunk channels in CSR order (the channels into dest come apart).
        core = np.ones(n, dtype=bool)
        core[self._leaf] = False
        self._core = np.flatnonzero(core)
        self._core_of = np.where(core, np.cumsum(core) - 1, -1)  # -1 for leaves
        src = self._chan_src[self._trunk_pos]
        first = np.r_[True, src[1:] != src[:-1]][: len(src)]
        self._trunk_chan = self._chan[self._trunk_pos]
        self._trunk_dst = self._chan_dst[self._trunk_pos]
        self._row_starts = np.flatnonzero(first)
        self._row_of = np.cumsum(first) - 1
        self._rows = self._core_of[src[self._row_starts]]

        self._plans: dict[int, HopPlan] = {}
        self._plan_bytes = 0
        self.cache_full = False

    # ------------------------------------------------------------------
    def shared_root(self, dest: int) -> int:
        """The switch whose cached plan serves ``dest``; -1 if none can."""
        return int(self._shared_root[dest])

    def step(self, dest: int, weights: np.ndarray,
             hops: np.ndarray | None = None) -> np.ndarray:
        """Route ``dest`` exactly as serial Dijkstra would and advance
        ``weights``; returns the column's ``parent`` array.

        ``hops`` is a worker-made hop column for ``dest``, used when no
        cached plan serves it (swept here when absent).
        """
        key = self.shared_root(dest)
        plan = self._plans.get(key)
        if plan is not None:
            self.counts["plan_hits"] += 1
        else:
            if hops is None:
                hops = hops_to_dest(self.fabric, dest)
                self.counts["sweeps"] += 1
            plan = self._build_plan(dest, hops)
            self.counts["plans"] += 1
            if key >= 0 and not self.cache_full:
                if self._plan_bytes + plan.nbytes <= PLAN_CACHE_BYTES:
                    self._plans[key] = plan
                    self._plan_bytes += plan.nbytes
                else:
                    self.cache_full = True
        dist, parent = self._refine(dest, plan, weights)
        if self.validate(dest, dist, parent, weights):
            self._advance(dest, plan, parent, weights)
        else:
            self.counts["fallbacks"] += 1
            self._m_fallbacks.inc()
            dist, parent = self._dijkstra(self.fabric, dest, weights)
            update_weights_for_dest_fast(
                self.fabric, dest, dist, parent, weights, self._is_term
            )
        return parent

    def refine(self, dest: int, hops: np.ndarray, weights: np.ndarray):
        """Weighted ``(dist, parent)`` column restricted to the min-hop DAG.

        ``hops`` is the hop column for ``dest``. The result is a
        *candidate* — callers must :meth:`validate` it.
        """
        return self._refine(dest, self._build_plan(dest, hops), weights)

    # ------------------------------------------------------------------
    def _build_plan(self, dest: int, hops: np.ndarray) -> HopPlan:
        uplink = self._uplink[dest]
        if uplink >= 0:
            root = int(self.fabric.channels.dst[uplink])
            pos = self._trunk_pos
        else:  # not single-homed: the channels into dest are DAG channels too
            root = dest
            pos = np.flatnonzero(self._trunk | (self._chan_dst == dest))
        src, dst = self._chan_src[pos], self._chan_dst[pos]
        hv, hu = hops[src], hops[dst]
        # hops == -1 marks unreachable nodes: never a DAG endpoint.
        keep = np.flatnonzero((hu >= 0) & (hv == hu + 1))
        keep = keep[np.argsort(hv[keep], kind="stable")]  # level-major, CSR order within
        chan = self._chan[pos[keep]].astype(np.int32)
        src, dst, level = src[keep].astype(np.int32), dst[keep].astype(np.int32), hv[keep]
        levels, nbytes = [], 0
        if not len(chan):  # nothing reaches dest
            return HopPlan(root, levels, nbytes)
        cuts = np.flatnonzero(level[1:] != level[:-1]) + 1
        for a, b in zip(np.r_[0, cuts], np.r_[cuts, len(chan)]):
            s = src[a:b]
            first = np.r_[True, s[1:] != s[:-1]]
            starts = np.flatnonzero(first)
            bucket = (chan[a:b], dst[a:b], (np.cumsum(first) - 1).astype(np.int32),
                      starts, s[starts])
            levels.append(bucket)
            nbytes += sum(arr.nbytes for arr in bucket)
        return HopPlan(root, levels, nbytes)

    def _refine(self, dest: int, plan: HopPlan, weights: np.ndarray):
        dist = np.full(self.fabric.num_nodes, INT64_INF, dtype=np.int64)
        parent = self._parent0.copy()
        if plan.root != dest:
            entry = self.fabric.channels.reverse[self._uplink[dest]]
            dist[plan.root] = weights[entry]
            parent[plan.root] = entry
        else:
            dist[dest] = 0
        for chan, dst, seg, starts, nodes in plan.levels:
            cand = dist[dst] + weights[chan]
            best = np.minimum.reduceat(cand, starts)
            # First minimiser of each run == its lowest channel id.
            pick = np.minimum.reduceat(
                np.where(cand == best[seg], self._index[: len(cand)], len(cand)), starts)
            dist[nodes] = best
            parent[nodes] = chan[pick]
        # Leaves hang off their switch by their one uplink, unless the
        # column never reaches it; their distances are not kept (INF).
        dead = self._hosts[dist[self._hosts] == INT64_INF]
        if len(dead):
            parent[self._leaf[np.isin(self._leaf_sw, dead)]] = -1
        dist[dest] = 0
        parent[dest] = -1
        return dist, parent

    def validate(
        self, dest: int, dist: np.ndarray, parent: np.ndarray, weights: np.ndarray
    ) -> bool:
        """True iff ``(dist, parent)`` is exactly the serial Dijkstra answer
        on every node but the leaves.

        Checks the Bellman fixpoint with the serial tie-break in one
        vectorized pass over the trunk channels plus the channels into
        ``dest``: for every non-leaf node ``v != dest``, ``dist[v] ==
        min(dist[u] + w[c])`` over channels ``c = (v -> u)`` into
        forwarding nodes, and ``parent[v]`` is the lowest channel id
        attaining that minimum (with unreachable nodes at INF / -1). A
        leaf's entry is not checked: its one uplink leaves no tie, and it
        is reached iff its switch is.
        """
        du = dist[self._trunk_dst]
        cand = du + weights[self._trunk_chan]  # wraps where du is INF; masked next
        cand[du == INT64_INF] = INT64_INF
        fix_d = np.full(len(self._core), INT64_INF, dtype=np.int64)
        fix_c = np.full(len(self._core), -1, dtype=np.int64)
        if len(cand):
            # reduceat on an empty segment returns the element at its start,
            # not the identity, so only nodes with a trunk channel are rows.
            best = np.minimum.reduceat(cand, self._row_starts)
            # Rows are channel-id ascending: the first minimiser is the lowest id.
            pick = np.minimum.reduceat(
                np.where(cand == best[self._row_of], self._index[: len(cand)], len(cand)),
                self._row_starts)
            fix_d[self._rows] = best
            fix_c[self._rows] = np.where(best < INT64_INF, self._trunk_chan[pick], -1)
        # dest is the one terminal that forwards: merge the channels into it.
        fabric = self.fabric
        out = fabric.out_chan[fabric.out_ptr[dest]:fabric.out_ptr[dest + 1]]
        for c in np.sort(fabric.channels.reverse[out]).tolist():
            v, d = self._core_of[fabric.channels.src[c]], int(weights[c])
            if d < fix_d[v] or (d == fix_d[v] and c < fix_c[v]):
                fix_d[v], fix_c[v] = d, c
        if self._core_of[dest] >= 0:  # a multi-homed dest has a row of its own
            fix_d[self._core_of[dest]] = 0
            fix_c[self._core_of[dest]] = -1
        return bool(np.array_equal(fix_d, dist[self._core])
                    and np.array_equal(fix_c, parent[self._core]))

    def _advance(self, dest: int, plan: HopPlan, parent: np.ndarray,
                 weights: np.ndarray) -> None:
        """:func:`repro.core.sssp.update_weights_for_dest` for a validated
        column: its tree depth is the plan's hop level, so the subtree
        counts flow leaf terminals first, then level by level, deepest
        first — each node's count is final before its parent reads it.
        An unreached switch is in no level, so its count is never read."""
        chan_dst = self.fabric.channels.dst
        cnt = self._cnt0.copy()  # dest is in no level: never read
        weights[self._leaf_up] += 1  # one uplink per leaf: distinct
        dead = self._hosts[parent[self._hosts] < 0]
        if len(dead):
            weights[self._leaf_up[np.isin(self._leaf_sw, dead)]] -= 1
        if plan.root != dest:  # dest is a leaf: it sends nothing up
            weights[self._uplink[dest]] -= 1
            cnt[plan.root] -= 1
        for _, _, _, _, nodes in reversed(plan.levels):
            via = parent[nodes]
            load = cnt[nodes]
            weights[via] += load  # one parent channel per node: distinct
            np.add.at(cnt, chan_dst[via], load)
        if plan.root != dest:
            weights[parent[plan.root]] += cnt[plan.root]
