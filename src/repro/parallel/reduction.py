"""One Algorithm-1 step — column, validation, weight update — made exact.

The data dependency that makes SSSP hard to parallelize is the balancing
weights: destination *t*'s Dijkstra runs on weights updated by every
destination before it, so per-destination trees cannot simply be computed
concurrently. What does **not** depend on the weights is the min-hop DAG
toward a destination, and because SSSP's initial weight ``W0 = T**2 + 1``
dominates any accumulated balancing weight, the weighted shortest-path
tree lives inside that DAG in practice. :meth:`ExactReduction.step`
exploits both facts, in the engine's fixed destination order:

1. **Hop plan.** The hop levels toward the plan's root are bucketed
   into a :class:`HopPlan`: the DAG channels level-major, in CSR order
   (source-major, channel id ascending) within a level. Neither the
   levels nor the plan depend on the weights, so they are built a block
   at a time: given the caller's destination order, the first step that
   needs a plan builds those of the next block of the order with one
   sweep of all their roots (:func:`~repro.parallel.kernel.hop_rows`,
   one switch-space BFS — or the same rows from a thread pool,
   :mod:`repro.parallel.executor`) and one sort that cuts every row into
   levels (:meth:`ExactReduction.build_plans`), under one
   ``sssp.hop_block`` span. Uplinks of
   *leaves* — single-homed terminals: one out-channel, into a switch
   (:func:`repro.routing.base.leaves`) — stay out of it: a leaf has one
   way out, so its column entry is fixed (its uplink, or -1 under an
   unreached switch). Each plan also records its level nodes in one
   array and the leaves under host switches its root never reaches, so
   no step re-derives either. For a single-homed destination the plan
   is rooted at its attachment switch and is *the same plan for every
   terminal on that switch*: it is cached there and reused (see below).
2. **Refine.** Per level, one ``np.minimum.reduceat`` over the packed
   keys ``(candidate << bits) | position`` gives every node's distance
   (the high bits) and its first minimiser (the low bits) — the lowest
   channel id, since buckets are in CSR order. No sort, no second pass.
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
   packed keys ``(dist[u] + weight[c]) << bits | c`` of the *non-leaf*
   rows: the channels into switches from non-leaves, plus the channels
   into ``dest``, the one terminal that forwards. Each row's least key
   must equal the key its ``(dist[v], parent[v])`` implies. A candidate
   or a distance that does not fit the 63-bit key fails the check rather
   than wrap. If it ever fails — a pathological fabric where balancing
   weight overwhelms ``W0``, weights too large to pack, or a plan that
   does not fit the destination — the step falls back to a full
   per-destination Dijkstra, so the result is bit-identical to the
   reference *unconditionally*.
4. **Advance the weights.** The subtree counts start from a precomputed
   base — per switch, the leaves it hosts — and, a validated column's
   tree depth being the plan's hop level, are walked over the plan's
   levels deepest-first; after a fallback the generic
   :func:`repro.core.sssp.update_weights_for_dest_fast` levels the tree
   from its parent pointers instead. Every leaf uplink gains one source
   per column (none toward the leaf itself or under an unreached
   switch), and those adds are *owed*, not made: the step counts them
   and settles them in one add when the caller's order is exhausted (at
   once for a step off the order). No step reads a leaf uplink's weight
   in between — plans and validation never cross one, the root is
   entered by its downlink, and the fallback Dijkstra's parents do not
   depend on one — and integer adds commute, so the weights after the
   order are the reference's, byte for byte.

Per destination, steps 2–4 thus touch the switches and the channels into
them, O(S + E_switch), not every node and channel, O(N + E); only the
two template copies are O(N), as plain array copies.

**Sharing and why it is safe.** Two single-homed terminals on one switch
see the same hop levels on every node but themselves, and neither is in
the plan, so one sweep serves them all (14 per leaf on a 2 352-terminal
fat tree: 168 sweeps, not 2 352). Correctness never rests on that
argument: every column, shared plan or not, passes step 3 or is
recomputed. Plans are cached only for switches that host at least two
single-homed terminals, live on the per-run :class:`ExactReduction`, and
stop being inserted once they hold :data:`PLAN_CACHE_BYTES` — later
destinations then sweep for themselves.

:func:`column_routine` hands the engine, the LMC planes and the
incremental repair this step for ``kernel="numpy"`` — with their
destination order — and the heap Dijkstra + reference update for
``kernel="python"``. A pooled engine passes the pool as the block sweep;
nothing else about the step changes.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.core.sssp import (
    dijkstra_to_dest,
    update_weights_for_dest,
    update_weights_for_dest_fast,
)
from repro.network.fabric import Fabric, csr_gather
from repro.obs import get_registry, span
from repro.parallel.kernel import INT64_INF, dijkstra_to_dest_numpy, hop_rows
from repro.routing.base import leaves

#: Most bytes one run's cached hop plans may hold (int32 arrays, ~10 kB a
#: plan on a 2 352-terminal fat tree). When the next plan would not fit,
#: caching stops for the rest of the run.
PLAN_CACHE_BYTES = 32 << 20

#: Most bytes one block of hop plans may take to build: the block's hop
#: rows (int32, one per root) and the bucketing's per-channel temporaries.
#: Fixes how many roots one breadth-first search serves.
HOP_BLOCK_BYTES = 4 << 20


def column_routine(fabric: Fabric, kernel: str, engine_name: str = "sssp", order=None,
                   sweep=hop_rows):
    """One Algorithm-1 step for ``kernel``, as ``(step, reduction)``.

    ``step(dest, weights)`` routes the column toward ``dest``, advances
    ``weights`` in place and returns the column's ``parent`` array.
    ``"numpy"`` is :meth:`ExactReduction.step` of ``reduction``, whose
    ``counts`` are its live ``sweeps / plans / plan_hits / fallbacks``
    and ``block_s`` the time the last step spent opening a hop block;
    ``order`` is the sequence of destinations the caller will step
    through, so that hop plans are built a block at a time, each block's
    hop rows by ``sweep``. The ``"python"`` reference runs the heap
    Dijkstra and the farthest-first update directly (``reduction`` is
    None). Both produce identical arrays.
    """
    if kernel == "numpy":
        reduction = ExactReduction(fabric, engine_name, order, sweep)
        return reduction.step, reduction
    is_term = fabric.kinds == 1  # NodeKind.TERMINAL

    def step(dest: int, weights: np.ndarray):
        dist, parent = dijkstra_to_dest(fabric, dest, weights)
        update_weights_for_dest(fabric, dest, dist, parent, weights, is_term)
        return parent

    return step, None


class HopPlan(NamedTuple):
    """The min-hop DAG toward one root, bucketed for sort-free refinement.

    ``root`` is the node whose distance is seeded before the level pass:
    the attachment switch of a single-homed destination (then the plan
    fits every single-homed terminal on it) or the destination itself.
    ``levels`` holds, nearest level first, ``(chan, dst, starts,
    nodes)``: the level's DAG channels in CSR order, the node each one
    enters, where each source node's run of channels starts, and the
    source nodes themselves — slices of ``nodes``, every level's source
    nodes in level order. ``dead`` lists, by leaf position, the leaves
    whose switch the root never reaches. The arrays are views into the
    arrays of the block the plan was built in; a plan that goes into the
    cache gets copies of its own (:meth:`owned`), so that ``nbytes`` is
    what the cache keeps alive.
    """

    root: int
    levels: list
    nodes: np.ndarray
    dead: np.ndarray
    nbytes: int

    def owned(self) -> "HopPlan":
        """This plan on copies of its arrays, out of its block."""
        nodes, levels, at = self.nodes.copy(), [], 0
        for chan, dst, starts, level_nodes in self.levels:
            end = at + len(level_nodes)
            levels.append((chan.copy(), dst.copy(), starts.copy(), nodes[at:end]))
            at = end
        return self._replace(levels=levels, nodes=nodes, dead=self.dead.copy())


class ExactReduction:
    """Per-run state of the fused step: CSR views, leaf terminals, plans.

    ``engine_name`` labels the fallback counter; a column that fails
    validation re-runs the numpy Dijkstra. ``order``, when given, is the
    destination sequence :meth:`step` will be called with: a step that
    needs a new hop plan then builds the plans of the next block of that
    sequence in one pass (:meth:`_open_block`); without it, or off it, a
    step sweeps for its own plan. ``sweep(fabric, roots)`` computes the
    hop rows of a block's roots: :func:`~repro.parallel.kernel.hop_rows`,
    or a thread pool's drop-in for it. Each block's sweep and plan
    building run under one ``sssp.hop_block`` span (``rows``), and
    ``block_s`` holds its duration until the next step (0.0 for a step
    that opened none). The plan cache dies with the instance, i.e. with
    the SSSP phase that made it.

    Along ``order`` the leaf uplinks' weights lag: each validated column
    owes every leaf uplink its +1 (step 4), and the owed adds land in
    ``weights`` when the step at the end of the order returns — or at
    once for a step off the order. Nothing reads a leaf uplink's weight
    in between: the plans and the validation never cross one, and the
    fallback Dijkstra's parents do not depend on one.
    """

    def __init__(self, fabric: Fabric, engine_name: str = "sssp", order=None,
                 sweep=hop_rows):
        self.fabric = fabric
        self._sweep = sweep
        self._m_fallbacks = get_registry().counter(
            "routing_parallel_fallbacks",
            "reduction columns that failed validation and re-ran full Dijkstra",
            engine=engine_name,
        )
        #: hop rows swept for this run, plans built, steps served from a
        #: cached plan, failed validations
        self.counts = {"sweeps": 0, "plans": 0, "plan_hits": 0, "fallbacks": 0}
        self.block_s = 0.0
        n, E = fabric.num_nodes, fabric.num_channels
        channels = fabric.channels
        self._is_switch = fabric.kinds == 0  # NodeKind.SWITCH
        self._is_term = fabric.kinds == 1
        # All channels grouped by source node, lowest channel id first —
        # exactly the CSR out-channel ordering.
        self._chan = fabric.out_chan.astype(np.intp)
        self._chan_src = channels.src[self._chan]
        self._chan_dst = channels.dst[self._chan]
        self._index = np.arange(E, dtype=np.intp)
        # Packed keys: (value << bits) | channel id or level position, both
        # below 2**bits; a value must stay below `_cap` to fit. INT64_INF
        # is `_cap` over all-ones low bits: the key of no candidate.
        self._bits = max(1, E.bit_length())
        self._mask = (1 << self._bits) - 1
        self._cap = (1 << (63 - self._bits)) - 1

        lv = leaves(fabric)
        self._leaf, self._leaf_up, self._leaf_sw = lv.nodes, lv.uplinks, lv.switches
        self._uplink = np.full(n, -1, dtype=np.intp)
        self._uplink[self._leaf] = self._leaf_up
        leaf_at = np.full(n, -1, dtype=np.intp)
        leaf_at[self._leaf] = np.arange(len(self._leaf))
        self._leaf_at = leaf_at.tolist()
        hosted = np.bincount(self._leaf_sw, minlength=n)
        # The leaves by host switch, as CSR over `lv.hosts`.
        self._hosts = lv.hosts
        self._host_leaves = np.argsort(lv.host_of, kind="stable")
        self._host_ptr = np.r_[0, np.cumsum(np.bincount(lv.host_of, minlength=len(lv.hosts)))]
        #: per node: the switch whose plan it shares, -1 where nothing is shared
        self._shared_root = np.full(n, -1, dtype=np.intp)
        self._shared_root[self._leaf] = np.where(hosted[self._leaf_sw] >= 2, self._leaf_sw, -1)
        #: per node: the root its plan is swept from — a leaf's switch, else itself
        self._plan_root = np.arange(n, dtype=np.intp)
        self._plan_root[self._leaf] = self._leaf_sw
        # Every column starts from this: each leaf on its uplink.
        self._parent0 = np.full(n, -1, dtype=np.int32)
        self._parent0[self._leaf] = self._leaf_up
        # Subtree counts before any tree node adds its own: a switch
        # already carries the leaves it hosts.
        self._cnt0 = self._is_term + hosted
        # Leaf-uplink adds owed since the last settle: one per validated
        # column, less, per leaf, the columns that add nothing to it.
        self._owed = 0
        self._unowed = np.zeros(len(self._leaf), dtype=np.int64)
        self._owed_to = None
        # CSR positions a plan may draw from: channels into switches that
        # are not a single-homed terminal's uplink; a destination that is
        # not single-homed adds the positions of the channels into it.
        leaf_uplink = np.zeros(E, dtype=bool)
        leaf_uplink[self._leaf_up] = True
        self._trunk = self._is_switch[self._chan_dst] & ~leaf_uplink[self._chan]
        self._trunk_pos = np.flatnonzero(self._trunk)
        self._trunk_src = self._chan_src[self._trunk_pos]
        self._trunk_dst = self._chan_dst[self._trunk_pos]
        # Per node, the channels into it: CSR bounds, and their positions.
        self._into_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(self._chan_dst, minlength=n), out=self._into_ptr[1:])
        self._into_pos = np.argsort(self._chan_dst, kind="stable")
        # The rows validation checks: every node but the leaves, each over
        # its trunk channels in CSR order — the nodes without one last,
        # each over one entry past the channels that holds no candidate.
        # The channels into dest come apart, channel id ascending, with
        # the row of the node each one leaves.
        has_trunk = np.zeros(n, dtype=bool)
        has_trunk[self._trunk_src] = True
        core = lv.others
        self._core = np.concatenate((core[has_trunk[core]], core[~has_trunk[core]]))
        core_of = np.full(n, -1, dtype=np.intp)
        core_of[self._core] = np.arange(len(self._core))
        self._trunk_chan = self._chan[self._trunk_pos]
        src = self._trunk_src
        first = np.flatnonzero(np.r_[True, src[1:] != src[:-1]][: len(src)])
        self._row_starts = np.r_[first, np.full(len(core) - len(first), len(src))]
        into = np.argsort(channels.dst, kind="stable")  # channel ids
        self._into_chan = into.tolist()
        self._into_row = core_of[channels.src[into]].tolist()
        self._into_bounds = self._into_ptr.tolist()
        self._core_rows = core_of.tolist()
        # Templates the per-column arrays start from.
        self._dist0 = np.full(n, INT64_INF, dtype=np.int64)
        # Per node, for scalar look-ups: the channel a leaf's switch
        # reaches it by (-1 for every other node).
        entry = np.full(n, -1, dtype=np.intp)
        entry[self._leaf] = channels.reverse[self._leaf_up]
        self._entry = entry.tolist()

        self._plans: dict[int, HopPlan] = {}
        self._plan_bytes = 0
        self.cache_full = False
        # Block building: the caller's destination order, the next
        # position in it, and the plans built ahead, by position.
        self._order = None if order is None else [int(d) for d in order]
        self._cursor = 0
        self._pending: dict[int, HopPlan] = {}
        # A block row: its int32 hop row, and about eight 8-byte
        # temporaries per trunk channel while the block is bucketed.
        self._row_bytes = 4 * n + 64 * (len(self._trunk_pos) + 1)
        self._block_rows = max(1, HOP_BLOCK_BYTES // self._row_bytes)

    # ------------------------------------------------------------------
    def shared_root(self, dest: int) -> int:
        """The switch whose cached plan serves ``dest``; -1 if none can."""
        return int(self._shared_root[dest])

    def step(self, dest: int, weights: np.ndarray) -> np.ndarray:
        """Route ``dest`` exactly as serial Dijkstra would and advance
        ``weights``; returns the column's ``parent`` array."""
        if self._owed_to is not None and self._owed_to is not weights:
            self._settle()
        self.block_s = 0.0
        key = self.shared_root(dest)
        at = self._position(dest)
        plan = self._plans.get(key)
        if plan is not None:
            self.counts["plan_hits"] += 1
        else:
            plan = self._next_plan(dest, at)
            self.counts["plans"] += 1
            if key >= 0 and not self.cache_full:
                if self._plan_bytes + plan.nbytes <= PLAN_CACHE_BYTES:
                    # Out of its block: the cache holds the bytes it counts.
                    self._plans[key] = plan = plan.owned()
                    self._plan_bytes += plan.nbytes
                else:
                    self.cache_full = True
        dist, parent = self._refine(dest, plan, weights)
        if self.validate(dest, dist, parent, weights):
            self._advance(dest, plan, parent, weights)
        else:
            self.counts["fallbacks"] += 1
            self._m_fallbacks.inc()
            dist, parent = dijkstra_to_dest_numpy(self.fabric, dest, weights)
            update_weights_for_dest_fast(
                self.fabric, dest, dist, parent, weights, self._is_term
            )
        if at < 0 or self._cursor == len(self._order):
            self._settle()
        return parent

    def refine(self, dest: int, hops: np.ndarray, weights: np.ndarray):
        """Weighted ``(dist, parent)`` column restricted to the min-hop DAG.

        ``hops`` is the hop column for ``dest``. The result is a
        *candidate* — callers must :meth:`validate` it.
        """
        return self._refine(dest, self._build_plan(dest, hops), weights)

    # ------------------------------------------------------------------
    def _position(self, dest: int) -> int:
        """Where ``dest`` stands in the caller's order (and step past it);
        -1 without an order or off it."""
        order, at = self._order, self._cursor
        if order is None or at >= len(order) or order[at] != dest:
            return -1
        self._cursor = at + 1
        return at

    def _next_plan(self, dest: int, at: int) -> HopPlan:
        if at < 0:
            return self._hop_block(np.array([dest], dtype=np.intp))[0]
        plan = self._pending.pop(at, None)
        if plan is None:
            self._open_block(at)
            plan = self._pending.pop(at)
        return plan

    def _open_block(self, start: int) -> None:
        """Build the plans of the next block of the order in one pass:
        position ``start`` and, up to ``HOP_BLOCK_BYTES`` worth of rows,
        each later position whose step will need a plan of its own —
        every destination that shares no plan, and the first on every
        sharing switch that is neither cached nor already on its way
        (all of them but the cached ones once the cache is full)."""
        order, pending, shared = self._order, self._pending, self._shared_root
        opened = {int(shared[order[pos]]) for pos in pending}
        opened.add(int(shared[order[start]]))
        rows = [start]
        for pos in range(start + 1, len(order)):
            if len(rows) == self._block_rows:
                break
            key = int(shared[order[pos]])
            if pos in pending or key in self._plans:
                continue
            if key >= 0 and not self.cache_full:
                if key in opened:
                    continue
                opened.add(key)
            rows.append(pos)
        dests = np.array([order[pos] for pos in rows], dtype=np.intp)
        pending.update(zip(rows, self._hop_block(dests)))

    def _hop_block(self, dests: np.ndarray) -> list[HopPlan]:
        """The plans of ``dests``: one sweep of their roots, one
        :meth:`build_plans`, timed by one ``sssp.hop_block`` span."""
        with span("sssp.hop_block", rows=len(dests)) as sp:
            plans = self.build_plans(dests, self._sweep(self.fabric, self._plan_root[dests]))
        self.counts["sweeps"] += len(dests)
        self.block_s = sp.duration
        return plans

    def _build_plan(self, dest: int, hops: np.ndarray) -> HopPlan:
        return self.build_plans([dest], hops[None, :])[0]

    def build_plans(self, dests, hops: np.ndarray) -> list[HopPlan]:
        """One :class:`HopPlan` per destination: ``hops[i]`` is the hop
        column toward ``dests[i]`` or toward its plan root (its switch,
        for a leaf — the plan is the same). Every row's DAG channels are
        cut into levels and source runs by one sort over all rows."""
        dests = np.asarray(dests, dtype=np.intp)
        R, E = len(dests), self.fabric.num_channels
        trunk = self._trunk_pos
        hv, hu = hops[:, self._trunk_src], hops[:, self._trunk_dst]
        # hops == -1 marks unreachable nodes: never a DAG endpoint.
        flat = np.flatnonzero((hu >= 0) & (hv == hu + 1))
        row, at = np.divmod(flat, len(trunk))
        pos, level = trunk[at], hv.ravel()[flat]
        multi = np.flatnonzero(self._uplink[dests] < 0)
        if len(multi):  # not single-homed: the channels into dest are DAG channels too
            owner, flat = csr_gather(self._into_ptr, dests[multi])
            into, into_row = self._into_pos[flat], multi[owner]
            ev = hops[into_row, self._chan_src[into]]
            eu = hops[into_row, self._chan_dst[into]]
            ok = (eu >= 0) & (ev == eu + 1)
            row = np.concatenate((row, into_row[ok]))
            pos = np.concatenate((pos, into[ok]))
            level = np.concatenate((level, ev[ok]))
        # Row-major, level-major within a row, CSR order within a level:
        # one sort of distinct keys (at most rows x nodes x channels).
        keep = np.argsort((row * (int(level.max(initial=0)) + 1) + level) * E + pos)
        row, level, pos = row[keep], level[keep], pos[keep]
        src, dst = self._chan_src[pos], self._chan_dst[pos]
        chan = self._chan[pos].astype(np.int32)
        src, dst = src.astype(np.int32), dst.astype(np.int32)
        n = len(chan)
        new_level = np.ones(n, dtype=bool)
        new_level[1:] = (row[1:] != row[:-1]) | (level[1:] != level[:-1])
        new_run = new_level.copy()
        new_run[1:] |= src[1:] != src[:-1]
        level_at = np.flatnonzero(new_level)  # entry where each level starts
        run_at = np.flatnonzero(new_run)  # entry where each source run starts
        run_id = np.cumsum(new_run) - 1
        level_id = np.cumsum(new_level) - 1
        level_run = run_id[level_at]  # each level's first run
        starts = run_at - level_at[level_id[run_at]]
        nodes = src[run_at]
        level_end = np.r_[level_at[1:], n]
        run_end = np.r_[level_run[1:], len(run_at)]
        level_bytes = ((level_end - level_at) * (chan.itemsize + dst.itemsize)
                       + (run_end - level_run) * (starts.itemsize + nodes.itemsize))
        # Leaves under a host switch the row never reaches.
        dead_row, dead_host = np.nonzero(hops[:, self._hosts] < 0)
        dead = self._host_leaves[:0]
        if len(dead_host):
            owner, flat = csr_gather(self._host_ptr, dead_host)
            dead_row, dead = dead_row[owner], self._host_leaves[flat]
        rows = np.arange(R + 1)
        cut = np.searchsorted(row[level_at], rows)
        node_cut = np.searchsorted(row[run_at], rows).tolist()
        dead_cut = np.searchsorted(dead_row, rows).tolist()
        row_bytes = (np.diff(np.r_[0, np.cumsum(level_bytes)][cut])
                     + np.diff(dead_cut) * dead.itemsize).tolist()
        bounds = list(zip(level_at.tolist(), level_end.tolist(),
                          level_run.tolist(), run_end.tolist()))
        roots = self._plan_root[dests].tolist()
        cut = cut.tolist()
        return [
            HopPlan(roots[r],
                    [(chan[a:b], dst[a:b], starts[c:d], nodes[c:d])
                     for a, b, c, d in bounds[cut[r]:cut[r + 1]]],
                    nodes[node_cut[r]:node_cut[r + 1]],
                    dead[dead_cut[r]:dead_cut[r + 1]], row_bytes[r])
            for r in range(R)
        ]

    def _refine(self, dest: int, plan: HopPlan, weights: np.ndarray):
        dist = self._dist0.copy()
        parent = self._parent0.copy()
        root = plan.root
        if root != dest:
            entry = self._entry[dest]
            dist[root] = weights[entry]
            parent[root] = entry
        else:
            dist[dest] = 0
        bits, mask, index = self._bits, self._mask, self._index
        for chan, dst, starts, nodes in plan.levels:
            cand = dist[dst]
            cand += weights[chan]
            if len(starts) == len(cand):  # one DAG channel per source: nothing to pick
                dist[nodes] = cand
                parent[nodes] = chan
                continue
            # One packed argmin: the least (candidate, position) of each
            # run, i.e. its first minimiser — its lowest channel id, since
            # runs are in CSR order. A candidate too large for the key
            # makes garbage here that validation rejects.
            cand <<= bits
            cand |= index[: len(cand)]
            best = np.minimum.reduceat(cand, starts)
            dist[nodes] = best >> bits
            parent[nodes] = chan[best & mask]
        # Leaves hang off their switch by their one uplink, unless the
        # column never reaches it; their distances are not kept (INF).
        if len(plan.dead):
            parent[self._leaf[plan.dead]] = -1
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
        attaining that minimum (with unreachable nodes at INF / -1). Each
        row's least packed key ``(candidate << bits) | c`` is compared
        with the key its ``(dist[v], parent[v])`` implies. A candidate or
        a distance too large for the key fails the check, so the column
        falls back rather than compare wrapped keys. A leaf's entry is not
        checked: its one uplink leaves no tie, and it is reached iff its
        switch is.
        """
        bits, cap = self._bits, self._cap
        got = dist[self._core]
        # Usually every non-leaf row is reached and packable (the unsigned
        # view also sends a negative distance down the careful path): then
        # no channel leads to a node at INF, and nothing needs masking.
        reached = got.view(np.uint64).max(initial=0) < cap
        if not reached and ((got >= cap) & (got != INT64_INF)).any():
            return False
        keys = np.empty(len(self._trunk_chan) + 1, dtype=np.int64)
        cand = keys[:-1]
        np.take(dist, self._trunk_dst, out=cand, mode="clip")  # "raise" buffers `out`
        cand += weights[self._trunk_chan]  # wraps below 0 where the target is at INF
        if cand.max(initial=-1) >= cap:
            return False
        unreached = None if reached else cand < 0
        cand <<= bits
        cand |= self._trunk_chan
        if unreached is not None:
            cand[unreached] = INT64_INF
        keys[-1] = INT64_INF
        best = np.minimum.reduceat(keys, self._row_starts)
        # dest is the one terminal that forwards: merge the channels into it.
        a, b = self._into_bounds[dest], self._into_bounds[dest + 1]
        for c, v in zip(self._into_chan[a:b], self._into_row[a:b]):
            d = int(weights[c])
            if d >= cap:
                return False
            best[v] = min(int(best[v]), (d << bits) | c)
        row = self._core_rows[dest]
        if row >= 0:  # a multi-homed dest has a row of its own: (0, -1)
            best[row] = self._mask
        implied = got if reached else np.minimum(got, cap)
        implied <<= bits
        implied |= parent[self._core] & self._mask
        return bool(np.array_equal(best, implied))

    def _advance(self, dest: int, plan: HopPlan, parent: np.ndarray,
                 weights: np.ndarray) -> None:
        """:func:`repro.core.sssp.update_weights_for_dest` for a validated
        column: its tree depth is the plan's hop level, so the subtree
        counts flow leaf terminals first, then level by level, deepest
        first — each node's count is final before its parent reads it.
        An unreached switch is in no level, so its count is never read.
        The leaf uplinks' +1 is owed, not added (:meth:`_settle`)."""
        chan_dst = self.fabric.channels.dst
        cnt = self._cnt0.copy()  # dest is in no level: never read
        self._owed += 1
        self._owed_to = weights
        if len(plan.dead):
            self._unowed[plan.dead] += 1
        root = plan.root
        if root != dest:  # dest is a leaf: it sends nothing up
            self._unowed[self._leaf_at[dest]] += 1
            cnt[root] -= 1
        nodes = plan.nodes
        if len(nodes):
            # Every level's parent channels at once; the loads level by level.
            via = parent[nodes]
            into = chan_dst[via]
            load = np.empty(len(nodes), dtype=cnt.dtype)
            end = len(nodes)
            for *_, level_nodes in reversed(plan.levels):
                start = end - len(level_nodes)
                np.take(cnt, level_nodes, out=load[start:end], mode="clip")
                np.add.at(cnt, into[start:end], load[start:end])
                end = start
            weights[via] += load  # one parent channel per node: distinct
        if root != dest:
            weights[parent[root]] += cnt[root]

    def _settle(self) -> None:
        """Add the leaf-uplink increments the validated columns owe: one
        per column to every leaf uplink (one per leaf: distinct), less
        the leaf's own column and the columns that never reach its switch."""
        if self._owed:
            self._owed_to[self._leaf_up] += self._owed - self._unowed
            self._unowed.fill(0)
            self._owed = 0
        self._owed_to = None
