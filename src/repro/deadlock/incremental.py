"""Incremental CDG engine: vectorized cycle-breaking for Algorithm 2.

The offline layer assignment spends its time in two places: building the
channel dependency graph of every layer (one dict operation per
consecutive channel pair of every path) and re-searching for cycles
after every edge eviction. This module removes both costs:

* **Edge table by counting.** Each layer's CDG is read off the
  :class:`~repro.routing.paths.PathSet`'s dependency index
  (:class:`~repro.routing.paths.TurnIndex`: the fabric's switch-channel
  turns in ``(c1, c2)`` order plus every path's turn occurrences). A
  member mask selects the layer's occurrences and ``np.bincount`` over
  turn ids yields the edge table — edge ids in ``(c1, c2)`` order,
  weights = inducing paths — without a sort, one
  :func:`~repro.routing.paths.blocks` range at a time. The two inverted CSR
  indexes (edge → inducing path rows, path row → induced edge ids) are
  built only when the drain needs them.
* **SCC certification, once per layer.** A vectorized Kahn peel strips
  everything that cannot lie on a cycle in O(V+E); Tarjan condensation
  runs only on the surviving core, once — edge deletion cannot create
  cycles or merge components, so draining each non-trivial component
  certifies the remainder for good.
* **One fused drain.** :meth:`LayerCDG.drain` walks, picks and evicts on
  *edge ids*: the walk keeps one advance-only pointer per channel, the
  cycle is a slice of the walk's chosen edge ids, and moving the paths
  of the picked edge only *removes* edges — weights are decremented in
  place and edges reaching zero flip an ``alive`` byte. Nothing is
  rebuilt; the next layer's CDG is vector-built once when processing
  reaches it.

Cycle selection is canonical: components are processed in ascending
smallest-channel-id order, the drain walk steps minimum-successor-first,
and the heuristics break weight ties toward the lowest ``(c1, c2)``
pair. Every choice is a pure function of the current edge set, which the
rebuild-based reference (:func:`repro.core.layers.assign_layers_offline`
over :func:`repro.deadlock.cycles.drain_cycles`) maintains as
dict-of-dict structures and this engine maintains as array deltas —
hence the two produce **bit-identical** layer assignments.
``tests/deadlock/test_incremental.py`` proves it differentially, event
for event, and ``debug=True`` cross-checks the delta-applied arrays
against a full dict rebuild after every eviction.
"""

from __future__ import annotations

import numpy as np

from repro.core.heuristics import get_heuristic
from repro.core.layers import (
    DEFAULT_MAX_LAYERS,
    LayerAssignment,
    _balance_layers,
    _compact,
)
from repro.deadlock.cdg import ChannelDependencyGraph
from repro.deadlock.cycles import kahn_core, tarjan_sccs
from repro.exceptions import InsufficientLayersError, ReproError, RoutingError
from repro.obs import COUNT_BUCKETS, get_hooks, get_registry, span
from repro.routing.paths import PathSet, blocks
from repro.service.budget import check_budget


def eviction_counters(heuristic: str):
    """``(cycles_broken, edges_evicted, paths_moved, edges_removed)``
    counters every Algorithm 2 array engine publishes into."""
    reg = get_registry()
    return (
        reg.counter(
            "dfsssp_cycles_broken", "CDG cycles broken during offline layer assignment"
        ),
        reg.counter(
            "dfsssp_edges_evicted", "cycle edges evicted from a layer's CDG",
            heuristic=str(heuristic),
        ),
        reg.counter("dfsssp_paths_moved", "paths relocated to a higher virtual layer"),
        reg.counter(
            "cdg_incremental_edges_removed",
            "CDG edges deleted by delta eviction (incremental engine)",
        ),
    )


class LayerCDG:
    """One layer's CDG as an edge table with inverted path indexes.

    An edge is a turn of the path set's dependency index that a member
    path takes, and edges are numbered in turn order, which is
    ``(c1, c2)`` order: an edge id *is* its rank among the layer's
    pairs, the adjacency of a channel is a contiguous edge-id range
    (successors come out in ascending channel-id order — exactly the
    drain walk's order) and edge lookup is a binary search on
    ``edge_turn``. ``alive`` masks deleted edges and ``_active`` masks
    paths that have moved to a higher layer; neither ever grows,
    matching the eviction loop's remove-only life. ``weight`` keeps the
    build-time counts; :meth:`edge_weight` reads the live ones. The CSR
    indexes ``e_off``/``e_rows`` (edge → path rows) and
    ``p_off``/``p_eids`` (path row → edge ids) exist from
    :meth:`_mirror` on.
    """

    def __init__(self, paths: PathSet, pids: np.ndarray):
        self.paths = paths
        self.pids = np.asarray(pids, dtype=np.int64)
        if len(self.pids) and np.any(np.diff(self.pids) <= 0):
            raise ReproError("LayerCDG requires strictly increasing pids")
        index = paths.turn_index()
        occ_ptr, occ_turn = index.occ_ptr, index.occ_turn

        # The members' occurrences, path-major: per blocks() range, a
        # member mask repeated over the path lengths selects them. A
        # turn's occurrence count is its number of inducing paths: no
        # path induces a pair twice (_mirror() checks).
        member = np.zeros(paths.num_paths, dtype=bool)
        member[self.pids] = True
        per_turn = np.zeros(len(index.src), dtype=np.int64)
        chunks = []
        for p0, p1 in blocks(occ_ptr):
            mine = np.repeat(member[p0:p1], np.diff(occ_ptr[p0 : p1 + 1]))
            turns = occ_turn[occ_ptr[p0] : occ_ptr[p1]][mine]
            per_turn += np.bincount(turns, minlength=len(per_turn))
            chunks.append(turns)
        self.edge_turn = np.flatnonzero(per_turn)
        self.weight = per_turn[self.edge_turn]
        self.edge_src = index.src[self.edge_turn]
        self.edge_dst = index.dst[self.edge_turn]
        self._occ: np.ndarray | None = np.concatenate(chunks)  # members' turns, until _mirror()

        # One byte per path and per edge, flipped by the eviction;
        # ``alive`` is a NumPy view of the same bytes, so the vectorized
        # readers (nodes, certify_core) never need a sync step.
        self._active = bytearray(b"\x01" * len(self.pids))
        self._alive = bytearray(b"\x01" * len(self.edge_turn))
        self.alive = np.frombuffer(self._alive, dtype=bool)
        self._weight: list[int] | None = None  # drain state, see _mirror()
        self._num_nodes: int | None = None

    def _mirror(self) -> None:
        """Build the drain's state on first use.

        First the two inverted CSR indexes, from the occurrences kept at
        construction and their path rows, built here: a layer that never
        drains (no fat-tree layer does) holds no per-occurrence row
        array. One stable argsort of their edge ids (uint16 while
        they fit, which NumPy radix-sorts) groups the path rows by edge,
        ascending inside (``e_off``/``e_rows``); the occurrences'
        path-major order already is ``p_eids``. A path inducing one edge
        twice repeats a channel: :func:`~repro.routing.paths.extract_paths`
        rejects such forwarding loops, and a hand-built path set gets a
        :class:`RoutingError` here.

        Then the plain-Python state. The walk, the pick and the eviction
        touch single elements, where NumPy's per-call overhead would
        dominate. State sized by the edge table (``_dst``, ``_weight``,
        ``_eid_at``) or the channel count (``_ptr``/``_end`` adjacency
        bounds, ``_member``, ``_pos``) lives in lists; the occurrence
        arrays, sized by paths × hops, are read through ``memoryview``s
        (:meth:`drain` says why). A layer whose Kahn core is empty never
        pays for any of it.
        """
        if self._weight is not None:
            return
        turns, index = self._occ, self.paths.turn_index()
        counts = index.occ_ptr[self.pids + 1] - index.occ_ptr[self.pids]
        rows = np.repeat(np.arange(len(self.pids), dtype=np.int32), counts)
        n_edges = len(self.edge_turn)
        eid_of = np.zeros(len(index.src),
                          dtype=np.uint16 if n_edges <= 1 << 16 else np.int32)
        eid_of[self.edge_turn] = np.arange(n_edges)
        self.p_eids = eid_of[turns]
        self.e_rows = rows[np.argsort(self.p_eids, kind="stable")]
        self.e_off = np.zeros(n_edges + 1, dtype=np.int64)
        np.cumsum(self.weight, out=self.e_off[1:])
        twice = self.e_rows[1:] == self.e_rows[:-1]
        twice[self.e_off[1:-1] - 1] = False  # a run boundary: two edges
        if twice.any():
            at = int(np.flatnonzero(twice)[0])
            e = int(np.searchsorted(self.e_off, at, side="right")) - 1
            raise RoutingError(
                f"path {int(self.pids[self.e_rows[at]])} induces the dependency "
                f"({int(self.edge_src[e])}, {int(self.edge_dst[e])}) twice: "
                "it repeats a channel"
            )
        self.p_off = np.zeros(len(self.pids) + 1, dtype=np.int64)
        np.cumsum(counts, out=self.p_off[1:])
        self._occ = None

        n_ch = self.paths.fabric.num_channels
        # Out-edges of channel c are the edge ids _first[c]:_first[c + 1].
        self._first: list[int] = np.searchsorted(
            self.edge_src, np.arange(n_ch + 1, dtype=self.edge_src.dtype)).tolist()
        self._ptr = self._first[:-1]  # next out-edge the walk tries
        self._end = self._first[1:]
        self._dst: list[int] = self.edge_dst.tolist()
        self._weight = self.weight.tolist()
        self._member = [0] * n_ch  # component stamp, 0 = not a member
        self._pos = [-1] * n_ch  # index on the walk, -1 = off it
        self._eid_at = [-1] * len(self._dst)  # chosen edge -> walk index of its source
        self._e_off, self._e_rows = memoryview(self.e_off), memoryview(self.e_rows)
        self._p_off, self._p_eids = memoryview(self.p_off), memoryview(self.p_eids)

    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return int(np.count_nonzero(self.alive))

    @property
    def num_paths(self) -> int:
        return self._active.count(1)

    def _find(self, c1: int, c2: int) -> int:
        """Id of the alive edge (c1, c2) by binary search, -1 if none."""
        t = self.paths.turn_index().turn(c1, c2)
        i = int(np.searchsorted(self.edge_turn, t))
        if t >= 0 and i < len(self.edge_turn) and self.edge_turn[i] == t and self._alive[i]:
            return i
        return -1

    def edge_weight(self, c1: int, c2: int) -> int:
        """Distinct inducing paths of edge (c1, c2) — the heuristics' key."""
        i = self._find(c1, c2)
        if i < 0:
            return 0
        self._mirror()
        return self._weight[i]

    def pids_of_edge(self, c1: int, c2: int) -> list[int]:
        """Active inducing path ids of (c1, c2), ascending."""
        i = self._find(c1, c2)
        if i < 0:
            return []
        self._mirror()
        active = self._active
        rows = self.e_rows[self.e_off[i] : self.e_off[i + 1]]
        return [int(p) for p, r in zip(self.pids[rows], rows) if active[r]]

    def successors(self, c: int) -> list[int]:
        """Alive successors of channel ``c``, ascending."""
        self._mirror()
        alive, dst = self._alive, self._dst
        return [dst[e] for e in range(self._first[c], self._first[c + 1]) if alive[e]]

    def nodes(self) -> np.ndarray:
        """Channels with at least one alive incident edge."""
        return np.unique(
            np.concatenate([self.edge_src[self.alive], self.edge_dst[self.alive]])
        )

    def moved_pids(self) -> np.ndarray:
        """Path ids evicted from this layer so far, ascending."""
        return self.pids[~np.frombuffer(self._active, dtype=bool)]

    # ------------------------------------------------------------------
    def certify_core(self) -> np.ndarray:
        """Nodes that can still lie on a cycle (:func:`kahn_core` peel).

        An empty result certifies the layer acyclic in O(V+E) total
        work, with Tarjan needed only on the survivors.
        """
        nodes, rank = kahn_core(self.edge_src[self.alive], self.edge_dst[self.alive])
        self._num_nodes = len(nodes)
        return nodes[rank < 0]

    def condense(self) -> list[set[int]]:
        """Non-trivial SCCs of the Kahn core, ascending by smallest
        channel — the order the engines drain them in."""
        core = self.certify_core()
        sccs = tarjan_sccs(core.tolist(), self.successors) if len(core) else []
        return sorted(sccs, key=min)

    def evict_edge(self, c1: int, c2: int) -> tuple[list[int], list[int]]:
        """Move every active path inducing (c1, c2) out of the layer.

        Returns ``(mover_pids, newly_dead_edge_ids)``, movers ascending.
        """
        i = self._find(c1, c2)
        if i < 0:
            raise ReproError(f"cannot evict ({c1}, {c2}): not an alive edge of this layer")
        self._mirror()
        rows, dead = self._evict(i)
        return self.pids[rows].tolist(), dead

    def _evict(self, eid: int) -> tuple[list[int], list[int]]:
        """Delta-apply the eviction of edge ``eid``: deactivate its
        inducing paths, decrement every edge they induce and kill the
        ones that reach weight zero (each does so exactly once: weights
        count distinct active paths). Returns ``(mover_rows, dead_ids)``.
        """
        active, w, alive = self._active, self._weight, self._alive
        p_off, p_eids = self._p_off, self._p_eids
        rows = [
            r for r in self._e_rows[self._e_off[eid] : self._e_off[eid + 1]] if active[r]
        ]
        dead: list[int] = []
        for r in rows:
            active[r] = 0
            for x in p_eids[p_off[r] : p_off[r + 1]]:
                wx = w[x] - 1
                w[x] = wx
                if not wx:
                    alive[x] = 0
                    dead.append(x)
        return rows, dead

    def drain(self, sccs, layer: int, max_layers: int, heuristic: str,
              hooks=None, debug: bool = False) -> tuple[int, int]:
        """Break every cycle inside ``sccs``; returns ``(cycles, paths_moved)``.

        ``sccs`` are components of the last condensation, drained in the
        order given. Per component this is
        :func:`repro.deadlock.cycles.drain_cycles` + heuristic pick +
        eviction — the same canonical cycle sequence, the differential
        suite proves it event for event — fused into one loop over edge
        ids:

        * the walk steps to ``ptr[v]``, a per-channel pointer into v's
          (ascending) adjacency that only ever advances: ``alive`` and
          the membership only shrink while a component drains, so an
          out-edge skipped once stays skippable and the successor scans
          cost O(E) per component instead of a re-scan per visit;
        * a revisit closes the cycle ``chosen[j:] + [e]`` — edge ids,
          whose order is the ``(c1, c2)`` order, so "lowest pair on
          ties" is "lowest id";
        * an eviction only deletes edges, so the canonical walk replays
          identically up to the first node whose chosen edge died
          (``eid_at``) and resumes from that prefix instead of
          re-tracing from the smallest member.

        Edge-table- and channel-count-sized state lives in lists
        (:meth:`_mirror`). The occurrence arrays ``e_rows``/``p_eids``
        are sized by paths × hops and stay NumPy, read through
        ``memoryview``s: no list or dict sized by path count or by edge
        occurrences is built per layer. Measured on ``random_layers``:
        ``.tolist()`` copies of the two lift the assign phase's peak RSS
        from 113 to 148 MB and make the drain slower.

        Polls the compute budget once per cycle, raises
        :class:`InsufficientLayersError` at the first cycle found with
        no layer left, emits ``hooks.cycle_broken`` once per cycle when
        ``hooks`` is given and someone listens, and adds each
        component's totals to the eviction counters from a ``finally``,
        so they stay exact when a budget trips mid-drain.
        """
        self._mirror()
        dst, w, alive = self._dst, self._weight, self._alive
        ptr, end = self._ptr, self._end
        member, pos, eid_at = self._member, self._pos, self._eid_at
        evict = self._evict
        first, weakest = heuristic == "first", heuristic == "weakest"
        counters = eviction_counters(heuristic)
        total_cycles = total_moved = 0
        for comp in sccs:
            ordered = sorted(comp)
            stamp = ordered[0] + 1  # components are disjoint: unique, non-zero
            for c in ordered:
                member[c] = stamp
            remaining = len(ordered)
            low = 0
            emit = hooks is not None and hooks.active("cycle_broken")
            cycles = moved = removed = 0
            walk: list[int] = []
            chosen: list[int] = []  # chosen[k] = edge id walk[k] -> walk[k+1]
            try:
                while remaining >= 2:  # no self-loops in a CDG
                    if not walk:
                        while member[ordered[low]] != stamp:
                            low += 1  # the minimum member never decreases
                        v = ordered[low]
                        pos[v] = 0
                        walk.append(v)
                    v = walk[-1]
                    e, hi = ptr[v], end[v]
                    while e < hi and not (alive[e] and member[dst[e]] == stamp):
                        e += 1
                    ptr[v] = e
                    if e == hi:  # stranded: off every cycle for good
                        member[v] = 0
                        remaining -= 1
                        pos[v] = -1
                        walk.pop()
                        if chosen:
                            eid_at[chosen.pop()] = -1
                        continue
                    nxt = dst[e]
                    j = pos[nxt]
                    if j < 0:
                        pos[nxt] = len(walk)
                        eid_at[e] = len(walk) - 1
                        chosen.append(e)
                        walk.append(nxt)
                        continue

                    check_budget()  # cooperative deadline (repro.service)
                    if layer + 1 >= max_layers:
                        raise InsufficientLayersError(
                            f"cycles remain after filling all {max_layers} layers",
                            layers_available=max_layers,
                            layers_needed_at_least=max_layers + 1,
                        )
                    # The cycle is chosen[j:] + [e]; ids order like
                    # (c1, c2) pairs, so ties go to the lowest id.
                    if first:
                        pick = chosen[j]
                    else:
                        pick, bw = e, w[e]
                        for x in chosen[j:]:
                            wx = w[x]
                            if (wx < bw if weakest else wx > bw) or (wx == bw and x < pick):
                                pick, bw = x, wx
                    rows, dead = evict(pick)
                    if not rows:
                        raise ReproError(
                            f"cycle edge ({self.edge_src[pick]}, {dst[pick]}) "
                            "without inducing paths"
                        )
                    cycles += 1
                    moved += len(rows)
                    removed += len(dead)
                    if emit:
                        hooks.cycle_broken(
                            layer=layer,
                            edge=(int(self.edge_src[pick]), dst[pick]),
                            paths_moved=len(rows),
                            heuristic=str(heuristic),
                        )
                    if debug:
                        _crosscheck(self)
                    # Resume: cut the walk at the earliest node whose
                    # chosen edge died (the closing edge was never
                    # appended, so the final node re-chooses on its
                    # own). Everything before the cut would replay
                    # identically from a fresh restart.
                    cut = len(walk) - 1
                    for x in dead:
                        k = eid_at[x]
                        if 0 <= k < cut:
                            cut = k
                    for node in walk[cut + 1 :]:
                        pos[node] = -1
                    for x in chosen[cut:]:
                        eid_at[x] = -1
                    del walk[cut + 1 :]
                    del chosen[cut:]
            finally:
                for counter, n in zip(counters, (cycles, cycles, moved, removed)):
                    counter.inc(n)
            total_cycles += cycles
            total_moved += moved
        return total_cycles, total_moved


def _crosscheck(cdg: LayerCDG) -> None:
    """Debug mode: rebuild the layer as a dict CDG and compare."""
    ref = ChannelDependencyGraph(cdg.paths.fabric)
    for pid, live in zip(cdg.pids.tolist(), cdg._active):
        if live:
            ref.add_path(pid, cdg.paths.path(pid))
    want = {
        (c1, c2): len(pids)
        for c1, row in ref.succ.items()
        for c2, pids in row.items()
    }
    got = {
        (int(c1), int(c2)): w
        for c1, c2, w, a in zip(
            cdg.edge_src.tolist(), cdg.edge_dst.tolist(), cdg._weight, cdg._alive
        )
        if a
    }
    if got != want:
        extra = sorted(set(got) - set(want))[:5]
        missing = sorted(set(want) - set(got))[:5]
        drift = sorted(e for e in set(got) & set(want) if got[e] != want[e])[:5]
        raise ReproError(
            "incremental CDG diverged from full rebuild: "
            f"extra={extra} missing={missing} weight-drift={drift}"
        )
    for c1, c2 in list(want)[:64]:
        ref_pids = sorted(ref.pids_of_edge(c1, c2))
        if list(cdg.pids_of_edge(c1, c2)) != ref_pids:
            raise ReproError(
                f"incremental inverted index diverged on edge ({c1}, {c2})"
            )


def assign_layers_incremental(
    paths: PathSet,
    max_layers: int = DEFAULT_MAX_LAYERS,
    heuristic: str = "weakest",
    balance: bool = True,
    pids=None,
    debug: bool = False,
) -> LayerAssignment:
    """Offline Algorithm 2 on the incremental CDG engine.

    Bit-identical to :func:`repro.core.layers.assign_layers_offline`
    (the rebuild-based reference) for every heuristic — same
    ``path_layers``, ``layers_needed``, ``cycles_broken`` and
    ``paths_moved``. ``debug=True`` cross-checks the delta-applied
    arrays against a full dict rebuild after every eviction.
    """
    if max_layers < 1:
        raise ValueError(f"max_layers must be >= 1, got {max_layers}")
    get_heuristic(heuristic)  # validate the name; LayerCDG.drain picks on edge ids
    path_layers = np.zeros(paths.num_paths, dtype=np.int16)
    if pids is None:
        pids = np.arange(paths.num_paths, dtype=np.int64)
    elif not isinstance(pids, np.ndarray):
        pids = np.fromiter(pids, dtype=np.int64)
    pids = pids.astype(np.int64, copy=False)
    if not (pids[1:] > pids[:-1]).all():  # active_pids() is already sorted, distinct
        pids = np.unique(pids)

    reg = get_registry()
    hooks = get_hooks()
    eviction_counters(heuristic)  # registered (at 0) even when nothing cycles
    m_drained = reg.counter(
        "cdg_incremental_sccs_drained",
        "non-trivial SCCs drained of cycles (incremental engine)",
    )
    h_edges = reg.histogram(
        "cdg_edges", "CDG edge count per layer at LayerCDG construction", buckets=COUNT_BUCKETS
    )
    h_nodes = reg.histogram(
        "cdg_nodes", "CDG node (channel) count per layer, from its first Kahn peel",
        buckets=COUNT_BUCKETS,
    )

    cycles_broken = 0
    paths_moved = 0
    layer = 0
    members = pids  # pids assigned to the current layer
    with span("layers.assign_offline", heuristic=str(heuristic), max_layers=max_layers,
              cdg="incremental"):
        while len(members):
            with span("layers.layer", layer=layer) as sp:
                with span("cdg.build", layer=layer, paths=len(members)):
                    cdg = LayerCDG(paths, members)
                h_edges.observe(cdg.num_edges)

                with span("cdg.certify", layer=layer):
                    sccs = cdg.condense()
                h_nodes.observe(cdg._num_nodes)  # counted during the peel

                if sccs:
                    m_drained.inc(len(sccs))
                    cycles, moved = cdg.drain(
                        sccs, layer, max_layers, heuristic, hooks=hooks, debug=debug
                    )
                    cycles_broken += cycles
                    paths_moved += moved

                sp.set_attr("paths", cdg.num_paths)
                sp.set_attr("edges", cdg.num_edges)
            hooks.layer_closed(layer=layer, paths=cdg.num_paths, edges=cdg.num_edges)
            members = cdg.moved_pids()
            path_layers[members] = layer + 1
            layer += 1

    layers_needed = _compact(path_layers)
    if balance and layers_needed < max_layers:
        _balance_layers(path_layers, layers_needed, max_layers, pids=pids)
    return LayerAssignment(
        path_layers=path_layers,
        layers_needed=layers_needed,
        num_layers=max_layers,
        cycles_broken=cycles_broken,
        paths_moved=paths_moved,
        balanced=balance,
    )
