"""Incremental CDG engine: vectorized cycle-breaking for Algorithm 2.

The offline layer assignment spends its time in two places: building the
channel dependency graph of every layer (one dict operation per
consecutive channel pair of every path) and re-searching for cycles
after every edge eviction. This module removes both costs:

* **CSR build.** Each layer's CDG is materialised in one vectorized pass
  over the :class:`~repro.routing.paths.PathSet`'s flat arrays: all
  consecutive (c1, c2) switch-channel pairs of the layer's paths are
  extracted with NumPy indexing, deduplicated into a sorted edge table
  (``edge_key = c1 << 32 | c2``), and two inverted CSR indexes are built
  alongside — edge → inducing path ids and path id → induced edges.
* **Delta eviction.** Moving the paths of one edge to the next layer
  only *removes* edges from the current layer: weights are decremented
  with one ``bincount`` over the movers' edge occurrences and edges
  reaching weight zero flip an ``alive`` mask. Nothing is rebuilt; the
  next layer's CDG is vector-built once when processing reaches it.
* **SCC certification, once per layer.** A vectorized Kahn peel strips
  everything that cannot lie on a cycle in O(V+E); Tarjan condensation
  runs only on the surviving core, and each non-trivial component is
  then *drained* of cycles (:func:`repro.deadlock.cycles.drain_cycles`)
  without ever re-condensing — edge deletion cannot create cycles or
  merge components, so one condensation per layer certifies the
  remainder for good.

Cycle selection is canonical: components are processed in ascending
smallest-channel-id order, the drain walk steps minimum-successor-first,
and the heuristics break weight ties toward the lowest ``(c1, c2)``
pair. Every choice is a pure function of the current edge set, which the
rebuild-based reference (:func:`repro.core.layers.assign_layers_offline`)
maintains as dict-of-dict structures and this engine maintains as array
deltas — hence the two produce **bit-identical** layer assignments.
``tests/deadlock/test_incremental.py`` proves it differentially and
``debug=True`` cross-checks the delta-applied arrays against a full dict
rebuild after every eviction.
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
from repro.exceptions import InsufficientLayersError, ReproError
from repro.obs import COUNT_BUCKETS, get_hooks, get_registry, span
from repro.routing.paths import EDGE_KEY_MASK as _KEY_MASK, EDGE_KEY_SHIFT as _KEY_SHIFT, PathSet
from repro.service.budget import check_budget


class LayerCDG:
    """One layer's CDG as sorted CSR arrays with inverted path indexes.

    Edges are stored sorted by packed key ``(c1 << 32) | c2``, so the
    adjacency of a channel is a contiguous edge-id range (successors come
    out in ascending channel-id order — exactly the drain walk's order)
    and edge lookup is a binary search. ``alive`` masks deleted edges and
    ``active`` masks paths that have moved to a higher layer; neither
    array ever grows, matching the eviction loop's remove-only life. The
    hot walk path uses plain-Python mirrors (``_dst`` list, ``_alive``
    bytearray, ``_adj`` range dict) — per-element NumPy indexing would
    dominate the drain otherwise.
    """

    def __init__(self, paths: PathSet, pids: np.ndarray):
        self.paths = paths
        self.pids = np.asarray(pids, dtype=np.int64)
        if len(self.pids) and np.any(np.diff(self.pids) <= 0):
            raise ReproError("LayerCDG requires strictly increasing pids")
        key, row = paths.dependency_pairs(self.pids)

        # Sort occurrences by (edge, path) and drop duplicates so weights
        # count *distinct* inducing paths, like the dict CDG's sets (a
        # loop-free path cannot repeat a pair, but stay defensive).
        order = np.lexsort((row, key))
        key, row = key[order], row[order]
        if len(key):
            dup = np.zeros(len(key), dtype=bool)
            dup[1:] = (key[1:] == key[:-1]) & (row[1:] == row[:-1])
            key, row = key[~dup], row[~dup]

        # Edge table (sorted by key) + edge -> path-rows CSR. ``key`` is
        # already sorted, so run boundaries replace a second np.unique sort.
        if len(key):
            head = np.empty(len(key), dtype=bool)
            head[0] = True
            np.not_equal(key[1:], key[:-1], out=head[1:])
            run_starts = np.flatnonzero(head)
            self.edge_key = key[run_starts]
            counts = np.diff(np.append(run_starts, len(key)))
        else:
            self.edge_key = key
            counts = np.zeros(0, dtype=np.int64)
        self.weight = counts.astype(np.int64)
        self.alive = np.ones(len(self.edge_key), dtype=bool)
        self.edge_src = (self.edge_key >> _KEY_SHIFT).astype(np.int64)
        self.edge_dst = (self.edge_key & _KEY_MASK).astype(np.int64)
        self.e_off = np.zeros(len(self.edge_key) + 1, dtype=np.int64)
        np.cumsum(counts, out=self.e_off[1:])
        self.e_rows = row  # grouped by edge, ascending path row inside

        # Path row -> edge ids CSR (occurrences back in path-major order).
        eid = np.repeat(np.arange(len(self.edge_key)), counts)
        back = np.argsort(row, kind="stable")
        self.p_off = np.zeros(len(self.pids) + 1, dtype=np.int64)
        np.cumsum(np.bincount(row, minlength=len(self.pids)), out=self.p_off[1:])
        self.p_eids = eid[back]

        # Hot-path mirrors, all edge-table sized (paths-sized data stays
        # in NumPy and is sliced per eviction): edge ids of channel c
        # are the contiguous range _adj[c]; weights, liveness and lookup
        # are plain Python — the walk and the heuristics touch single
        # elements, where NumPy's per-call overhead would dominate.
        self._active = bytearray(b"\x01" * len(self.pids))
        self._dst: list[int] = self.edge_dst.tolist()
        self._weight: list[int] = self.weight.tolist()
        self._alive = bytearray(b"\x01" * len(self.edge_key))
        self._eidx: dict[int, int] = {
            k: i for i, k in enumerate(self.edge_key.tolist())
        }
        self._adj: dict[int, tuple[int, int]] = {}
        if len(self.edge_src):
            bounds = np.flatnonzero(np.diff(self.edge_src)) + 1
            lows = np.concatenate(([0], bounds))
            highs = np.concatenate((bounds, [len(self.edge_src)]))
            for c, lo, hi in zip(
                self.edge_src[lows].tolist(), lows.tolist(), highs.tolist()
            ):
                self._adj[c] = (lo, hi)
        self._num_nodes: int | None = None

    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        return int(np.count_nonzero(self.alive))

    @property
    def num_paths(self) -> int:
        return sum(self._active)

    def _eid(self, c1: int, c2: int) -> int:
        return self._eidx.get((int(c1) << _KEY_SHIFT) | int(c2), -1)

    def edge_weight(self, c1: int, c2: int) -> int:
        """Distinct inducing paths of edge (c1, c2) — the heuristics' key."""
        i = self._eidx.get((c1 << _KEY_SHIFT) | c2, -1)
        return self._weight[i] if i >= 0 and self._alive[i] else 0

    def pids_of_edge(self, c1: int, c2: int) -> list[int]:
        """Active inducing path ids of (c1, c2), ascending."""
        i = self._eid(c1, c2)
        if i < 0:
            return []
        active = self._active
        rows = self.e_rows[self.e_off[i] : self.e_off[i + 1]]
        return [int(p) for p, r in zip(self.pids[rows], rows) if active[r]]

    def successors(self, c: int) -> list[int]:
        """Alive successors of channel ``c``, ascending."""
        lo, hi = self._adj.get(c, (0, 0))
        alive, dst = self._alive, self._dst
        return [dst[e] for e in range(lo, hi) if alive[e]]

    def drain_cycles(self, membership):
        """CSR-specialised :func:`repro.deadlock.cycles.drain_cycles`.

        Computes the exact same cycle sequence as the shared generator
        (the differential suite proves it), with three delta-aware
        shortcuts the dict engine cannot take:

        * destinations are stored ascending per channel, so the first
          alive in-member destination *is* the minimum successor — the
          scan early-exits instead of building a successor list;
        * the membership minimum never decreases (members only shrink),
          so a pointer into the sorted membership replaces per-restart
          ``min()`` scans;
        * an eviction only deletes edges, so the canonical walk replays
          identically up to the first node whose chosen edge died. The
          caller reports the newly dead edge ids via ``send()`` and the
          walk resumes from the cached prefix instead of re-tracing
          from the start.
        """
        adj, alive, dst = self._adj, self._alive, self._dst
        members = set(membership)
        ordered = sorted(members)
        low = 0
        pos: dict[int, int] = {}
        eid_at: dict[int, int] = {}  # chosen edge id -> index of its source in walk
        walk: list[int] = []
        chosen: list[int] = []  # chosen[k] = edge id walk[k] -> walk[k+1]
        while len(members) >= 2:  # no self-loops in a CDG
            if not walk:
                while ordered[low] not in members:
                    low += 1
                start = ordered[low]
                pos = {start: 0}
                eid_at = {}
                walk = [start]
                chosen = []
            v = walk[-1]
            lo, hi = adj.get(v, (0, 0))
            nxt = e_nxt = None
            for e in range(lo, hi):
                if alive[e] and dst[e] in members:
                    nxt = dst[e]
                    e_nxt = e
                    break
            if nxt is None:
                members.discard(v)
                del pos[v]
                walk.pop()
                if chosen:
                    del eid_at[chosen.pop()]
                continue
            j = pos.get(nxt)
            if j is None:
                pos[nxt] = len(walk)
                eid_at[e_nxt] = len(walk) - 1
                chosen.append(e_nxt)
                walk.append(nxt)
                continue
            nodes = walk[j:]
            edges = [(nodes[k], nodes[k + 1]) for k in range(len(nodes) - 1)]
            edges.append((v, nxt))
            newly_dead = yield edges
            # Resume: cut the walk at the earliest node whose chosen
            # edge died (the closing edge was never appended, so the
            # final node re-chooses automatically). Everything before
            # the cut would replay identically from a fresh restart.
            cut = len(walk) - 1
            for e in newly_dead:
                k = eid_at.get(e)
                if k is not None and k < cut:
                    cut = k
            for node in walk[cut + 1 :]:
                del pos[node]
            for e in chosen[cut:]:
                del eid_at[e]
            del walk[cut + 1 :]
            del chosen[cut:]

    def nodes(self) -> np.ndarray:
        """Channels with at least one alive incident edge."""
        return np.unique(
            np.concatenate([self.edge_src[self.alive], self.edge_dst[self.alive]])
        )

    # ------------------------------------------------------------------
    def evict_edge(self, c1: int, c2: int) -> tuple[list[int], list[int]]:
        """Delta-apply: move every active path inducing (c1, c2) out.

        Decrements every edge the movers induce and kills edges that
        reach weight zero. Returns ``(mover_pids, newly_dead_edge_ids)``,
        both ascending. A typical eviction moves a handful of paths
        touching a few dozen edges, so the whole delta runs on the
        Python mirrors (``_weight``/``_alive``/``_active`` are
        authoritative after build); the NumPy ``alive`` column stays in
        sync for the vectorized readers (:meth:`nodes`,
        :meth:`certify_core`).
        """
        i = self._eid(c1, c2)
        active = self._active
        all_rows = self.e_rows[self.e_off[i] : self.e_off[i + 1]]
        rows = [r for r in all_rows.tolist() if active[r]]
        newly_dead: list[int] = []
        w, alive = self._weight, self._alive
        p_off, p_eids = self.p_off, self.p_eids
        for r in rows:
            active[r] = 0
            for e in p_eids[p_off[r] : p_off[r + 1]].tolist():
                w[e] -= 1
                if not w[e] and alive[e]:
                    alive[e] = 0
                    newly_dead.append(e)
        if newly_dead:
            self.alive[newly_dead] = False
        movers = self.pids[rows].tolist() if rows else []
        return movers, newly_dead

    # ------------------------------------------------------------------
    def certify_core(self) -> np.ndarray:
        """Nodes that can still lie on a cycle (:func:`kahn_core` peel).

        An empty result certifies the layer acyclic in O(V+E) total
        work, with Tarjan needed only on the survivors.
        """
        core, self._num_nodes = kahn_core(
            self.edge_src[self.alive], self.edge_dst[self.alive]
        )
        return core


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


def _fast_heuristic(name: str, cdg: LayerCDG):
    """Bind a heuristic to one layer's mirrors.

    Computes exactly what :mod:`repro.core.heuristics` computes —
    minimum (weight, edge) / (-weight, edge) / first — but reads the
    weight through the layer's dict index instead of a per-edge method
    call; the heuristic runs once per cycle edge per eviction, which is
    hot enough to matter.
    """
    if name == "first":
        return lambda cycle: cycle[0]
    eidx, w = cdg._eidx, cdg._weight
    if name == "weakest":

        def pick(cycle):
            best = None
            bw = 0
            for e in cycle:
                we = w[eidx[(e[0] << _KEY_SHIFT) | e[1]]]
                if best is None or we < bw or (we == bw and e < best):
                    best, bw = e, we
            return best

    else:  # strongest (get_heuristic already rejected unknown names)

        def pick(cycle):
            best = None
            bw = 0
            for e in cycle:
                we = w[eidx[(e[0] << _KEY_SHIFT) | e[1]]]
                if best is None or we > bw or (we == bw and e < best):
                    best, bw = e, we
            return best

    return pick


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
    get_heuristic(heuristic)  # validate the name; fast paths below
    path_layers = np.zeros(paths.num_paths, dtype=np.int16)
    if pids is None:
        pids = np.arange(paths.num_paths, dtype=np.int64)
    elif not isinstance(pids, np.ndarray):
        pids = np.fromiter(pids, dtype=np.int64)
    pids = np.unique(pids.astype(np.int64, copy=False))

    reg = get_registry()
    hooks = get_hooks()
    m_cycles = reg.counter(
        "dfsssp_cycles_broken", "CDG cycles broken during offline layer assignment"
    )
    m_moved = reg.counter("dfsssp_paths_moved", "paths relocated to a higher virtual layer")
    m_evicted = reg.counter(
        "dfsssp_edges_evicted", "cycle edges evicted from a layer's CDG",
        heuristic=str(heuristic),
    )
    m_delta = reg.counter(
        "cdg_incremental_edges_removed",
        "CDG edges deleted by delta eviction (incremental engine)",
    )
    m_drained = reg.counter(
        "cdg_incremental_sccs_drained",
        "non-trivial SCCs drained of cycles (incremental engine)",
    )
    h_edges = reg.histogram(
        "cdg_edges", "CDG edge count at cycle-search start", buckets=COUNT_BUCKETS
    )
    h_nodes = reg.histogram(
        "cdg_nodes", "CDG node (channel) count at cycle-search start",
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
                    core = cdg.certify_core()
                    sccs = tarjan_sccs(core.tolist(), cdg.successors) if len(core) else []
                h_nodes.observe(cdg._num_nodes)  # counted during the peel

                pick = _fast_heuristic(heuristic, cdg)
                moved_out: list[int] = []
                for membership in sorted(sccs, key=min):
                    m_drained.inc()
                    drain = cdg.drain_cycles(membership)
                    cycle = next(drain, None)
                    while cycle is not None:
                        check_budget()  # cooperative deadline (repro.service)
                        if layer + 1 >= max_layers:
                            raise InsufficientLayersError(
                                f"cycles remain after filling all {max_layers} layers",
                                layers_available=max_layers,
                                layers_needed_at_least=max_layers + 1,
                            )
                        edge = pick(cycle)
                        movers, newly_dead = cdg.evict_edge(*edge)
                        assert movers, "cycle edge without inducing paths"
                        moved_out.extend(movers)

                        cycles_broken += 1
                        paths_moved += len(movers)
                        m_cycles.inc()
                        m_evicted.inc()
                        m_moved.inc(len(movers))
                        m_delta.inc(len(newly_dead))
                        hooks.cycle_broken(
                            layer=layer,
                            edge=(int(edge[0]), int(edge[1])),
                            paths_moved=len(movers),
                            heuristic=str(heuristic),
                        )
                        if debug:
                            _crosscheck(cdg)
                        try:
                            # The walk resumes from its cached prefix,
                            # cut at the first edge the eviction killed.
                            cycle = drain.send(newly_dead)
                        except StopIteration:
                            cycle = None

                sp.set_attr("paths", cdg.num_paths)
                sp.set_attr("edges", cdg.num_edges)
            hooks.layer_closed(layer=layer, paths=cdg.num_paths, edges=cdg.num_edges)
            if moved_out:
                members = np.sort(np.asarray(moved_out, dtype=np.int64))
                path_layers[members] = layer + 1
            else:
                members = np.zeros(0, np.int64)
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
