"""Single-source-shortest-path routing — the paper's Algorithm 1.

SSSP routing balances routes *globally*: it runs one weighted Dijkstra
per destination and, after each run, increases every channel's weight by
the number of terminal-to-destination paths crossing it. Later
destinations therefore avoid channels that earlier destinations loaded —
unlike MinHop, whose balancing is per-switch-local.

Two fidelity details from §II:

* **Minimal paths.** Edge weights start at ``W0 = num_terminals**2 + 1``.
  The total weight ever *added* by balancing is at most the number of
  CA-to-CA paths (< W0), so a detour (≥ one extra channel, ≥ W0 extra
  cost) can never beat a hop-minimal path. Tests assert zero minimality
  violations.
* **Multigraph awareness.** Parallel cables are distinct channels with
  individual weights, so trunks (Deimos' 30-cable bundles) get balanced
  route-by-route.

The per-destination weight update uses subtree counting: processing the
shortest-path tree in decreasing-distance order accumulates, for every
channel, how many terminal sources route across it — O(V) per
destination instead of the naive O(T · diameter).
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.network.fabric import Fabric
from repro.obs import DURATION_BUCKETS, get_hooks, get_registry, span
from repro.routing.base import (
    RoutingEngine,
    RoutingResult,
    RoutingTables,
    fill_leaf_rows,
    leaves,
)
from repro.service.budget import check_budget

#: per-destination shortest-path kernels (see :mod:`repro.parallel.kernel`).
KERNELS = ("python", "numpy")
#: the production step: the validated exact reduction of
#: :mod:`repro.parallel.reduction`, whose fallback is the numpy Dijkstra
DEFAULT_KERNEL = "numpy"


class SSSPEngine(RoutingEngine):
    """Algorithm 1. Not deadlock-free — see :class:`DFSSSPEngine`.

    Destinations are routed in terminal index order, and the weight
    update counts terminal sources only: the paper's OpenSM
    implementation balances CA-to-CA routes.

    Parameters
    ----------
    workers:
        Accepted (``>= 0``) and ignored: every route runs on the calling
        thread. It stays only because ``benchmarks/e2e`` still passes
        ``workers=2``; ROADMAP item 1-B re-pins those workloads and
        removes the argument.
    kernel:
        ``"numpy"`` (default, the production step: hop plans refined and
        validated by :class:`~repro.parallel.reduction.ExactReduction`) or
        ``"python"`` (the readable reference: heap Dijkstra and the
        farthest-first weight update). They are bit-identical; the tests
        and ``benchmarks/e2e`` name the reference explicitly.
    """

    name = "sssp"
    supports_incremental_reroute = True

    def __init__(self, workers: int = 0, kernel: str = DEFAULT_KERNEL):
        if kernel not in KERNELS:
            raise ValueError(f"kernel must be one of {KERNELS}, got {kernel!r}")
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.workers = workers
        self.kernel = kernel

    # ------------------------------------------------------------------
    def _route(self, fabric: Fabric) -> RoutingResult:
        tables, total_weight, weights = self._run(fabric)
        return RoutingResult(
            tables=tables,
            layered=None,
            deadlock_free=False,
            stats={"engine": self.name, "total_balancing_weight": total_weight},
            channel_weights=weights,
        )

    def _run(self, fabric: Fabric) -> tuple[RoutingTables, int, np.ndarray]:
        from repro.parallel.reduction import column_routine  # parallel -> core.sssp

        T = fabric.num_terminals
        w0 = T * T + 1
        weights = np.full(fabric.num_channels, w0, dtype=np.int64)
        # Per destination, the entries of every node but the leaves; the
        # leaf rows follow from their switches' after the loop.
        lv = leaves(fabric)
        rows = np.empty((T, len(lv.others)), dtype=np.int32)
        reg = get_registry()
        m_sources = reg.counter(
            "sssp_sources_routed", "destination terminals routed (one Dijkstra each)"
        )
        m_updates = reg.counter(
            "sssp_edge_weight_updates", "per-channel weight increments applied after Dijkstras"
        )
        m_dijkstra = reg.histogram(
            "sssp_dijkstra_seconds", "wall time per single-destination Dijkstra",
            buckets=DURATION_BUCKETS,
        )
        hooks = get_hooks()
        listening = hooks.active("iteration")

        step, reduction = column_routine(fabric, self.kernel, self.name, fabric.terminals)
        with span("sssp.run", engine=self.name, destinations=int(T)) as run_sp:
            for t_idx, dest in enumerate(fabric.terminals.tolist()):
                check_budget()  # cooperative deadline (repro.service)
                with span("sssp.dijkstra", dest=dest) as sp:
                    parent = step(dest, weights)
                    rows[t_idx] = parent[lv.others]
                # The column's own time: a hop block it opened is
                # timed by its `sssp.hop_block` span instead.
                seconds = sp.duration - (reduction.block_s if reduction else 0.0)
                m_sources.inc()
                m_dijkstra.observe(seconds)
                if listening:
                    hooks.iteration(
                        engine=self.name,
                        iteration=t_idx,
                        dest=dest,
                        # one `weights[c] += ...` per node with a parent channel
                        weight_updates=int(np.count_nonzero(parent >= 0)),
                        dijkstra_seconds=seconds,
                    )
            if reduction is not None:
                for key, value in reduction.counts.items():
                    run_sp.set_attr(key, value)

        next_channel = np.empty((fabric.num_nodes, T), dtype=np.int32)
        next_channel[lv.others] = rows.T
        fill_leaf_rows(next_channel, lv)
        # The columns' updates summed: a derived leaf row is its column's
        # leaf parent, so the table holds one entry per parent channel.
        m_updates.inc(int(np.count_nonzero(next_channel >= 0)))
        total = int(weights.sum() - w0 * fabric.num_channels)
        return RoutingTables(fabric, next_channel, engine=self.name), total, weights


def update_weights_for_dest(
    fabric: Fabric,
    dest: int,
    dist: np.ndarray,
    parent: np.ndarray,
    weights: np.ndarray,
    is_term: np.ndarray,
) -> None:
    """Add, to each channel, the number of terminal sources whose path
    to ``dest`` crosses it (subtree counting)."""
    cnt = is_term.astype(np.int64)
    cnt[dest] = 0
    finite = np.flatnonzero(dist < np.iinfo(np.int64).max)
    order = finite[np.argsort(dist[finite])[::-1]]  # farthest first
    for v in order:
        c = parent[v]
        if c < 0:
            continue
        weights[c] += cnt[v]
        # The parent channel c = (v -> u); all of v's sources continue
        # through u's parent channel next.
        u = fabric.channels.dst[c]
        cnt[u] += cnt[v]


def update_weights_for_dest_fast(
    fabric: Fabric,
    dest: int,
    dist: np.ndarray,
    parent: np.ndarray,
    weights: np.ndarray,
    is_term: np.ndarray,
) -> None:
    """Vectorized :func:`update_weights_for_dest` — exact, not approximate.

    The reference walks nodes farthest-first; exactness only needs a
    *topological* order of the shortest-path tree (the increments are
    integer adds, which commute, and each node's count must be final
    before its parent consumes it). Nodes nobody routes through — every
    terminal, typically nine in ten nodes — are done in one operation up
    front; only the inner nodes are levelled by parent-pointer depth and
    applied one whole level per numpy operation, deepest level first.
    Within a level the parent channels are distinct (one per source
    node), so the fancy-indexed ``+=`` on ``weights`` is exact; the node
    counts funnel through ``np.add.at``. Bit-identical to the reference
    on every input — the differential suite asserts it.
    """
    n = fabric.num_nodes
    cnt = is_term.astype(np.int64)
    cnt[dest] = 0
    have = np.flatnonzero(parent >= 0)  # nodes that route via a parent channel
    if not len(have):
        return
    pnode = np.full(n, -1, dtype=np.int64)  # the node each parent channel enters
    pnode[have] = fabric.channels.dst[parent[have]]
    inner = np.zeros(n, dtype=bool)
    inner[pnode[have]] = True
    # Leaves of the tree carry their initial count: final from the start.
    levels = [have[~inner[have]]]
    # Inner nodes by depth: parent chains end at `dest`; one pass peels
    # the nodes whose parent is already placed.
    placed = np.zeros(n, dtype=bool)
    placed[dest] = True
    todo = have[inner[have]]
    while len(todo):
        ready = placed[pnode[todo]]
        if not ready.any():  # pragma: no cover - impossible for tree parents
            raise ValueError("parent pointers contain a cycle")
        placed[todo[ready]] = True
        levels.insert(1, todo[ready])
        todo = todo[~ready]
    # Leaves, then deepest level first: every child's count is final
    # before its parent reads it, the invariant the farthest-first loop keeps.
    for sel in levels:
        contrib = cnt[sel]
        weights[parent[sel]] += contrib  # one parent channel per source node
        np.add.at(cnt, pnode[sel], contrib)


def dijkstra_to_dest(fabric: Fabric, dest: int, weights: np.ndarray):
    """Weighted shortest paths from every node *to* ``dest``.

    Returns ``(dist, parent)`` where ``parent[v]`` is the first channel of
    ``v``'s path toward ``dest`` (-1 for ``dest`` itself / unreachable).
    Ties break on (distance, node id, channel id) for determinism.
    """
    INF = np.iinfo(np.int64).max
    dist = np.full(fabric.num_nodes, INF, dtype=np.int64)
    parent = np.full(fabric.num_nodes, -1, dtype=np.int32)
    dist[dest] = 0
    heap: list[tuple[int, int]] = [(0, dest)]
    chan_dst = fabric.channels.dst
    reverse = fabric.channels.reverse
    settled = np.zeros(fabric.num_nodes, dtype=bool)
    polls = 0
    while heap:
        polls += 1
        if not polls & 0x3FF:  # poll the compute budget every 1024 pops
            check_budget()
        d, u = heapq.heappop(heap)
        if settled[u]:
            continue
        settled[u] = True
        if u != dest and not fabric.is_switch(u):
            continue  # terminals never forward traffic for others
        # Relax predecessors v of u: forward channel c = (v -> u) is the
        # reverse of each outgoing channel (u -> v).
        for c_out in fabric.out_channels(u):
            c = int(reverse[c_out])
            v = int(chan_dst[c_out])
            if settled[v]:
                continue
            nd = d + int(weights[c])
            if nd < dist[v] or (nd == dist[v] and c < parent[v]):
                dist[v] = nd
                parent[v] = c
                heapq.heappush(heap, (nd, v))
    return dist, parent
