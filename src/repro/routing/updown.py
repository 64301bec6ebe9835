"""Up*/Down* routing (Autonet-style, as shipped in OpenSM).

Switches are ranked by BFS distance from a root; every channel is *up*
(toward the root, i.e. to a strictly smaller ``(rank, id)``) or *down*.
A legal route is ``up* down*`` — never down-then-up — which makes the
channel dependency graph acyclic without virtual channels, at the price
of concentrating traffic near the root (the bandwidth loss the paper
measures against).

Destination-based tables cannot track a packet's phase, so we make the
chosen paths phase-consistent *by construction*: a node may adopt a
down-edge next hop only if the downstream node's own chosen path is
entirely down. This is a Dijkstra-like dynamic program from each
destination; among equal candidates we prefer all-down paths (they keep
more options open for predecessors) and then the least-loaded port
(OpenSM-style balancing).
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.exceptions import RoutingError
from repro.network.fabric import Fabric
from repro.parallel.kernel import hops_to_dest
from repro.routing.base import LayeredRouting, RoutingEngine, RoutingResult, RoutingTables


def rank_switches(fabric: Fabric, root: int | None = None) -> tuple[np.ndarray, int]:
    """BFS ranks over the switch-to-switch graph; terminals rank -1.

    The root defaults to the highest-degree switch (ties: lowest id) —
    a stand-in for OpenSM's root auto-selection.
    """
    if root is None:
        best = None
        for s in fabric.switches:
            key = (fabric.degree(int(s)), -int(s))
            if best is None or key > best[0]:
                best = (key, int(s))
        root = best[1]
    elif not fabric.is_switch(root):
        raise RoutingError(f"Up*/Down* root {root} is not a switch")
    # Hop counts from the root; terminals never forward, so these are
    # switch-graph distances.
    rank = hops_to_dest(fabric, root).astype(np.int64)
    rank[fabric.terminals] = -1
    unranked = fabric.switches[rank[fabric.switches] < 0].tolist()
    if unranked:
        raise RoutingError(
            f"Up*/Down* requires a connected switch graph; switches {unranked[:5]} "
            f"are unreachable from root {root} without crossing terminals"
        )
    return rank, root


class UpDownEngine(RoutingEngine):
    """Deadlock-free Up*/Down* routing (single virtual layer)."""

    name = "updown"

    def __init__(self, root: int | None = None):
        self.root = root

    def _route(self, fabric: Fabric) -> RoutingResult:
        rank, root = rank_switches(fabric, self.root)
        tables = updown_tables(fabric, rank, self.name)
        return RoutingResult(
            tables=tables,
            layered=LayeredRouting.single_layer(tables),
            deadlock_free=True,
            stats={"engine": self.name, "root": root},
        )

    @staticmethod
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


def updown_tables(fabric: Fabric, rank: np.ndarray, engine: str) -> RoutingTables:
    """Up*/Down* tables under ``rank``, one destination at a time; a
    channel's load counts the table entries that chose it, as in MinHop.
    FatTree routes here with its tree levels as ranks."""
    T = fabric.num_terminals
    next_channel = np.full((fabric.num_nodes, T), -1, dtype=np.int32)
    load = np.zeros(fabric.num_channels, dtype=np.int64)
    for t_idx in range(T):
        chan = UpDownEngine._dp_from_dest(fabric, int(fabric.terminals[t_idx]), rank, load)
        next_channel[:, t_idx] = chan
        np.add.at(load, chan[chan >= 0], 1)
    return RoutingTables(fabric, next_channel, engine=engine)

