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

import numpy as np

from repro.exceptions import RoutingError
from repro.network.fabric import Fabric, csr_gather
from repro.parallel.kernel import hops_to_dest
from repro.routing.base import LayeredRouting, RoutingEngine, RoutingResult, RoutingTables, leaves


def rank_switches(fabric: Fabric, root: int | None = None) -> tuple[np.ndarray, int]:
    """BFS ranks over the switch-to-switch graph; terminals rank -1.

    The root defaults to the highest-degree switch (ties: lowest id) —
    a stand-in for OpenSM's root auto-selection.
    """
    if root is None:
        root = int(fabric.switches[np.argmax(np.diff(fabric.out_ptr)[fabric.switches])])
    elif not (0 <= root < fabric.num_nodes and fabric.is_switch(root)):
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
    def _dp_from_dest(fabric: Fabric, dest: int, graph: tuple, load: np.ndarray) -> np.ndarray:
        """Choose a phase-consistent next hop for every node toward
        ``dest`` and count the chosen channels into ``load``.

        Stage 1 (descent) settles, from the destination, the nodes with
        an all-down path; the Up*/Down* root is among them. Stage 2
        (ascent), seeded by every stage-1 switch, settles the rest over up
        channels only: an up hop before a legal path stays ``up* down*``,
        and every non-root switch has an up neighbor. Descent nodes keep
        their all-down path even where an up-then-down one is shorter,
        which keeps destination-based tables phase-consistent. Ties break
        on port load (OpenSM-style balancing), then on the order of the
        offers (:func:`_settle`). A single-homed terminal takes its uplink
        once its switch has settled.
        """
        down, up, lv = graph
        is_switch = fabric.kinds == 0
        chosen = np.full(fabric.num_nodes, -1, dtype=np.int32)
        dist = np.full(fabric.num_nodes, -1, dtype=np.int64)
        dist[dest] = 0
        _settle(down, np.array([dest]), load, dist, chosen, is_switch)
        _settle(up, np.flatnonzero(is_switch & (dist >= 0)), load, dist, chosen, is_switch)
        chosen[lv.nodes] = np.where(dist[lv.switches] >= 0, lv.uplinks, -1)
        chosen[dest] = -1
        load[chosen[chosen >= 0]] += 1  # only its source chooses a channel
        return chosen


def _updown_graph(fabric: Fabric, rank: np.ndarray) -> tuple:
    """``(down, up, leaves(fabric))``: per node ``u``, the down and the up
    channels ``p -> u`` whose ``p`` is no single-homed terminal, as CSRs
    ``(ptr, pred, chan)`` in the order of ``u``'s out-channels. A channel
    descends into a terminal, or between switches to a larger (rank, id).
    """
    src, dst, term = fabric.channels.src, fabric.channels.dst, fabric.kinds == 1
    higher = (rank[dst] > rank[src]) | (rank[dst] == rank[src]) & (dst > src)
    down = term[dst] | ~term[src] & higher
    lv = leaves(fabric)
    chan, pred = fabric.channels.reverse[fabric.out_chan], dst[fabric.out_chan]
    offered = ~np.isin(pred, lv.nodes)
    graphs = []
    for legal in (down, ~down):
        keep = legal[chan] & offered
        count = np.bincount(src[fabric.out_chan[keep]], minlength=fabric.num_nodes)
        graphs.append((np.r_[0, np.cumsum(count)], pred[keep], chan[keep]))
    return graphs[0], graphs[1], lv


def _settle(graph, seeds, load, dist, chosen, is_switch) -> None:
    """Settle every unsettled node that reaches ``seeds`` over ``graph``,
    one distance level per pass, in the order of a heap keyed (distance,
    channel load, push counter).

    A settled node offers each predecessor its channel at its distance
    + 1: first the seeds, in seed order, then the switches this pass
    settles, in settling order, each in its CSR order. That order is the
    counter: per level, a node takes its offer of least (load, offer
    index), and nodes settle in the order of their winning offers.
    """
    ptr, pred, chan = graph
    owner, flat = csr_gather(ptr, seeds)
    seed_dist = dist[seeds][owner] + 1
    by_dist = np.argsort(seed_dist, kind="stable")
    seed_dist, flat = seed_dist[by_dist], flat[by_dist]
    pushed, i = flat[:0], 0
    while len(pushed) or i < len(flat):
        if not len(pushed):
            level = seed_dist[i]
        j = i + int(np.searchsorted(seed_dist[i:], level, side="right"))
        offers = np.concatenate((flat[i:j], pushed))
        i, level = j, level + 1
        pushed = offers = offers[dist[pred[offers]] < 0]
        if not len(offers):
            continue
        p, c = pred[offers], chan[offers]
        key = load[c]
        order = np.lexsort((key, p))
        win = order[np.concatenate(([True], p[order[1:]] != p[order[:-1]]))]
        win = win[np.lexsort((win, key[win]))]
        dist[p[win]] = level - 1
        chosen[p[win]] = c[win]
        pushed = csr_gather(ptr, p[win][is_switch[p[win]]])[1]

def updown_tables(fabric: Fabric, rank: np.ndarray, engine: str) -> RoutingTables:
    """Up*/Down* tables under ``rank``, one destination at a time; a
    channel's load counts the table entries that chose it, as in MinHop.
    FatTree routes here with its tree levels as ranks."""
    T = fabric.num_terminals
    next_channel = np.full((fabric.num_nodes, T), -1, dtype=np.int32)
    load = np.zeros(fabric.num_channels, dtype=np.int64)
    graph = _updown_graph(fabric, rank)
    for t_idx, dest in enumerate(fabric.terminals.tolist()):
        next_channel[:, t_idx] = UpDownEngine._dp_from_dest(fabric, dest, graph, load)
    return RoutingTables(fabric, next_channel, engine=engine)
