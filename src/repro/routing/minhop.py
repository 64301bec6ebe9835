"""MinHop routing — OpenSM's default, the paper's main baseline.

MinHop forwards every destination along some minimum-hop path and
balances *locally*: each switch spreads its destination entries over the
eligible minimum-hop ports by picking, per destination, the port that has
accumulated the fewest routes so far. It is fast and gives good paths,
but (a) its balancing cannot see remote congestion, and (b) it is **not
deadlock-free** — both facts the paper exploits.

Implementation note: the per-destination pass is fully vectorised
(:func:`choose_least_loaded`, which LASH's switch trees share). This
is *exactly* equivalent to the sequential OpenSM-style loop because a
channel's load counter is only ever bumped by its own source node, so
within one destination no node's choice can influence another's; choices
only interact across destinations, where we apply the bulk update. Ties
break on (load, channel id), matching the sequential first-minimum scan.
A single-homed terminal (one cable, into a switch) is reached through its
switch only, so its hop column is the switch's plus one: one BFS serves
every terminal on a switch.
"""

from __future__ import annotations

import numpy as np

from repro.network.fabric import Fabric
from repro.parallel.kernel import hops_to_dest
from repro.routing.base import RoutingEngine, RoutingResult, RoutingTables, leaves

#: Most bytes one route's cached switch hop columns may hold; switches
#: past it are swept again for each of their terminals.
SWEEP_CACHE_BYTES = 32 << 20


class MinHopEngine(RoutingEngine):
    """OpenSM-style locally balanced minimum-hop routing."""

    name = "minhop"

    def _route(self, fabric: Fabric) -> RoutingResult:
        T = fabric.num_terminals
        next_channel = np.full((fabric.num_nodes, T), -1, dtype=np.int32)
        load = np.zeros(fabric.num_channels, dtype=np.int64)
        chan_src = fabric.channels.src.astype(np.int64)
        chan_dst = fabric.channels.dst.astype(np.int64)
        sweeps: dict[int, np.ndarray] = {}  # attachment switch -> its hop column
        max_sweeps = SWEEP_CACHE_BYTES // (4 * fabric.num_nodes)
        lv = leaves(fabric)
        leaf_switch = np.full(fabric.num_nodes, -1, dtype=np.intp)
        leaf_switch[lv.nodes] = lv.switches

        for t_idx in range(T):
            dest = int(fabric.terminals[t_idx])
            switch = int(leaf_switch[dest])
            if switch < 0:
                dist = hops_to_dest(fabric, dest)
            else:
                hops = sweeps.get(switch)
                if hops is None:
                    hops = hops_to_dest(fabric, switch)
                    if len(sweeps) < max_sweeps:
                        sweeps[switch] = hops
                dist = np.where(hops >= 0, hops + 1, -1).astype(np.int32)
                dist[dest] = 0
            # A channel (u -> v) lies on a minimum-hop path iff
            # dist[v] + 1 == dist[u]; the destination itself gets no entry.
            eligible = (
                (dist[chan_dst] >= 0)
                & (dist[chan_src] == dist[chan_dst] + 1)
                & (chan_src != dest)
            )
            chosen = choose_least_loaded(fabric, eligible, load)
            next_channel[chan_src[chosen], t_idx] = chosen

        tables = RoutingTables(fabric, next_channel, engine=self.name)
        return RoutingResult(
            tables=tables,
            layered=None,
            deadlock_free=False,
            stats={"engine": self.name, "max_port_load": int(load.max(initial=0))},
        )


def choose_least_loaded(fabric: Fabric, eligible: np.ndarray, load: np.ndarray) -> np.ndarray:
    """The locally balanced choice toward one destination: for every node
    with an eligible out-channel, the first under (load, channel id).

    ``eligible`` is a boolean mask over channels; ``load`` counts each
    channel's earlier choices and is bumped for the chosen ones. Returns
    the chosen channel ids, one per source node, as ``int32``.
    """
    chan_src = fabric.channels.src
    cand = np.flatnonzero(eligible)
    cand = cand[np.lexsort((cand, load[cand], chan_src[cand]))]
    src = chan_src[cand]
    first = np.ones(len(cand), dtype=bool)
    first[1:] = src[1:] != src[:-1]
    chosen = cand[first]
    load[chosen] += 1
    return chosen.astype(np.int32)
