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
from repro.routing.base import RoutingEngine, RoutingResult, RoutingTables

#: Most bytes one route's cached switch hop columns may hold; switches
#: past it are swept again for each of their terminals.
SWEEP_CACHE_BYTES = 32 << 20


class MinHopEngine(RoutingEngine):
    """OpenSM-style locally balanced minimum-hop routing."""

    name = "minhop"

    def _route(self, fabric: Fabric) -> RoutingResult:
        from repro.parallel.kernel import hops_to_dest  # kernel -> core.sssp -> routing

        T = fabric.num_terminals
        next_channel = np.full((fabric.num_nodes, T), -1, dtype=np.int32)
        load = np.zeros(fabric.num_channels, dtype=np.int64)
        chan_src = fabric.channels.src.astype(np.int64)
        chan_dst = fabric.channels.dst.astype(np.int64)
        sweeps: dict[int, np.ndarray] = {}  # attachment switch -> its hop column
        max_sweeps = SWEEP_CACHE_BYTES // (4 * fabric.num_nodes)

        for t_idx in range(T):
            dest = int(fabric.terminals[t_idx])
            switch = _uplink_switch(fabric, dest)
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

    # ------------------------------------------------------------------
    def _route_scalar(self, fabric: Fabric) -> RoutingResult:
        """Reference implementation (sequential loop); kept for the
        equivalence regression test."""
        from repro.parallel.kernel import hops_to_dest

        T = fabric.num_terminals
        next_channel = np.full((fabric.num_nodes, T), -1, dtype=np.int32)
        load = np.zeros(fabric.num_channels, dtype=np.int64)
        chan_dst = fabric.channels.dst
        for t_idx in range(T):
            dest = int(fabric.terminals[t_idx])
            dist = hops_to_dest(fabric, dest)
            for v in range(fabric.num_nodes):
                if v == dest:
                    continue
                best, best_load = -1, None
                dv = dist[v]
                for c in fabric.out_channels(v):
                    if dist[chan_dst[c]] < 0 or dist[chan_dst[c]] + 1 != dv:
                        continue
                    lc = load[c]
                    if best < 0 or lc < best_load:
                        best, best_load = int(c), lc
                if best < 0:  # pragma: no cover
                    continue
                next_channel[v, t_idx] = best
                load[best] += 1
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


def _uplink_switch(fabric: Fabric, terminal: int) -> int:
    """The switch a single-homed terminal hangs off, else -1."""
    lo, hi = fabric.out_ptr[terminal], fabric.out_ptr[terminal + 1]
    if hi - lo != 1:
        return -1
    switch = int(fabric.channels.dst[fabric.out_chan[lo]])
    return switch if fabric.is_switch(switch) else -1
