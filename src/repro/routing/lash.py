"""LASH — LAyered SHortest path routing (Skeie/Lysne et al.).

LASH routes minimum-hop at *switch-pair* granularity and assigns every
switch-pair path **online** to the lowest virtual layer whose channel
dependency graph stays acyclic — one incremental cycle check per path.
It was designed for tori (where DOR-like path sets layer cheaply); the
paper uses it as the established deadlock-free baseline for both
bandwidth (Figs. 4-6) and virtual-lane counts (Figs. 9/10).

Differences from DFSSSP worth keeping in mind when reading results:

* balancing is MinHop-style local (port counters), not global;
* layering granularity is switch pairs (|S|² paths), whereas DFSSSP
  layers (switch, destination-terminal) paths — coarser moves, which is
  why their layer counts diverge on sparse vs dense fabrics (Fig. 9).
"""

from __future__ import annotations

import numpy as np

from repro.core.layers import DEFAULT_MAX_LAYERS
from repro.deadlock.cdg import ChannelDependencyGraph, first_fit
from repro.exceptions import RoutingError
from repro.network.fabric import Fabric
from repro.routing.base import LayeredRouting, RoutingEngine, RoutingResult, RoutingTables


class LASHEngine(RoutingEngine):
    """Layered shortest-path routing with online layer assignment."""

    name = "lash"

    def __init__(self, max_layers: int = DEFAULT_MAX_LAYERS):
        if max_layers < 1:
            raise ValueError(f"max_layers must be >= 1, got {max_layers}")
        self.max_layers = max_layers

    def _route(self, fabric: Fabric) -> RoutingResult:
        from repro.parallel.kernel import hops_to_dest  # kernel -> core.sssp -> routing

        S = fabric.num_switches
        T = fabric.num_terminals
        # ------------------------------------------------------------------
        # 1. Balanced min-hop trees toward every destination switch.
        #    sw_next[node, t_sw_idx] = next channel toward switch.
        sw_next = np.full((fabric.num_nodes, S), -1, dtype=np.int32)
        load = np.zeros(fabric.num_channels, dtype=np.int64)
        chan_dst = fabric.channels.dst
        for t_sw_idx in range(S):
            dest_sw = int(fabric.switches[t_sw_idx])
            dist = hops_to_dest(fabric, dest_sw)
            for v in fabric.switches:
                v = int(v)
                if v == dest_sw:
                    continue
                best, best_load = -1, None
                dv = dist[v]
                for c in fabric.out_channels(v):
                    w = int(chan_dst[c])
                    if not fabric.is_switch(w) or dist[w] + 1 != dv:
                        continue
                    if best < 0 or load[c] < best_load:
                        best, best_load = int(c), int(load[c])
                if best < 0:
                    raise RoutingError(
                        f"lash: switch {v} cannot reach switch {dest_sw} "
                        f"through the switch graph"
                    )
                sw_next[v, t_sw_idx] = best
                load[best] += 1

        # ------------------------------------------------------------------
        # 2. Extract the |S|^2 switch-pair paths (suffix-consistent trees).
        pair_paths: dict[tuple[int, int], np.ndarray] = {}
        for t_sw_idx in range(S):
            dest_sw = int(fabric.switches[t_sw_idx])
            for s_sw_idx in range(S):
                if s_sw_idx == t_sw_idx:
                    continue
                node = int(fabric.switches[s_sw_idx])
                chans: list[int] = []
                while node != dest_sw:
                    c = int(sw_next[node, t_sw_idx])
                    chans.append(c)
                    node = int(chan_dst[c])
                    if len(chans) > fabric.num_nodes:  # pragma: no cover
                        raise RoutingError("lash: switch-level forwarding loop")
                pair_paths[(s_sw_idx, t_sw_idx)] = np.array(chans, dtype=np.int32)

        # ------------------------------------------------------------------
        # 3. Online layer assignment per switch pair.
        pair_layer = np.zeros((S, S), dtype=np.int16)
        cdgs = [ChannelDependencyGraph(fabric)]
        for (s_sw_idx, t_sw_idx), chans in pair_paths.items():
            pair_pid = t_sw_idx * S + s_sw_idx
            pair_layer[s_sw_idx, t_sw_idx] = first_fit(
                cdgs, pair_pid, chans, f"lash: pair ({s_sw_idx},{t_sw_idx})",
                max_layers=self.max_layers,
            )

        # ------------------------------------------------------------------
        # 4. Expand to terminal-destination forwarding tables.
        next_channel = np.full((fabric.num_nodes, T), -1, dtype=np.int32)
        term_sw_idx = np.empty(T, dtype=np.int32)
        for t_idx in range(T):
            dest = int(fabric.terminals[t_idx])
            dest_sw = int(fabric.attached_switches(dest)[0])
            t_sw_idx = int(fabric.switch_index[dest_sw])
            term_sw_idx[t_idx] = t_sw_idx
            next_channel[:, t_idx] = sw_next[:, t_sw_idx]
            eject = fabric.channels_between(dest_sw, dest)
            next_channel[dest_sw, t_idx] = eject[t_idx % len(eject)]
            for term in fabric.terminals:
                term = int(term)
                if term == dest:
                    next_channel[term, t_idx] = -1
                    continue
                # Inject round-robin over the terminal's uplinks (by destination).
                inject = fabric.out_channels(term)
                next_channel[term, t_idx] = inject[t_idx % len(inject)]

        tables = RoutingTables(fabric, next_channel, engine=self.name)
        # Per-(switch, terminal) layers inherit the switch-pair layer; the
        # destination's own switch row is an ejection-only path (layer 0).
        path_layers = np.zeros(S * T, dtype=np.int16)
        for t_idx in range(T):
            t_sw_idx = int(term_sw_idx[t_idx])
            path_layers[t_idx * S : (t_idx + 1) * S] = pair_layer[:, t_sw_idx]
            path_layers[t_idx * S + t_sw_idx] = 0
        layered = LayeredRouting(tables, path_layers, self.max_layers)
        return RoutingResult(
            tables=tables,
            layered=layered,
            deadlock_free=True,
            stats={
                "engine": self.name,
                "layers_needed": len(cdgs),
                "layers_used": layered.layers_used,
            },
        )
