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
from repro.parallel.kernel import hops_to_dest
from repro.routing.base import (
    LayeredRouting,
    RoutingEngine,
    RoutingResult,
    RoutingTables,
    attach_terminals,
)
from repro.routing.minhop import choose_least_loaded


class LASHEngine(RoutingEngine):
    """Layered shortest-path routing with online layer assignment."""

    name = "lash"

    def __init__(self, max_layers: int = DEFAULT_MAX_LAYERS):
        if max_layers < 1:
            raise ValueError(f"max_layers must be >= 1, got {max_layers}")
        self.max_layers = max_layers

    def _route(self, fabric: Fabric) -> RoutingResult:
        S = fabric.num_switches
        # ------------------------------------------------------------------
        # 1. Balanced min-hop trees toward every destination switch, by
        #    MinHop's chooser over switch-to-switch channels.
        #    sw_next[node, t_sw_idx] = next channel toward switch.
        sw_next = np.full((fabric.num_nodes, S), -1, dtype=np.int32)
        load = np.zeros(fabric.num_channels, dtype=np.int64)
        chan_src, chan_dst = fabric.channels.src, fabric.channels.dst
        for t_sw_idx in range(S):
            dest_sw = int(fabric.switches[t_sw_idx])
            dist = hops_to_dest(fabric, dest_sw)
            eligible = (
                fabric.is_switch_channel
                & (dist[chan_dst] >= 0)
                & (dist[chan_src] == dist[chan_dst] + 1)
                & (chan_src != dest_sw)
            )
            chosen = choose_least_loaded(fabric, eligible, load)
            sw_next[chan_src[chosen], t_sw_idx] = chosen
            stranded = sw_next[fabric.switches, t_sw_idx] < 0
            stranded[t_sw_idx] = False
            if stranded.any():
                raise RoutingError(
                    f"lash: switch {int(fabric.switches[stranded.argmax()])} cannot reach "
                    f"switch {dest_sw} through the switch graph"
                )

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
        # 4. Expand to terminal-destination forwarding tables: a switch
        #    forwards toward a terminal along the tree of the terminal's
        #    ejection switch (which, like the terminals, has no tree entry).
        next_channel = np.full((fabric.num_nodes, fabric.num_terminals), -1, dtype=np.int32)
        term_sw_idx = fabric.switch_index[attach_terminals(fabric, next_channel)]
        to_switch = sw_next[:, term_sw_idx]
        np.copyto(next_channel, to_switch, where=to_switch >= 0)
        tables = RoutingTables(fabric, next_channel, engine=self.name)
        # Per-(switch, terminal) layers inherit the switch-pair layer; the
        # destination's own switch row is an ejection-only path (layer 0,
        # the diagonal of pair_layer).
        path_layers = pair_layer[:, term_sw_idx].T.ravel()
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
