"""Fabric sanity checks shared by generators, loaders and routing engines.

Destination-based routing requires the fabric to be connected (every
terminal reachable from every node). The checks here are cheap —
one BFS over the undirected cable graph — and are run by every routing
engine before it starts, so misconfigured topologies fail with a clear
message instead of producing partial forwarding tables.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DisconnectedFabricError, FabricError
from repro.network.fabric import Fabric, csr_gather


def check_connected(fabric: Fabric) -> None:
    """Raise :class:`DisconnectedFabricError` unless the fabric is connected.

    Because every cable is bidirectional, weak connectivity of the channel
    graph equals strong connectivity; a single BFS from node 0 suffices,
    one array gather over the frontier's channels per level.
    """
    if fabric.num_nodes == 0:
        raise FabricError("fabric has no nodes")
    if fabric.num_nodes == 1:
        return
    neighbour = fabric.channels.dst[fabric.out_chan]  # per CSR slot
    seen = np.zeros(fabric.num_nodes, dtype=bool)
    seen[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while len(frontier):
        reached = neighbour[csr_gather(fabric.out_ptr, frontier)[1]]
        frontier = np.unique(reached[~seen[reached]])
        seen[frontier] = True
    found = int(np.count_nonzero(seen))
    if found != fabric.num_nodes:
        missing = np.flatnonzero(~seen)[:5].tolist()
        raise DisconnectedFabricError(
            f"fabric is disconnected: {fabric.num_nodes - found} unreachable nodes "
            f"(e.g. {missing})"
        )


def check_terminals_attached(fabric: Fabric) -> None:
    """Every terminal must have at least one cable (to a switch)."""
    bare = fabric.terminals[np.diff(fabric.out_ptr)[fabric.terminals] == 0]
    if len(bare):
        t = int(bare[0])
        raise FabricError(f"terminal {t} ({fabric.names[t]}) has no cables")


def check_routable(fabric: Fabric) -> None:
    """Combined precondition used by routing engines."""
    if fabric.num_terminals < 2:
        raise FabricError(
            f"fabric has {fabric.num_terminals} terminals; routing needs at least 2"
        )
    check_terminals_attached(fabric)
    check_connected(fabric)


def switch_degree_histogram(fabric: Fabric) -> dict[int, int]:
    """Histogram {degree: count} over switches (analysis helper)."""
    hist: dict[int, int] = {}
    for s in fabric.switches:
        d = fabric.degree(int(s))
        hist[d] = hist.get(d, 0) + 1
    return dict(sorted(hist.items()))
