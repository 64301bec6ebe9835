"""Channel dependency graphs (Dally & Seitz) with path bookkeeping.

The CDG of a routing has one node per *switch-to-switch* channel and an
edge ``(c1, c2)`` whenever some routed path uses ``c2`` immediately after
``c1``. Terminal (injection/ejection) channels can never lie on a CDG
cycle — an injection channel has no predecessor and an ejection channel
no successor — so they are excluded, as in the OpenSM implementation.

For the paper's offline Algorithm 2 every edge additionally carries the
set of path ids inducing it; breaking a cycle means picking one edge and
relocating exactly those paths to the next layer. This is the memory
cost the paper quantifies (≈340 MB at 4096 nodes in C).
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import InsufficientLayersError, RoutingError
from repro.network.fabric import Fabric
from repro.obs import get_registry


class ChannelDependencyGraph:
    """One virtual layer's CDG with per-edge inducing-path sets."""

    def __init__(self, fabric: Fabric):
        self.fabric = fabric
        self._is_sw = fabric.is_switch_channel
        # succ[c1][c2] = set of pids inducing the edge (c1, c2)
        self.succ: dict[int, dict[int, set[int]]] = {}
        self.num_paths = 0
        reg = get_registry()
        self._m_added = reg.counter("cdg_paths_added", "paths registered in CDG layers")
        self._m_removed = reg.counter("cdg_paths_removed", "paths removed from CDG layers")

    # ------------------------------------------------------------------
    @staticmethod
    def _switch_pairs(chans: np.ndarray, is_sw: np.ndarray):
        """Consecutive (c1, c2) pairs where both are switch channels."""
        for i in range(len(chans) - 1):
            c1, c2 = int(chans[i]), int(chans[i + 1])
            if is_sw[c1] and is_sw[c2]:
                yield c1, c2

    def add_path(self, pid: int, chans: np.ndarray) -> None:
        """Register ``pid`` (its channel sequence) in this layer."""
        for c1, c2 in self._switch_pairs(chans, self._is_sw):
            row = self.succ.setdefault(c1, {})
            pids = row.get(c2)
            if pids is None:
                row[c2] = {pid}
            else:
                pids.add(pid)
        self.num_paths += 1
        self._m_added.inc()

    def remove_path(self, pid: int, chans: np.ndarray) -> None:
        """Remove ``pid``'s contribution; edges with no inducing path left
        disappear (they can no longer cause deadlock)."""
        for c1, c2 in self._switch_pairs(chans, self._is_sw):
            row = self.succ.get(c1)
            if row is None:
                continue
            pids = row.get(c2)
            if pids is None:
                continue
            pids.discard(pid)
            if not pids:
                del row[c2]
                if not row:
                    del self.succ[c1]
        self.num_paths -= 1
        self._m_removed.inc()

    # ------------------------------------------------------------------
    def pids_of_edge(self, c1: int, c2: int) -> set[int]:
        return self.succ.get(c1, {}).get(c2, set())

    def edge_weight(self, c1: int, c2: int) -> int:
        """Number of paths inducing edge (c1, c2) — the heuristics' key."""
        return len(self.pids_of_edge(c1, c2))

    def has_edge(self, c1: int, c2: int) -> bool:
        return c2 in self.succ.get(c1, {})

    @property
    def num_edges(self) -> int:
        return sum(len(row) for row in self.succ.values())

    def nodes(self) -> set[int]:
        out = set(self.succ)
        for row in self.succ.values():
            out.update(row)
        return out

    def successors(self, c: int):
        return self.succ.get(c, {}).keys()

    # ------------------------------------------------------------------
    def try_add_path(self, pid: int, chans: np.ndarray) -> bool:
        """Online (LASH-style) insertion: add the path unless it closes a
        cycle in this layer; returns False (and leaves the layer
        unchanged) if it would."""
        pairs = list(self._switch_pairs(chans, self._is_sw))
        added: list[tuple[int, int]] = []
        for c1, c2 in pairs:
            row = self.succ.setdefault(c1, {})
            pids = row.get(c2)
            if pids is None:
                row[c2] = {pid}
                added.append((c1, c2))
            elif pid not in pids:
                pids.add(pid)
                added.append((c1, c2))
        if not pairs:
            self.num_paths += 1
            self._m_added.inc()
            return True
        if self._cycle_reachable_from(c for c, _ in pairs):
            for c1, c2 in added:
                row = self.succ[c1]
                row[c2].discard(pid)
                if not row[c2]:
                    del row[c2]
                    if not row:
                        del self.succ[c1]
            return False
        self.num_paths += 1
        self._m_added.inc()
        return True

    def _cycle_reachable_from(self, starts) -> bool:
        """Iterative DFS cycle detection restricted to the region reachable
        from ``starts`` (any cycle created by a new chain passes through a
        chain node, so this is complete for ``try_add_path``)."""
        WHITE, GRAY, BLACK = 0, 1, 2
        color: dict[int, int] = {}
        for start in starts:
            if color.get(start, WHITE) != WHITE:
                continue
            stack: list[tuple[int, list[int]]] = [(start, list(self.successors(start)))]
            color[start] = GRAY
            while stack:
                node, todo = stack[-1]
                if todo:
                    nxt = todo.pop()
                    c = color.get(nxt, WHITE)
                    if c == GRAY:
                        return True
                    if c == WHITE:
                        color[nxt] = GRAY
                        stack.append((nxt, list(self.successors(nxt))))
                else:
                    color[node] = BLACK
                    stack.pop()
        return False


def first_fit(
    cdgs: list[ChannelDependencyGraph],
    pid: int,
    chans: np.ndarray,
    name: str,
    order=None,
    max_layers: int = 0,
) -> int:
    """Add path ``pid`` to the first layer, in ``order`` (default: lowest
    first), whose CDG stays acyclic with it; returns that layer.

    A path no layer takes gets a new, empty layer while fewer than
    ``max_layers`` exist; otherwise it is an
    :class:`InsufficientLayersError` naming ``name`` (a
    :class:`RoutingError` if it fits not even an empty layer).
    """
    for layer in range(len(cdgs)) if order is None else order:
        if cdgs[layer].try_add_path(pid, chans):
            return layer
    if len(cdgs) >= max_layers:
        raise InsufficientLayersError(
            f"{name} fits no layer and all {len(cdgs)} layers are in use",
            layers_available=len(cdgs),
            layers_needed_at_least=len(cdgs) + 1,
        )
    cdgs.append(ChannelDependencyGraph(cdgs[0].fabric))
    if not cdgs[-1].try_add_path(pid, chans):
        raise RoutingError(f"{name} fits no empty layer")
    return len(cdgs) - 1
