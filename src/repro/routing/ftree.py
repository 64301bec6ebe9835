"""Fat-tree routing.

OpenSM's ``ftree`` engine recognises k-ary n-trees / XGFTs and routes
up-then-down with deterministic spreading; on anything else it refuses
and OpenSM falls back to MinHop. We mirror that: the engine requires the
generator-recorded ``switch_levels`` metadata (and a tree-family tag),
validates that cables respect the leveling, and otherwise raises
:class:`UnsupportedTopologyError` — the paper's "missing bar" on the
irregular real-world fabrics.

Routing itself is Up*/Down*'s per-destination loop
(:func:`repro.routing.updown.updown_tables`) with ranks derived from
tree levels (root level = rank 0). In a proper fat tree the descent
stage settles exactly the destination leaf's ancestor cone and the
ascent stage takes minimal up paths into it, i.e. classic NCA routing;
port-load tie-breaking provides the d-mod-k-style spreading over
parallel ancestors.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import UnsupportedTopologyError
from repro.network.fabric import Fabric
from repro.routing.base import LayeredRouting, RoutingEngine, RoutingResult
from repro.routing.updown import updown_tables

_TREE_FAMILIES = ("kary_ntree", "xgft")


def infer_switch_levels(fabric: Fabric) -> dict[int, int]:
    """Detect a fat-tree leveling structurally (OpenSM's ftree does the
    same on the live subnet).

    Rules: every switch with attached terminals is a leaf (level 1);
    other switches take 1 + (hop distance to the nearest leaf). The
    result must satisfy (a) every cable connects adjacent levels, and
    (b) all "roots" (switches without up-links) sit on the single top
    level. Violations — trunked leaf-to-leaf cables, mid-level terminals,
    capped sub-spines — raise :class:`UnsupportedTopologyError`, which is
    how the irregular real-world systems end up as the paper's missing
    bars.
    """
    from collections import deque

    levels: dict[int, int] = {}
    queue: deque[int] = deque()
    for s in fabric.switches:
        s = int(s)
        if any(fabric.is_terminal(int(n)) for n in fabric.neighbors(s)):
            levels[s] = 1
            queue.append(s)
    if not queue:
        raise UnsupportedTopologyError("no leaf switches (no terminals attached?)")
    while queue:
        v = queue.popleft()
        for n in fabric.neighbors(v):
            n = int(n)
            if fabric.is_switch(n) and n not in levels:
                levels[n] = levels[v] + 1
                queue.append(n)
    for s in fabric.switches:
        if int(s) not in levels:
            raise UnsupportedTopologyError(f"switch {int(s)} is not level-reachable")
    # (a) adjacency of levels.
    for cid in fabric.switch_channel_ids():
        u = int(fabric.channels.src[cid])
        v = int(fabric.channels.dst[cid])
        if abs(levels[u] - levels[v]) != 1:
            raise UnsupportedTopologyError(
                f"cable {u}<->{v} connects levels {levels[u]} and {levels[v]}; "
                f"not a fat tree"
            )
    # (b) all roots on the top level.
    top = max(levels.values())
    for s in fabric.switches:
        s = int(s)
        if levels[s] == top:
            continue
        if not any(
            fabric.is_switch(int(n)) and levels[int(n)] == levels[s] + 1
            for n in fabric.neighbors(s)
        ):
            raise UnsupportedTopologyError(
                f"switch {s} at level {levels[s]} has no up-links; not a fat tree"
            )
    return levels


def tree_ranks(fabric: Fabric) -> np.ndarray:
    """Ranks (0 = top level) from generator metadata, or inferred
    structurally when the fabric was not built by a tree generator.

    Raises :class:`UnsupportedTopologyError` when the fabric is not a
    leveled tree (e.g. after failure injection removed switches).
    """
    levels = fabric.metadata.get("switch_levels")
    if levels:
        if fabric.metadata.get("family") not in _TREE_FAMILIES:
            raise UnsupportedTopologyError(
                f"switch_levels metadata present but family "
                f"{fabric.metadata.get('family')!r} is not a tree"
            )
        # JSON round-trips turn int keys into strings; normalise.
        levels = {int(k): int(v) for k, v in levels.items()}
    else:
        levels = infer_switch_levels(fabric)
    max_level = max(levels.values())
    rank = np.full(fabric.num_nodes, -1, dtype=np.int64)
    for s in fabric.switches:
        s = int(s)
        if s not in levels:
            raise UnsupportedTopologyError(f"switch {s} has no tree level")
        rank[s] = max_level - int(levels[s])
    # Structural check: switch cables must connect adjacent levels.
    for cid in fabric.switch_channel_ids():
        u = int(fabric.channels.src[cid])
        v = int(fabric.channels.dst[cid])
        if abs(int(rank[u]) - int(rank[v])) != 1:
            raise UnsupportedTopologyError(
                f"cable {u}<->{v} does not connect adjacent tree levels"
            )
    return rank


class FatTreeEngine(RoutingEngine):
    """NCA up/down routing for k-ary n-trees and XGFTs."""

    name = "ftree"

    def _route(self, fabric: Fabric) -> RoutingResult:
        tables = updown_tables(fabric, tree_ranks(fabric), self.name)
        return RoutingResult(
            tables=tables,
            layered=LayeredRouting.single_layer(tables),
            deadlock_free=True,
            stats={"engine": self.name},
        )
