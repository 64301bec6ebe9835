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
from repro.network.fabric import Fabric, csr_gather
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
    src, dst = fabric.channels.src, fabric.channels.dst
    is_switch = fabric.kinds == 0
    level = np.zeros(fabric.num_nodes, dtype=np.int64)
    frontier = np.unique(src[is_switch[src] & ~is_switch[dst]])
    if not len(frontier):
        raise UnsupportedTopologyError("no leaf switches (no terminals attached?)")
    # Multi-source BFS from the leaves over switch cables.
    depth = 1
    while len(frontier):
        level[frontier] = depth
        nxt = dst[fabric.out_chan[csr_gather(fabric.out_ptr, frontier)[1]]]
        frontier = np.unique(nxt[is_switch[nxt] & (level[nxt] == 0)])
        depth += 1
    unleveled = fabric.switches[level[fabric.switches] == 0]
    if len(unleveled):
        raise UnsupportedTopologyError(f"switch {unleveled[0]} is not level-reachable")
    _check_adjacent(fabric, level, "connects levels {lu} and {lv}; not a fat tree")
    # (b) all roots on the top level.
    sw = fabric.switch_channel_ids()
    climbers = src[sw][level[dst[sw]] == level[src[sw]] + 1]
    low = fabric.switches[(level[fabric.switches] < level.max())
                          & ~np.isin(fabric.switches, climbers)]
    if len(low):
        raise UnsupportedTopologyError(
            f"switch {low[0]} at level {level[low[0]]} has no up-links; not a fat tree"
        )
    return dict(zip(fabric.switches.tolist(), level[fabric.switches].tolist()))


def _check_adjacent(fabric: Fabric, level: np.ndarray, why: str) -> None:
    """Raise for the first switch cable, by channel id, whose ends' levels
    are not adjacent; ``why`` formats with ``lu`` and ``lv``."""
    sw = fabric.switch_channel_ids()
    u, v = fabric.channels.src[sw], fabric.channels.dst[sw]
    off = np.flatnonzero(np.abs(level[u] - level[v]) != 1)
    if len(off):
        u, v = int(u[off[0]]), int(v[off[0]])
        raise UnsupportedTopologyError(f"cable {u}<->{v} " + why.format(lu=level[u], lv=level[v]))


def tree_ranks(fabric: Fabric) -> np.ndarray:
    """Ranks (0 = top level) from generator metadata, or inferred
    structurally when the fabric was not built by a tree generator.

    Raises :class:`UnsupportedTopologyError` when the fabric is not a
    leveled tree (e.g. after failure injection removed switches).
    """
    levels = fabric.metadata.get("switch_levels")
    inferred = not levels
    if inferred:
        levels = infer_switch_levels(fabric)
    elif fabric.metadata.get("family") not in _TREE_FAMILIES:
        raise UnsupportedTopologyError(
            f"switch_levels metadata present but family "
            f"{fabric.metadata.get('family')!r} is not a tree"
        )
    # JSON round-trips turn int keys into strings; normalise.
    node = np.fromiter(map(int, levels), dtype=np.int64, count=len(levels))
    level = np.fromiter(map(int, levels.values()), dtype=np.int64, count=len(levels))
    known = (node >= 0) & (node < fabric.num_nodes)
    rank = np.full(fabric.num_nodes, -1, dtype=np.int64)
    rank[node[known]] = level.max() - level[known]
    missing = fabric.switches[rank[fabric.switches] < 0]
    if len(missing):
        raise UnsupportedTopologyError(f"switch {missing[0]} has no tree level")
    rank[fabric.terminals] = -1
    if not inferred:  # inferred levels passed this check already
        _check_adjacent(fabric, rank, "does not connect adjacent tree levels")
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
