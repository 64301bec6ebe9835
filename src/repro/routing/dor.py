"""Dimension-ordered routing (DOR).

Classic e-cube routing for coordinate topologies: correct the coordinate
differences one dimension at a time, in fixed dimension order. Minimal
and simple, but only defined where coordinates exist — on anything else
the engine raises :class:`UnsupportedTopologyError`, which the benchmark
harness reports as the paper's "missing bar".

Deadlock behaviour matches the literature: acyclic on meshes and
hypercubes, cyclic on tori/rings (the wraparound closes dependency
cycles) — OpenSM's DOR has the same property, which is why LASH exists.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import UnsupportedTopologyError
from repro.network.fabric import Fabric
from repro.routing.base import RoutingEngine, RoutingResult, RoutingTables, attach_terminals

_COORD_FAMILIES = ("torus", "mesh", "hypercube", "ring", "chordal_ring")


def _dims_and_wrap(fabric: Fabric) -> tuple[tuple[int, ...], bool]:
    family = fabric.metadata.get("family")
    if family in ("torus", "mesh"):
        return tuple(fabric.metadata["dims"]), bool(fabric.metadata.get("wraparound", False))
    if family == "hypercube":
        return (2,) * int(fabric.metadata["dimension"]), False
    if family in ("ring", "chordal_ring"):
        return (int(fabric.metadata["num_switches"]),), True
    raise UnsupportedTopologyError(
        f"DOR needs a coordinate topology (one of {_COORD_FAMILIES}), "
        f"got family {family!r}"
    )


class DOREngine(RoutingEngine):
    """Dimension-ordered routing for coordinate topologies."""

    name = "dor"

    def _route(self, fabric: Fabric) -> RoutingResult:
        dims, wrap = _dims_and_wrap(fabric)
        switches = fabric.switches.tolist()
        rows = [fabric.coordinates.get(s, ()) for s in switches]
        for s, row in zip(switches, rows):
            if len(row) != len(dims):
                raise UnsupportedTopologyError(
                    f"switch {s} lacks {len(dims)}-dimensional coordinates"
                )
        coords = np.array(rows, dtype=np.int64).reshape(len(rows), len(dims))
        size = np.array(dims, dtype=np.int64)
        # A dense coordinate -> switch grid over a box that holds every
        # coordinate and every next hop; the last switch at a place wins.
        lo = coords.min(axis=0, initial=0)
        shape = np.maximum(coords.max(axis=0, initial=0) + 1, size) - lo
        place = np.ravel_multi_index((coords - lo).T, shape)
        last = len(place) - 1 - np.unique(place[::-1], return_index=True)[1]
        grid = np.full(int(np.prod(shape)), -1, dtype=np.int64)
        grid[place[last]] = fabric.switches[last]
        # Channel ids grouped by (src, dst), ascending within a group.
        N = fabric.num_nodes
        pair = fabric.channels.src.astype(np.int64) * N + fabric.channels.dst
        by_pair = np.argsort(pair, kind="stable")
        pair = pair[by_pair]
        here = fabric.switches.astype(np.int64)
        idx = np.arange(len(switches))

        next_channel = np.full((N, fabric.num_terminals), -1, dtype=np.int32)
        target = attach_terminals(fabric, next_channel)
        # One pass per destination column: every switch but the target
        # moves along its first axis with a nonzero difference.
        for t_idx, tgt in enumerate(fabric.switch_index[target].tolist()):
            delta = (coords[tgt] - coords) % size
            moves = delta != 0
            axis = moves.argmax(axis=1)
            d, cur, n = delta[idx, axis], coords[idx, axis], size[axis]
            if wrap:
                # Shorter wrap direction; ties go positive.
                hop = (cur + np.where(d <= n - d, 1, -1)) % n
            else:
                hop = cur + np.where(coords[tgt, axis] > cur, 1, -1)
            nxt = coords.copy()
            nxt[idx, axis] = hop
            # Rows that do not move (the target's) clip to a throwaway hop.
            nxt_switch = grid[np.ravel_multi_index((nxt - lo).T, shape, mode="clip")]
            first = np.searchsorted(pair, here * N + nxt_switch)
            count = np.searchsorted(pair, here * N + nxt_switch, side="right") - first
            away = idx != tgt
            bad = away & (~moves.any(axis=1) | (nxt_switch < 0) | (count == 0))
            if bad.any():
                k = int(np.argmax(bad))
                spot = tuple(nxt[k].tolist())
                if not moves[k].any():  # pragma: no cover - two switches share coordinates
                    raise AssertionError("DOR step called with source == target")
                raise UnsupportedTopologyError(
                    f"coordinate grid incomplete at {spot} (degraded fabric?); DOR cannot route"
                    if nxt_switch[k] < 0 else f"missing cable {rows[k]} -> {spot}; DOR cannot route"
                )
            # Parallel cables round-robin by destination index.
            step = by_pair.take(first + t_idx % np.maximum(count, 1), mode="clip")
            next_channel[here[away], t_idx] = step[away]

        tables = RoutingTables(fabric, next_channel, engine=self.name)
        return RoutingResult(
            tables=tables,
            layered=None,
            deadlock_free=False,  # cyclic on wraparound topologies
            stats={"engine": self.name, "dims": dims, "wraparound": wrap},
        )
