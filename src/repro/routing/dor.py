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
        coords = fabric.coordinates
        for s in fabric.switches:
            if int(s) not in coords or len(coords[int(s)]) != len(dims):
                raise UnsupportedTopologyError(
                    f"switch {int(s)} lacks {len(dims)}-dimensional coordinates"
                )
        coord_to_switch = {coords[int(s)]: int(s) for s in fabric.switches}

        next_channel = np.full((fabric.num_nodes, fabric.num_terminals), -1, dtype=np.int32)
        target = attach_terminals(fabric, next_channel)
        for t_idx, tgt in enumerate(target.tolist()):
            tc = coords[tgt]
            for s in fabric.switches.tolist():
                if s != tgt:
                    next_channel[s, t_idx] = self._step(
                        fabric, coords, coord_to_switch, dims, wrap, s, tc, t_idx
                    )

        tables = RoutingTables(fabric, next_channel, engine=self.name)
        return RoutingResult(
            tables=tables,
            layered=None,
            deadlock_free=False,  # cyclic on wraparound topologies
            stats={"engine": self.name, "dims": dims, "wraparound": wrap},
        )

    @staticmethod
    def _step(fabric, coords, coord_to_switch, dims, wrap, s, tc, t_idx) -> int:
        sc = coords[s]
        for axis, size in enumerate(dims):
            delta = (tc[axis] - sc[axis]) % size
            if delta == 0:
                continue
            if wrap:
                # Shorter wrap direction; ties go positive.
                step = 1 if delta <= size - delta else -1
            else:
                step = 1 if tc[axis] > sc[axis] else -1
            nxt = list(sc)
            nxt[axis] = (sc[axis] + step) % size if wrap else sc[axis] + step
            nxt_switch = coord_to_switch.get(tuple(nxt))
            if nxt_switch is None:
                raise UnsupportedTopologyError(
                    f"coordinate grid incomplete at {tuple(nxt)} "
                    f"(degraded fabric?); DOR cannot route"
                )
            chans = fabric.channels_between(s, nxt_switch)
            if not chans:
                raise UnsupportedTopologyError(
                    f"missing cable {sc} -> {tuple(nxt)}; DOR cannot route"
                )
            return chans[t_idx % len(chans)]
        raise AssertionError("DOR step called with source == target")  # pragma: no cover
