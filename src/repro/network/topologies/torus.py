"""k-ary n-cube torus, mesh and full-mesh generators.

These are the classic structured topologies for which specialised
deadlock-free routings exist (Dally/Seitz dimension-ordered routing with
virtual channels). Switch coordinates are recorded on the fabric so
:mod:`repro.routing.dor` can run; DFSSSP of course needs no coordinates.
"""

from __future__ import annotations

from itertools import product

from repro.exceptions import FabricError
from repro.network.builder import FabricBuilder
from repro.network.fabric import Fabric


def _grid(dims: tuple[int, ...], wrap: bool, terminals_per_switch: int, family: str) -> Fabric:
    if not dims:
        raise FabricError("torus/mesh needs at least one dimension")
    if any(d < 2 for d in dims):
        raise FabricError(f"all dimensions must be >= 2, got {dims}")
    b = FabricBuilder()
    coords = list(product(*(range(d) for d in dims)))
    index = {c: b.add_switch(name="sw" + "_".join(map(str, c))) for c in coords}
    for c, s in index.items():
        b.set_coordinates(s, c)
    for c in coords:
        for axis, size in enumerate(dims):
            # Connect to the +1 neighbor along each axis exactly once.
            if c[axis] + 1 < size:
                nxt = list(c)
                nxt[axis] += 1
                b.add_link(index[c], index[tuple(nxt)])
            elif wrap and size > 2:
                nxt = list(c)
                nxt[axis] = 0
                b.add_link(index[c], index[tuple(nxt)])
            # size == 2 with wrap would duplicate the single cable.
    for c in coords:
        for j in range(terminals_per_switch):
            t = b.add_terminal(name="hca" + "_".join(map(str, c)) + f"_{j}")
            b.add_link(t, index[c])
    b.metadata = {
        "family": family,
        "dims": tuple(dims),
        "terminals_per_switch": terminals_per_switch,
        "wraparound": wrap,
    }
    return b.build()


def torus(dims: tuple[int, ...], terminals_per_switch: int = 1) -> Fabric:
    """k-ary n-cube with wraparound links.

    ``dims=(4, 4, 4)`` is a 4-ary 3-cube (64 switches). Dimensions of
    size 2 get a single cable (wrap would duplicate it), matching physical
    installations.
    """
    return _grid(tuple(dims), wrap=True, terminals_per_switch=terminals_per_switch, family="torus")


def mesh(dims: tuple[int, ...], terminals_per_switch: int = 1) -> Fabric:
    """Mesh (torus without wraparound links)."""
    return _grid(tuple(dims), wrap=False, terminals_per_switch=terminals_per_switch, family="mesh")


def full_mesh(n: int, terminals_per_switch: int = 1) -> Fabric:
    """``n`` switches with one cable between every pair (the complete graph).

    A known answer: every minimal route crosses at most one switch-to-switch
    cable, so no path holds two consecutive switch channels, the channel
    dependency graph has no edge, and one virtual layer suffices.
    """
    if n < 2:
        raise FabricError(f"a full mesh needs at least 2 switches, got {n}")
    b = FabricBuilder()
    sw = b.add_switches(n)
    for i in range(n):
        for j in range(i + 1, n):
            b.add_link(sw[i], sw[j])
    for i, s in enumerate(sw):
        for j in range(terminals_per_switch):
            b.add_link(b.add_terminal(name=f"hca{i}_{j}"), s)
    b.metadata = {"family": "full_mesh", "switches": n,
                  "terminals_per_switch": terminals_per_switch}
    return b.build()
