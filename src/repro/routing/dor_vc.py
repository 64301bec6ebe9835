"""Deadlock-free dimension-ordered routing with dateline virtual channels.

The classic Dally/Seitz solution for tori, included as the "specialised
structured-topology" counterpoint to DFSSSP: routes are plain DOR, and
each path gets a virtual layer derived from *which dimensions it wraps
around* (crosses the dateline between coordinate ``size-1`` and ``0``).

Why this is deadlock-free with one static layer per path (InfiniBand SL
semantics — the lane cannot change mid-route):

* DOR orders dimensions, so channel dependencies only go from dimension
  ``i`` channels to dimension ``j >= i`` channels — any dependency cycle
  is confined to a single dimension's ring.
* Within layer ``L`` (the set of paths wrapping exactly the dimension
  set ``S``), consider dimension ``i``'s ring: if ``i ∉ S`` no path in
  the layer crosses the dateline, so the ring's dependency chain is cut
  there; if ``i ∈ S`` every path crosses it, and a shortest-path arc
  through one fixed point cannot cover the whole ring, so the chain is
  cut opposite the dateline.

The layer index is the wrap bitmask over the dimensions that can wrap
(size > 2; a size-2 ring has no dateline distinct from its one cable),
giving at most ``2**k`` layers for ``k`` such dimensions (2 for a ring,
4 for a 2D torus, 2 for a 2×5 torus, ...). Meshes and hypercubes wrap
nothing and use a single layer, as expected.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import InsufficientLayersError
from repro.network.fabric import Fabric
from repro.routing.base import LayeredRouting, RoutingEngine, RoutingResult
from repro.routing.dor import DOREngine, _dims_and_wrap
from repro.routing.paths import extract_paths


class DORVCEngine(RoutingEngine):
    """DOR plus dateline virtual-channel assignment (deadlock-free)."""

    name = "dor_vc"

    def __init__(self, max_layers: int = 8):
        if max_layers < 1:
            raise ValueError(f"max_layers must be >= 1, got {max_layers}")
        self.max_layers = max_layers

    def _route(self, fabric: Fabric) -> RoutingResult:
        dims, wrap = _dims_and_wrap(fabric)
        inner = DOREngine().route(fabric)
        tables = inner.tables
        tables.engine = self.name
        paths = extract_paths(tables)

        # Wrap bits are numbered over the dimensions that can wrap: a
        # size-2 ring's only cable is no dateline.
        wrapping = [axis for axis, size in enumerate(dims) if size > 2] if wrap else []
        needed = 2 ** len(wrapping)
        if needed > self.max_layers:
            raise InsufficientLayersError(
                f"dateline DOR needs {needed} layers for {len(wrapping)} wrapped "
                f"dimensions but only {self.max_layers} are available",
                layers_available=self.max_layers,
                layers_needed_at_least=needed,
            )

        # A dateline cable (between coordinates size-1 and 0) sets its
        # dimension's bit; a path's layer ORs the bits of its channels.
        coords = fabric.coordinates
        bit = np.zeros(fabric.num_channels, dtype=np.int16)
        for c in fabric.switch_channel_ids().tolist():
            cu = coords[int(fabric.channels.src[c])]
            cv = coords[int(fabric.channels.dst[c])]
            for b, axis in enumerate(wrapping):
                if {cu[axis], cv[axis]} == {0, dims[axis] - 1}:
                    bit[c] = 1 << b
        path_layers = np.bitwise_or.reduceat(bit[paths.chans], paths.offsets[:-1])

        layered = LayeredRouting(tables, path_layers, needed)
        return RoutingResult(
            tables=tables,
            layered=layered,
            deadlock_free=True,
            stats={
                "engine": self.name,
                "dims": dims,
                "wraparound": wrap,
                "layers_needed": int(path_layers.max()) + 1,
            },
        )
