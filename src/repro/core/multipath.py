"""LMC multipathing — multiple balanced paths per destination.

InfiniBand's LID Mask Control gives every channel adapter ``2**lmc``
consecutive LIDs; the subnet manager routes each LID independently, so a
source can spread its connections over up to ``2**lmc`` distinct paths.
OpenSM's (DF)SSSP implementation — the paper's production code — treats
every LID as one more destination of the same two algorithms, and so do
we, with the production steps:

* Algorithm 1 routes one column per (terminal, lid-offset) pair with the
  step :class:`~repro.core.sssp.SSSPEngine` runs
  (:func:`~repro.parallel.reduction.column_routine`), against *shared*
  cumulative edge weights, so the per-offset trees ("planes") diverge;
* Algorithm 2 (:func:`~repro.deadlock.incremental.assign_layers_incremental`)
  layers the union of all planes' paths once: a packet on plane 1 shares
  physical buffers with plane 0's packets of the same VL.

:class:`~repro.simulator.congestion.MultipathCongestionSimulator` counts
congestion over the planes; :meth:`MultipathRouting.plane_for`
(``(src_idx + dst_idx) mod K``) models MPI's round-robin use of path
records.
"""

from __future__ import annotations

import numpy as np

from repro.core.layers import DEFAULT_MAX_LAYERS
from repro.core.sssp import DEFAULT_KERNEL
from repro.deadlock.cycles import kahn_core
from repro.exceptions import RoutingError
from repro.network.fabric import Fabric
from repro.network.validate import check_routable
from repro.routing.base import RoutingTables
from repro.routing.paths import PathSet, extract_paths, offset_dtype


class ConcatenatedPaths:
    """Present several planes' PathSets as one path collection.

    Path ``plane * plane_size + pid`` is plane ``plane``'s path ``pid``:
    the planes' ``offsets`` / ``chans`` are concatenated in that order, so
    :class:`~repro.routing.paths.PathSet`'s storage methods — ``path``,
    the turn index and ``layer_edges`` — and hence the CDG engine work
    unchanged over the union. The union's offsets take
    :func:`~repro.routing.paths.offset_dtype` of its channel total, and
    each plane's base is added at that width.
    """

    def __init__(self, planes: list[PathSet]):
        if not planes:
            raise RoutingError("need at least one plane")
        self.planes = planes
        self.plane_size = planes[0].num_paths
        if any(p.num_paths != self.plane_size for p in planes):
            raise RoutingError("planes must have identical path counts")
        self.fabric = planes[0].fabric
        n = self.plane_size
        total = sum(len(p.chans) for p in planes)
        self.offsets = np.empty(len(planes) * n + 1, dtype=offset_dtype(total))
        base = 0
        for k, p in enumerate(planes):
            np.add(p.offsets[:-1], base, out=self.offsets[k * n : (k + 1) * n],
                   dtype=self.offsets.dtype)
            base += len(p.chans)
        self.offsets[-1] = total
        self.chans = np.concatenate([p.chans for p in planes])
        self._turns = None

    num_paths = PathSet.num_paths
    path = PathSet.path
    turn_index = PathSet.turn_index
    layer_edges = PathSet.layer_edges

    def active_mask(self) -> np.ndarray:
        """Traffic-carrying paths across all planes (same leaf mask)."""
        return np.tile(self.planes[0].active_mask(), len(self.planes))

    def active_pids(self) -> np.ndarray:
        return np.flatnonzero(self.active_mask())


class MultipathRouting:
    """Result of multipath DFSSSP: one forwarding plane per LID offset
    plus a virtual-lane assignment covering all planes."""

    def __init__(
        self,
        fabric: Fabric,
        planes: list[RoutingTables],
        path_sets: list[PathSet],
        path_layers: np.ndarray,
        num_layers: int,
        stats: dict,
    ):
        self.fabric = fabric
        self.planes = planes
        self.path_sets = path_sets
        self.path_layers = path_layers
        self.num_layers = num_layers
        self.stats = stats
        self._combined: ConcatenatedPaths | None = None

    @property
    def num_planes(self) -> int:
        return len(self.planes)

    def plane_for(self, src_terminal, dst_terminal):
        """Deterministic plane selection per flow (round-robin over the
        pair index, as MPI stacks spread connections over LIDs); takes
        terminal node ids or arrays of them."""
        fab = self.fabric
        s = fab.term_index[src_terminal]
        d = fab.term_index[dst_terminal]
        if np.any(s < 0) or np.any(d < 0):
            raise RoutingError("plane_for expects terminal node ids")
        return (s + d) % self.num_planes

    def combined_paths(self) -> ConcatenatedPaths:
        if self._combined is None:
            self._combined = ConcatenatedPaths(self.path_sets)
        return self._combined

    def verify_deadlock_free(self) -> bool:
        """Acyclicity of every layer's CDG over the union of planes
        (traffic-carrying paths only — flows start at terminals): one
        all-layer edge derivation, then one Kahn peel per layer."""
        combined = self.combined_paths()
        layers = np.where(combined.active_mask(), self.path_layers, -1)
        return all(
            (kahn_core(src, dst)[1] >= 0).all()
            for src, dst in combined.layer_edges(layers, self.num_layers)
        )


class MultipathDFSSSPEngine:
    """DFSSSP with LMC > 0: ``2**lmc`` balanced planes, jointly layered."""

    name = "dfsssp_lmc"

    def __init__(
        self,
        lmc: int = 1,
        max_layers: int = DEFAULT_MAX_LAYERS,
        heuristic: str = "weakest",
        balance: bool = True,
    ):
        if not (0 <= lmc <= 3):
            raise ValueError(f"lmc must be in [0, 3], got {lmc}")
        self.lmc = lmc
        self.num_planes = 1 << lmc
        self.max_layers = max_layers
        self.heuristic = heuristic
        self.balance = balance

    def route(self, fabric: Fabric) -> MultipathRouting:
        from repro.deadlock.incremental import assign_layers_incremental  # deadlock -> core
        from repro.parallel.reduction import column_routine  # parallel -> core.sssp

        check_routable(fabric)
        T = fabric.num_terminals
        K = self.num_planes
        weights = np.full(fabric.num_channels, (T * K) ** 2 + 1, dtype=np.int64)
        step, _ = column_routine(fabric, DEFAULT_KERNEL, self.name, np.repeat(fabric.terminals, K))
        plane_tables = [np.full((fabric.num_nodes, T), -1, dtype=np.int32) for _ in range(K)]
        # OpenSM routes LIDs in order: offset-major interleaving makes the
        # planes diverge destination by destination.
        for t_idx, dest in enumerate(fabric.terminals):
            for table in plane_tables:
                table[:, t_idx] = step(int(dest), weights)

        tables = [
            RoutingTables(fabric, nc, engine=f"{self.name}[{k}]")
            for k, nc in enumerate(plane_tables)
        ]
        combined = ConcatenatedPaths([extract_paths(t) for t in tables])
        assignment = assign_layers_incremental(
            combined,
            max_layers=self.max_layers,
            heuristic=self.heuristic,
            balance=self.balance,
            pids=combined.active_pids(),
        )
        routing = MultipathRouting(
            fabric=fabric,
            planes=tables,
            path_sets=combined.planes,
            path_layers=assignment.path_layers,
            num_layers=self.max_layers,
            stats={"engine": self.name, "lmc": self.lmc, "planes": K,
                   "layers_needed": assignment.layers_needed,
                   "cycles_broken": assignment.cycles_broken},
        )
        routing._combined = combined  # verify reuses the turn index Algorithm 2 built
        return routing
