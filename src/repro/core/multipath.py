"""LMC multipathing — multiple balanced paths per destination.

InfiniBand's LID Mask Control gives every channel adapter ``2**lmc``
consecutive LIDs; the subnet manager routes each LID independently, so a
source can spread its connections over up to ``2**lmc`` distinct paths.
OpenSM's (DF)SSSP implementation — the paper's production code — treats
every LID as a separate destination of the balancing loop, which is
exactly what we reproduce:

* one Dijkstra per (terminal, lid-offset) pair against the *shared*
  cumulative edge weights, so the per-offset trees diverge and the
  "planes" complement each other;
* a single virtual-lane assignment over the union of all planes' paths
  (deadlock-freedom must hold across planes: a packet on plane 1 shares
  physical buffers with plane 0's packets of the same VL).

The congestion simulator picks a plane per flow deterministically
(``(src_idx + dst_idx) mod K``), modelling MPI's usual round-robin use of
path records.
"""

from __future__ import annotations

import numpy as np

from repro.core.layers import DEFAULT_MAX_LAYERS, assign_layers_offline
from repro.core.sssp import dijkstra_to_dest, update_weights_for_dest
from repro.deadlock.cycles import kahn_core
from repro.exceptions import RoutingError, SimulationError
from repro.network.fabric import Fabric
from repro.network.validate import check_routable
from repro.routing.base import RoutingTables
from repro.routing.paths import PathSet, extract_paths
# The module, not the class: repro.simulator.congestion imports
# repro.routing, which imports this package, so a first import of
# repro.simulator reaches this line with congestion half-initialized.
from repro.simulator import congestion
from repro.simulator.patterns import Pattern, bisection_pattern, validate_pattern
from repro.utils.prng import spawn_rngs


class ConcatenatedPaths:
    """Present several planes' PathSets as one path collection.

    Path ids are ``plane * plane_size + pid`` so the layer-assignment
    machinery (which only needs ``num_paths`` and ``path(pid)``) works
    unchanged over the union.
    """

    def __init__(self, planes: list[PathSet]):
        if not planes:
            raise RoutingError("need at least one plane")
        self.planes = planes
        self.plane_size = planes[0].num_paths
        if any(p.num_paths != self.plane_size for p in planes):
            raise RoutingError("planes must have identical path counts")
        self.fabric = planes[0].fabric

    @property
    def num_paths(self) -> int:
        return self.plane_size * len(self.planes)

    def path(self, pid: int) -> np.ndarray:
        plane, inner = divmod(pid, self.plane_size)
        return self.planes[plane].path(inner)

    def active_pids(self) -> np.ndarray:
        """Traffic-carrying paths across all planes (same leaf mask)."""
        base = self.planes[0].active_pids()
        return np.concatenate(
            [base + k * self.plane_size for k in range(len(self.planes))]
        )


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

    @property
    def num_planes(self) -> int:
        return len(self.planes)

    def plane_for(self, src_terminal: int, dst_terminal: int) -> int:
        """Deterministic plane selection per flow (round-robin over the
        pair index, as MPI stacks spread connections over LIDs)."""
        fab = self.fabric
        s = int(fab.term_index[src_terminal])
        d = int(fab.term_index[dst_terminal])
        if s < 0 or d < 0:
            raise RoutingError("plane_for expects terminal node ids")
        return (s + d) % self.num_planes

    def combined_paths(self) -> ConcatenatedPaths:
        return ConcatenatedPaths(self.path_sets)

    def verify_deadlock_free(self) -> bool:
        """Acyclicity of every layer's CDG over the union of planes
        (traffic-carrying paths only — flows start at terminals): one
        all-layer edge derivation per plane, then one Kahn peel per layer
        of the edges taken from every plane."""
        active = self.path_sets[0].active_mask()  # the same in every plane
        size = self.path_sets[0].num_paths
        planes = [
            paths.layer_edges(
                np.where(active, self.path_layers[k * size : (k + 1) * size], -1),
                self.num_layers,
            )
            for k, paths in enumerate(self.path_sets)
        ]
        for layer in range(self.num_layers):
            src, dst = zip(*(plane[layer] for plane in planes))
            if (kahn_core(np.concatenate(src), np.concatenate(dst))[1] < 0).any():
                return False
        return True


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
        check_routable(fabric)
        T = fabric.num_terminals
        K = self.num_planes
        w0 = (T * K) ** 2 + 1
        weights = np.full(fabric.num_channels, w0, dtype=np.int64)
        plane_tables = [
            np.full((fabric.num_nodes, T), -1, dtype=np.int32) for _ in range(K)
        ]
        is_term = fabric.kinds == 1

        # OpenSM routes LIDs in order: offset-major interleaving makes the
        # planes diverge destination by destination.
        for t_idx in range(T):
            dest = int(fabric.terminals[t_idx])
            for plane in range(K):
                dist, parent = dijkstra_to_dest(fabric, dest, weights)
                plane_tables[plane][:, t_idx] = parent
                update_weights_for_dest(fabric, dest, dist, parent, weights, is_term)

        tables = [
            RoutingTables(fabric, plane_tables[k], engine=f"{self.name}[{k}]")
            for k in range(K)
        ]
        path_sets = [extract_paths(t) for t in tables]
        combined = ConcatenatedPaths(path_sets)
        assignment = assign_layers_offline(
            combined,
            max_layers=self.max_layers,
            heuristic=self.heuristic,
            balance=self.balance,
            pids=combined.active_pids(),
        )
        return MultipathRouting(
            fabric=fabric,
            planes=tables,
            path_sets=path_sets,
            path_layers=assignment.path_layers,
            num_layers=self.max_layers,
            stats={
                "engine": self.name,
                "lmc": self.lmc,
                "planes": K,
                "layers_needed": assignment.layers_needed,
                "cycles_broken": assignment.cycles_broken,
            },
        )


class MultipathCongestionSimulator:
    """ORCS-style congestion counting over multiple planes.

    ``mode`` selects how a flow uses the planes:

    * ``"stripe"`` (default, the MPI-over-LMC behaviour): every flow
      splits into K subflows of weight 1/K, one per plane. The effective
      flow bandwidth is ``1 / max weighted congestion`` over the union of
      its subflow channels (subflows finish independently; the slowest
      one determines completion).
    * ``"select"``: each flow takes exactly one plane, round-robin over
      the pair index (single-path connections spread over LIDs).
    """

    def __init__(self, routing: MultipathRouting, mode: str = "stripe"):
        if mode not in ("stripe", "select"):
            raise SimulationError(f"mode must be 'stripe' or 'select', got {mode!r}")
        self.routing = routing
        self.mode = mode
        self.fabric = routing.fabric
        self._inv_capacity = 1.0 / self.fabric.channels.capacity

    def _plane_flow(self, plane: int, src: int, dst: int) -> np.ndarray:
        fab = self.fabric
        tables = self.routing.planes[plane]
        paths = self.routing.path_sets[plane]
        t_idx = int(fab.term_index[dst])
        inject = int(tables.next_channel[src, t_idx])
        if inject < 0:
            raise SimulationError(f"no route from {src} to {dst}")
        first = int(fab.channels.dst[inject])
        rest = paths.path(t_idx * fab.num_switches + int(fab.switch_index[first]))
        out = np.empty(len(rest) + 1, dtype=np.int64)
        out[0] = inject
        out[1:] = rest
        return out

    def _flow(self, src: int, dst: int) -> np.ndarray:
        """All channels a flow occupies (one plane or the union)."""
        if self.mode == "select":
            return self._plane_flow(self.routing.plane_for(src, dst), src, dst)
        parts = [
            self._plane_flow(k, src, dst) for k in range(self.routing.num_planes)
        ]
        return np.concatenate(parts)

    def evaluate(self, pattern: Pattern):
        validate_pattern(self.fabric, pattern)
        if not pattern:
            raise SimulationError("empty pattern")
        flows = [self._flow(s, d) for s, d in pattern]
        lengths = np.array([len(f) for f in flows], dtype=np.int64)
        offsets = np.zeros(len(flows) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        flat = np.concatenate(flows)
        weight = 1.0 / self.routing.num_planes if self.mode == "stripe" else 1.0
        load = np.bincount(flat, minlength=self.fabric.num_channels) * weight
        sharing = load * self._inv_capacity
        per_flow_max = np.maximum.reduceat(sharing[flat], offsets[:-1])
        return 1.0 / per_flow_max

    def effective_bisection_bandwidth(
        self, num_patterns: int = 100, seed=None
    ) -> congestion.EbbResult:
        rngs = spawn_rngs(seed, num_patterns)
        means = np.empty(num_patterns)
        flows = 0
        for i, rng in enumerate(rngs):
            pattern = bisection_pattern(self.fabric, seed=rng)
            bw = self.evaluate(pattern)
            means[i] = float(bw.mean())
            flows = len(pattern)
        return congestion.EbbResult(
            per_pattern_mean=means, num_flows=flows, num_patterns=num_patterns
        )
