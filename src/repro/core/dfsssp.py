"""DFSSSP — deadlock-free single-source-shortest-path routing (§IV).

The engine chains the paper's two algorithms:

1. :class:`~repro.core.sssp.SSSPEngine` produces globally balanced,
   hop-minimal forwarding tables (Algorithm 1);
2. :func:`~repro.core.layers.assign_layers_offline` breaks every channel
   dependency cycle by relocating paths to higher virtual layers
   (Algorithm 2), using the *weakest-edge* heuristic by default.

The result keeps SSSP's paths byte-for-byte — virtual layers only choose
buffers, never routes — so DFSSSP inherits SSSP's bandwidth while adding
deadlock-freedom. That is the paper's central claim and our tests verify
both halves (identical tables; acyclic per-layer CDGs).
"""

from __future__ import annotations

from repro.core.heuristics import get_heuristic
from repro.core.layers import DEFAULT_MAX_LAYERS, assign_layers_offline
from repro.core.sssp import DEFAULT_KERNEL, SSSPEngine
from repro.network.fabric import Fabric
from repro.obs import COUNT_BUCKETS, get_registry, span
from repro.routing.base import LayeredRouting, RoutingEngine, RoutingResult
from repro.routing.paths import extract_paths
from repro.service.budget import check_budget


class DFSSSPEngine(RoutingEngine):
    """Deadlock-free SSSP routing.

    Parameters
    ----------
    max_layers:
        Available virtual lanes (8 on the paper's hardware, 16 per spec).
    heuristic:
        Cycle-edge choice: ``"weakest"`` (default, best), ``"strongest"``
        or ``"first"`` — see :mod:`repro.core.heuristics`.
    cdg:
        Cycle-breaking engine for Algorithm 2: ``"incremental"``
        (default — the vectorized CSR engine of
        :mod:`repro.deadlock.incremental`) or ``"rebuild"`` (the
        dict-backed reference). Both produce bit-identical layer
        assignments; the benchmark suite gates the incremental engine at
        ≥3× the rebuild's speed.
    balance:
        Spread paths over unused layers after cycle breaking (Algorithm
        2's final step).
    workers / kernel:
        Forwarded to :class:`SSSPEngine`. ``workers`` (``>= 0``) is
        accepted and ignored — every route is serial — until ROADMAP item
        1-B re-pins ``benchmarks/e2e`` without it and removes it.
        ``kernel="python"`` runs the heap-Dijkstra reference instead of
        the default production step; it is bit-identical (the layer
        assignment consumes identical tables, so the layered result is
        identical too).
    """

    name = "dfsssp"
    supports_incremental_reroute = True
    repair_needs_layers = True

    def __init__(
        self,
        max_layers: int = DEFAULT_MAX_LAYERS,
        heuristic: str = "weakest",
        cdg: str = "incremental",
        balance: bool = True,
        workers: int = 0,
        kernel: str = DEFAULT_KERNEL,
    ):
        if max_layers < 1:
            raise ValueError(f"max_layers must be >= 1, got {max_layers}")
        get_heuristic(heuristic)  # ValueError naming the available ones
        if cdg not in ("incremental", "rebuild"):
            raise ValueError(f"cdg must be 'incremental' or 'rebuild', got {cdg!r}")
        self.max_layers = max_layers
        self.heuristic = heuristic
        self.cdg = cdg
        self.balance = balance
        self._sssp = SSSPEngine(workers=workers, kernel=kernel)

    @property
    def kernel(self) -> str:
        """The SSSP phase's kernel; incremental repair re-routes with it too."""
        return self._sssp.kernel

    def _route(self, fabric: Fabric) -> RoutingResult:
        with span("dfsssp.sssp", engine=self.name) as sp_sssp:
            tables, total_weight, weights = self._sssp._run(fabric)
            tables.engine = self.name  # routes are SSSP's, the engine is ours
        t_sssp = sp_sssp.duration

        with span("dfsssp.layers", heuristic=self.heuristic) as sp_layers:
            check_budget()  # phase boundary: SSSP done, layering not started
            paths = extract_paths(tables)
            # OpenSM's DFSSSP layers CA-to-CA paths: only paths whose source
            # switch hosts terminals ever carry traffic, and layering the
            # spine-originated suffixes separately would inflate lane counts.
            active = paths.active_pids()
            if self.cdg == "incremental":
                # Imported here: repro.deadlock.incremental depends on
                # this package for LayerAssignment.
                from repro.deadlock.incremental import assign_layers_incremental

                assign = assign_layers_incremental
            else:
                assign = assign_layers_offline
            assignment = assign(
                paths,
                max_layers=self.max_layers,
                heuristic=self.heuristic,
                balance=self.balance,
                pids=active,
            )
        t_layers = sp_layers.duration

        layered = LayeredRouting(tables, assignment.path_layers, self.max_layers)

        reg = get_registry()
        reg.gauge(
            "dfsssp_layers_needed", "virtual layers holding paths before balancing"
        ).set(assignment.layers_needed)
        reg.gauge("dfsssp_layers_used", "virtual layers holding paths after balancing").set(
            layered.layers_used
        )
        occupancy = reg.histogram(
            "dfsssp_layer_occupancy", "paths per (non-empty) virtual layer",
            buckets=COUNT_BUCKETS,
        )
        for n in layered.layer_histogram():
            if n:
                occupancy.observe(int(n))
        return RoutingResult(
            tables=tables,
            layered=layered,
            deadlock_free=True,
            channel_weights=weights,
            stats={
                "engine": self.name,
                "cdg": self.cdg,
                "heuristic": self.heuristic,
                "layers_needed": assignment.layers_needed,
                "layers_used": layered.layers_used,
                "cycles_broken": assignment.cycles_broken,
                "paths_moved": assignment.paths_moved,
                "total_balancing_weight": total_weight,
                "time_sssp_s": t_sssp,
                "time_layers_s": t_layers,
            },
        )
