"""ORCS-equivalent congestion simulator (§V).

The Oblivious Routing Congestion Simulator estimates the *effective
bisection bandwidth* of a (topology, routing) pair: draw random bisection
perfect matchings, route every flow, count how many flows share each
channel, and credit each flow the bandwidth of its most congested channel
(``capacity / flows``). The eBB is the mean flow bandwidth over many
patterns — the statistic Netgauge measures on real hardware (Fig. 12).

The evaluation loop is fully vectorised: flows' channel sequences are
gathered once per forwarding plane, per-channel sharing comes from
``bincount`` and per-flow maxima from ``maximum.reduceat``. An LMC routing
(several planes) is counted by the same code,
:class:`MultipathCongestionSimulator`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import SimulationError
from repro.obs import get_registry, span
from repro.routing.base import RoutingTables
from repro.routing.paths import PathSet, extract_paths, gather_flows
from repro.simulator.patterns import Pattern, bisection_pattern, validate_pattern
from repro.utils.prng import spawn_rngs


@dataclass(frozen=True)
class PatternResult:
    """Congestion outcome of one pattern."""

    flow_bandwidth: np.ndarray  # relative bandwidth per flow, in (0, 1]
    channel_load: np.ndarray  # number of flows per channel
    max_congestion: float  # worst channel sharing (capacity-adjusted)

    @property
    def mean_bandwidth(self) -> float:
        return float(self.flow_bandwidth.mean()) if len(self.flow_bandwidth) else 0.0

    @property
    def min_bandwidth(self) -> float:
        return float(self.flow_bandwidth.min()) if len(self.flow_bandwidth) else 0.0


@dataclass(frozen=True)
class EbbResult:
    """Effective bisection bandwidth over many random patterns."""

    per_pattern_mean: np.ndarray
    num_flows: int
    num_patterns: int

    @property
    def ebb(self) -> float:
        """Mean relative effective bisection bandwidth in (0, 1]."""
        return float(self.per_pattern_mean.mean())

    @property
    def std(self) -> float:
        return float(self.per_pattern_mean.std())

    @property
    def minimum(self) -> float:
        return float(self.per_pattern_mean.min())

    @property
    def maximum(self) -> float:
        return float(self.per_pattern_mean.max())

    def scaled(self, link_bandwidth: float) -> float:
        """eBB in physical units (e.g. 946 MiB/s PCIe limit on Deimos)."""
        return self.ebb * link_bandwidth


class CongestionSimulator:
    """Evaluate patterns against one routing's forwarding tables."""

    def __init__(self, tables: RoutingTables, paths: PathSet | None = None):
        self.tables = tables
        self.fabric = tables.fabric
        self.paths = paths if paths is not None else extract_paths(tables)
        self._inv_capacity = 1.0 / self.fabric.channels.capacity
        reg = get_registry()
        self._m_patterns = reg.counter(
            "sim_patterns_evaluated", "traffic patterns congestion-counted"
        )
        self._m_flows = reg.counter("sim_flows_routed", "flows routed across all patterns")

    # ------------------------------------------------------------------
    def _subflows(self, src: np.ndarray, dst: np.ndarray):
        """``([(flows, flat, offsets), ...], weight)``: per forwarding
        plane, which flows use it and their channels there
        (:func:`~repro.routing.paths.gather_flows`), and the load one
        subflow puts on a channel."""
        return [(slice(None), *gather_flows(self.tables, self.paths, src, dst))], 1

    def evaluate(self, pattern: Pattern) -> PatternResult:
        """Congestion-count one pattern (every flow active simultaneously)."""
        validate_pattern(self.fabric, pattern)
        if not pattern:
            raise SimulationError("empty pattern")
        with span("sim.evaluate", engine=self.tables.engine, flows=len(pattern)):
            src, dst = np.asarray(pattern, dtype=np.int64).T
            parts, weight = self._subflows(src, dst)
            load = weight * sum(
                np.bincount(flat, minlength=self.fabric.num_channels) for _, flat, _ in parts
            )
            sharing = load * self._inv_capacity  # capacity-adjusted congestion
            # A flow runs at the pace of its most congested channel on any plane.
            per_flow_max = np.zeros(len(pattern))
            for flows, flat, offsets in parts:
                worst = np.maximum.reduceat(sharing[flat], offsets[:-1])
                per_flow_max[flows] = np.maximum(per_flow_max[flows], worst)
            flow_bw = 1.0 / per_flow_max
        self._m_patterns.inc()
        self._m_flows.inc(len(pattern))
        return PatternResult(
            flow_bandwidth=flow_bw,
            channel_load=load,
            max_congestion=float(sharing.max()),
        )

    # ------------------------------------------------------------------
    def effective_bisection_bandwidth(
        self,
        num_patterns: int = 100,
        seed=None,
        terminals=None,
        bidirectional: bool = False,
    ) -> EbbResult:
        """The §V/§VI estimator: mean flow bandwidth over random
        bisection matchings."""
        if num_patterns < 1:
            raise SimulationError("need at least one pattern")
        rngs = spawn_rngs(seed, num_patterns)
        means = np.empty(num_patterns)
        flows = 0
        with span("sim.ebb", engine=self.tables.engine, patterns=num_patterns):
            for i, rng in enumerate(rngs):
                pattern = bisection_pattern(
                    self.fabric, seed=rng, terminals=terminals, bidirectional=bidirectional
                )
                result = self.evaluate(pattern)
                means[i] = result.mean_bandwidth
                flows = len(pattern)
        return EbbResult(per_pattern_mean=means, num_flows=flows, num_patterns=num_patterns)


class MultipathCongestionSimulator(CongestionSimulator):
    """Congestion counting over the planes of an LMC routing
    (:class:`~repro.core.multipath.MultipathRouting`); only the plane
    choice differs from :class:`CongestionSimulator`.

    * ``"stripe"`` (default, MPI over LMC): every flow splits into K
      subflows of load 1/K, one per plane; the slowest one sets its pace.
    * ``"select"``: each flow takes the one plane
      :meth:`~repro.core.multipath.MultipathRouting.plane_for` picks
      (single-path connections spread over LIDs).
    """

    def __init__(self, routing, mode: str = "stripe"):
        if mode not in ("stripe", "select"):
            raise SimulationError(f"mode must be 'stripe' or 'select', got {mode!r}")
        super().__init__(routing.planes[0], routing.path_sets[0])
        self.routing = routing
        self.mode = mode

    def _subflows(self, src: np.ndarray, dst: np.ndarray):
        planes = list(zip(self.routing.planes, self.routing.path_sets))
        if self.mode == "stripe":
            parts = [(slice(None), *gather_flows(t, p, src, dst)) for t, p in planes]
            return parts, 1.0 / len(planes)
        plane = self.routing.plane_for(src, dst)
        parts = []
        for k, (tables, paths) in enumerate(planes):
            flows = np.flatnonzero(plane == k)
            if len(flows):
                parts.append((flows, *gather_flows(tables, paths, src[flows], dst[flows])))
        return parts, 1
