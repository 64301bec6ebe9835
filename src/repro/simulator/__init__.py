"""Simulation substrate: traffic patterns, the ORCS-equivalent congestion
simulator and utilization metrics. Packet-level dynamics — the Figure 2
deadlock, saturation sweeps — live in :mod:`repro.des`."""

from repro.simulator.patterns import (
    Pattern,
    alltoall_rounds,
    bisection_pattern,
    hotspot_pattern,
    permutation_pattern,
    shift_pattern,
    stencil_pattern,
    validate_pattern,
)
from repro.simulator.congestion import (
    CongestionSimulator,
    EbbResult,
    MultipathCongestionSimulator,
    PatternResult,
)
from repro.simulator.orcs import OrcsResult, run_orcs
from repro.simulator.metrics import UtilizationStats, gini_coefficient, utilization_stats

__all__ = [
    "OrcsResult",
    "run_orcs",
    "Pattern",
    "alltoall_rounds",
    "bisection_pattern",
    "hotspot_pattern",
    "permutation_pattern",
    "shift_pattern",
    "stencil_pattern",
    "validate_pattern",
    "CongestionSimulator",
    "EbbResult",
    "MultipathCongestionSimulator",
    "PatternResult",
    "UtilizationStats",
    "gini_coefficient",
    "utilization_stats",
]
