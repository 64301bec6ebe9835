"""Packet-level discrete-event simulator (DES) with AI-collective workloads.

The static :mod:`repro.simulator.congestion` counter reproduces the
paper's figures but cannot show *dynamics*: queue build-up, flow
completion times, or what DFSSSP's extra virtual layers cost under
bursty AI-training traffic. This package adds the dynamic half:

* :mod:`repro.des.engine` — a deterministic discrete-event engine
  (an event calendar serving simultaneous events in the order they were
  scheduled; per-channel output FIFO queues with finite buffers; link
  serialization and propagation delays; credit-style backpressure),
  driving packets along any :class:`~repro.routing.base.RoutingTables`
  forwarding state. Mid-run fault injection is wired through
  :class:`repro.resilience.FaultInjector` + the engines' incremental
  ``reroute`` path, so a link can die mid-collective and traffic
  reroutes live.
* :mod:`repro.des.workloads` — AI-factory traffic models: ring/tree
  AllReduce steps, data-parallel all-to-all rounds, mixed
  tensor-parallel + pipeline-parallel jobs, mice-flow latency probes,
  and the uniform steady-state load the differential tests use.
* :mod:`repro.des.scenario` — JSON scenario schema, the per-engine
  sweep runner and the report (FCT percentiles, queue-occupancy stats,
  throughput), surfaced by the ``des`` CLI subcommand; plus the cycle-level
  ``run_pattern`` (Figure 2) and ``saturation_sweep`` behind ``deadlock`` / ``throughput``.

Validation story (see ``docs/des.md``): under uniform steady-state
traffic with infinite buffers the DES per-link packet counts must match
the static flow counts of :mod:`repro.simulator.congestion` exactly —
``tests/des/test_differential.py`` pins that, golden event traces pin
the event-level behaviour, and hypothesis properties pin determinism
and packet conservation.
"""

from repro.des.engine import (
    DesOutcome,
    FaultSpec,
    LinkParams,
    PacketDES,
    QueueStats,
)
from repro.des.scenario import (
    OpenLoopResult,
    ScenarioReport,
    build_scenario_fabric,
    cycle_link,
    normalize_scenario,
    run_pattern,
    run_scenario,
    saturation_point,
    saturation_sweep,
)
from repro.des.workloads import (
    WORKLOADS,
    AllToAllWorkload,
    BernoulliWorkload,
    CompositeWorkload,
    Flow,
    MiceProbeWorkload,
    PatternWorkload,
    RingAllReduceWorkload,
    TPPPWorkload,
    TreeAllReduceWorkload,
    UniformPairsWorkload,
    Workload,
    make_workload,
)

__all__ = [
    "AllToAllWorkload",
    "BernoulliWorkload",
    "CompositeWorkload",
    "DesOutcome",
    "FaultSpec",
    "Flow",
    "LinkParams",
    "MiceProbeWorkload",
    "OpenLoopResult",
    "PacketDES",
    "PatternWorkload",
    "QueueStats",
    "RingAllReduceWorkload",
    "ScenarioReport",
    "TPPPWorkload",
    "TreeAllReduceWorkload",
    "UniformPairsWorkload",
    "WORKLOADS",
    "Workload",
    "build_scenario_fabric",
    "cycle_link",
    "make_workload",
    "normalize_scenario",
    "run_pattern",
    "run_scenario",
    "saturation_point",
    "saturation_sweep",
]
