"""Fail-in-place resilience: fault-event streams, incremental repair and
the chaos soak harness.

The paper motivates DFSSSP with fabrics that degrade in place — links
die, switches fail, and the subnet manager must keep routing
deadlock-free. This package turns the repo from "route once" into
"route, degrade, repair, verify — forever":

* :mod:`repro.resilience.events` — seeded :class:`FaultEvent` streams
  (link-down, switch-down, link-up) over one healthy baseline, with the
  map algebra that lets consecutive degraded fabrics compose, the one
  event fold (:func:`fold_events`) and the one follow-a-fault step
  (:func:`follow_fault`);
* :mod:`repro.resilience.repair` — incremental repair that re-routes
  only the destinations whose forwarding entries traverse dead channels
  and re-verifies per-layer CDG acyclicity, escalating paths to other
  layers (or to a full DFSSSP run) only when a cycle would re-appear;
* :mod:`repro.resilience.chaos` — the :class:`ChaosRunner` soak harness
  replaying fault sequences against any registered engine, with
  JSON-serialisable survival/repair reports, plus
  :func:`run_service_soak`, the same stream driving a supervised
  :class:`~repro.service.supervisor.RoutingSupervisor` (serve mode).

See ``docs/resilience.md`` for the fault model and escalation rules, and
``docs/service.md`` for the supervised (serve-mode) runtime.
"""

from repro.resilience.chaos import (
    ChaosEventRecord,
    ChaosReport,
    ChaosRunner,
    ServiceSoakReport,
    run_service_soak,
)
from repro.resilience.events import (
    LINK_DOWN,
    LINK_UP,
    SWITCH_DOWN,
    FaultEvent,
    FaultInjector,
    fold_events,
    follow_fault,
    random_fault_sequence,
    relative_degradation,
)
from repro.resilience.repair import repair_routing, translate_tables

__all__ = [
    "ChaosEventRecord",
    "ChaosReport",
    "ChaosRunner",
    "ServiceSoakReport",
    "run_service_soak",
    "LINK_DOWN",
    "LINK_UP",
    "SWITCH_DOWN",
    "FaultEvent",
    "FaultInjector",
    "fold_events",
    "follow_fault",
    "random_fault_sequence",
    "relative_degradation",
    "repair_routing",
    "translate_tables",
]
