"""Fleet-scale serving: many fabrics, fault-isolated workers, one door.

``repro.fleet`` turns the single-fabric
:class:`~repro.service.supervisor.RoutingSupervisor` into a
multi-fabric, multi-process service (ROADMAP item 2):

* :class:`~repro.fleet.manager.FleetManager` — shards fabrics across
  worker processes, fronts them with deadlines, retries, admission
  budgets, per-fabric circuit breakers and graceful degradation, and
  respawns crashed workers from rolling checkpoints (certificate-
  verified before serving).
* :class:`~repro.fleet.manager.FleetConfig` — the settings a caller chooses.
* :class:`~repro.fleet.admission.AdmissionController` — bounded
  in-flight budgets per tenant / fabric / fleet.
* :func:`~repro.fleet.soak.run_fleet_soak` — the chaos soak behind the
  ``fleet-soak`` CLI: concurrent request storms + worker SIGKILLs, with
  a pass/fail report.
* :mod:`~repro.fleet.messages` — the picklable pipe protocol.
"""

from repro.fleet.admission import AdmissionController
from repro.fleet.manager import FleetConfig, FleetManager
from repro.fleet.messages import (
    OP_FAULT,
    OP_HEALTH,
    OP_QUERY,
    FleetRequest,
    FleetResponse,
    ShardSpec,
    WorkerReady,
)
from repro.fleet.soak import FleetSoakReport, run_fleet_soak

__all__ = [
    "AdmissionController",
    "FleetConfig",
    "FleetManager",
    "FleetRequest",
    "FleetResponse",
    "FleetSoakReport",
    "OP_FAULT",
    "OP_HEALTH",
    "OP_QUERY",
    "ShardSpec",
    "WorkerReady",
    "run_fleet_soak",
]
