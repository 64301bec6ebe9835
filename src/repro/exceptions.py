"""Exception hierarchy for the DFSSSP reproduction library.

All library errors derive from :class:`ReproError` so callers can catch a
single base class. Routing engines raise :class:`UnsupportedTopologyError`
when a fabric does not satisfy their structural requirements (mirroring the
paper's Figure 4, where specialised engines simply "fail" on irregular
systems), and layer-assignment code raises
:class:`InsufficientLayersError` when the available virtual lanes cannot
break every cycle.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class FabricError(ReproError):
    """Structural problem in a fabric description (bad node ids, radix
    overflow, unpaired channels, ...)."""


class DisconnectedFabricError(FabricError):
    """The fabric is not strongly connected, so destination-based routing
    cannot produce complete forwarding tables."""


class RoutingError(ReproError):
    """A routing engine failed to produce complete forwarding tables."""


class ComputeTimeoutError(ReproError):
    """A cooperative compute budget expired mid-computation.

    Raised by :func:`repro.service.budget.check_budget` call sites inside
    the SSSP/DFSSSP inner loops when the active
    :class:`~repro.service.budget.Budget` runs out. The work in flight is
    abandoned; callers (the :class:`~repro.service.supervisor.RoutingSupervisor`)
    keep serving the last-known-good tables and escalate per policy.
    """

    def __init__(self, message: str, label: str = "compute", limit_s: float | None = None,
                 elapsed_s: float | None = None):
        super().__init__(message)
        self.label = label
        self.limit_s = limit_s
        self.elapsed_s = elapsed_s


class CheckpointError(ReproError):
    """A service checkpoint could not be written, read or applied —
    missing/corrupt files, format mismatch, or routing state that does not
    match the checkpointed fabric."""


class ServiceError(ReproError):
    """The supervised routing service cannot satisfy a request (e.g. a
    fault batch would disconnect the fabric, or the circuit breaker is
    open and no last-known-good routing exists)."""


class FleetError(ReproError):
    """The fleet manager cannot be configured or operated as requested —
    unknown fabric ids, invalid sharding, or per-worker engine options
    that cannot run inside a daemonized worker process."""


class UnsupportedTopologyError(RoutingError):
    """The selected routing engine does not support this topology.

    Raised e.g. by DOR on fabrics without coordinates, or by the fat-tree
    engine on non-tree fabrics. Benchmarks report these as the paper's
    "missing bar" entries.
    """


class InsufficientLayersError(RoutingError):
    """Cycle breaking exhausted the available virtual layers.

    Corresponds to Algorithm 2's terminal branch: *"if cycle found: no
    deadlock-free assignment possible"*.
    """

    def __init__(self, message: str, layers_available: int, layers_needed_at_least: int):
        super().__init__(message)
        self.layers_available = layers_available
        self.layers_needed_at_least = layers_needed_at_least


class RepairError(RoutingError):
    """Incremental repair cannot be applied to this (routing, degradation)
    pair — e.g. the degradation does not derive from the routed fabric, or
    the fabric gained channels (link-up requires a full reroute).

    Engines catch this and fall back to a full recompute, so callers of
    :meth:`repro.routing.base.RoutingEngine.reroute` normally never see it.
    """


class CertificateError(ReproError):
    """A deadlock-freedom certificate could not be produced or parsed.

    Raised by :func:`repro.deadlock.certificate.emit_certificate` when a
    layer's CDG is cyclic (there is no certificate for an unsafe routing;
    ``counterexample`` then carries a real witness cycle as a channel
    chain with first == last), and by the certificate loaders on
    malformed payloads. Note that *checking* a certificate never raises —
    the checker returns a rejection with a reason instead.
    """

    def __init__(self, message: str, layer: int | None = None, counterexample=None):
        super().__init__(message)
        self.layer = layer
        self.counterexample = list(counterexample) if counterexample is not None else None


class SimulationError(ReproError):
    """Invalid simulator configuration or a pattern referencing unknown
    endpoints."""


class UsageError(ReproError):
    """A context manager was driven out of order, e.g. a ``Timer`` or
    tracing ``span`` exited without having been entered."""
