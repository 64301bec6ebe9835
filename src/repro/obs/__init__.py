"""Observability: metrics, tracing and profiling hooks.

One coherent layer across the routing/deadlock/simulator stack:

* :mod:`repro.obs.metrics` — Counter/Gauge/Histogram in a named
  registry, exported as Prometheus text or JSON;
* :mod:`repro.obs.tracing` — nestable ``span()`` phases with pluggable
  sinks (null by default, JSONL for ``--trace``, in-memory for tests);
* :mod:`repro.obs.profiling` — raw per-event hooks
  (``on_iteration`` / ``on_cycle_broken`` / ``on_layer_closed``);
* :mod:`repro.obs.telemetry` — request-scoped correlation
  (``request_scope``);
* :mod:`repro.obs.recorder` — the flight recorder (bounded ring of
  structured events, atomic post-mortem dumps);
* :mod:`repro.obs.slo` — declarative SLOs judged from recorded metrics
  (``health`` CLI, soak health reports, sliding-window ``SLOEngine``);
* :mod:`repro.obs.export` — trace-tree rendering and the ``serve --top``
  live view.

See ``docs/observability.md`` for the metric names, span taxonomy and
flight-recorder event catalogue.
"""

from repro.obs.metrics import (
    COUNT_BUCKETS,
    DURATION_BUCKETS,
    RATIO_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    quantile_from_buckets,
    quantile_from_entry,
    set_registry,
)
from repro.obs.profiling import ProfilingHooks, get_hooks
from repro.obs.recorder import (
    FlightRecorder,
    get_recorder,
    install_signal_dump,
    record_event,
    set_recorder,
    use_recorder,
)
from repro.obs.slo import (
    DEFAULT_CHAOS_SLOS,
    DEFAULT_FLEET_SLOS,
    DEFAULT_SERVICE_SLOS,
    SLO,
    HealthReport,
    SLOEngine,
    evaluate_slos,
)
from repro.obs.telemetry import new_request_id, request_scope
from repro.obs.tracing import (
    InMemorySink,
    JsonlSink,
    NullSink,
    Span,
    current_request_id,
    current_span,
    get_sink,
    set_sink,
    span,
    use_sink,
)

__all__ = [
    "COUNT_BUCKETS",
    "DURATION_BUCKETS",
    "RATIO_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "quantile_from_buckets",
    "quantile_from_entry",
    "ProfilingHooks",
    "get_hooks",
    "FlightRecorder",
    "get_recorder",
    "set_recorder",
    "use_recorder",
    "record_event",
    "install_signal_dump",
    "SLO",
    "SLOEngine",
    "HealthReport",
    "DEFAULT_SERVICE_SLOS",
    "DEFAULT_CHAOS_SLOS",
    "DEFAULT_FLEET_SLOS",
    "evaluate_slos",
    "new_request_id",
    "request_scope",
    "current_request_id",
    "InMemorySink",
    "JsonlSink",
    "NullSink",
    "Span",
    "current_span",
    "get_sink",
    "set_sink",
    "span",
    "use_sink",
]
