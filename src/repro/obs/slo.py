"""Declarative SLOs evaluated from recorded metrics.

The paper's operational pitch — DFSSSP inside a subnet manager — only
holds if the service can be *judged* mechanically: is p99 reroute
latency under the deadline, are repairs succeeding, how stale is what we
serve? This module turns those questions into data:

* :class:`SLO` — one declarative objective. ``kind="quantile"`` bounds a
  histogram quantile (``metric``, ``q``, ``threshold``); ``kind="ratio"``
  bounds an error budget (``bad_metric / total_metric <= max_ratio``,
  counters summed across label sets).
* :func:`evaluate_slos` — evaluate a list of SLOs against a metrics dump
  in the ``--metrics`` / :meth:`MetricsRegistry.snapshot` JSON shape.
  Works offline (the ``health`` CLI reads a dump from disk) and online
  (the soaks evaluate the live registry).
* :class:`SLOEngine` — sliding-window evaluation for long-running
  services: each :meth:`~SLOEngine.tick` snapshots the registry, diffs
  against the oldest retained snapshot (:meth:`MetricsRegistry.snapshot_delta`),
  evaluates the SLOs over that window, publishes
  ``slo_compliance_ratio`` / ``slo_burn_rate{slo=...}`` gauges, and
  records an ``slo_violation`` flight-recorder event per newly violated
  objective.

An SLO with too little data is *skipped* (``compliant is None``), never
violated — a service that has not yet served a request is not failing
its latency target. ``burn_rate`` is how much of the objective is being
consumed: ``observed / threshold`` (1.0 = exactly at target, above =
burning); ``None`` when the threshold is zero and nothing sensible can
be reported.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.obs.metrics import get_registry, quantile_from_entry
from repro.utils.reporting import JsonReport

QUANTILE = "quantile"
RATIO = "ratio"

KINDS = (QUANTILE, RATIO)


@dataclass(frozen=True)
class SLO:
    """One declarative service-level objective (JSON round-trippable)."""

    name: str
    kind: str
    description: str = ""
    #: quantile kind: histogram metric name, quantile, max allowed value
    metric: str | None = None
    q: float = 0.99
    threshold: float | None = None
    #: ratio kind: bad/total counter names, max allowed bad/total
    bad_metric: str | None = None
    total_metric: str | None = None
    max_ratio: float | None = None
    #: below this many samples the SLO is skipped, not judged
    min_samples: int = 1

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"SLO kind must be one of {KINDS}, got {self.kind!r}")
        if self.kind == QUANTILE:
            if not self.metric or self.threshold is None:
                raise ValueError(f"quantile SLO {self.name!r} needs metric + threshold")
            if not 0.0 <= self.q <= 1.0:
                raise ValueError(f"SLO {self.name!r}: q must be in [0, 1], got {self.q}")
        else:
            if not self.bad_metric or not self.total_metric or self.max_ratio is None:
                raise ValueError(
                    f"ratio SLO {self.name!r} needs bad_metric + total_metric + max_ratio"
                )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SLO":
        return cls(**data)


@dataclass
class SLOResult:
    """One SLO judged against one metrics window."""

    name: str
    kind: str
    description: str
    objective: str
    value: float | None
    threshold: float
    samples: int
    compliant: bool | None  # None = skipped (insufficient data)
    burn_rate: float | None

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class HealthReport(JsonReport):
    """All SLO results for one window, plus the overall verdict."""

    results: list[SLOResult] = field(default_factory=list)

    @property
    def evaluated(self) -> list[SLOResult]:
        return [r for r in self.results if r.compliant is not None]

    @property
    def violations(self) -> list[SLOResult]:
        return [r for r in self.results if r.compliant is False]

    @property
    def healthy(self) -> bool:
        """No evaluated SLO violated (skipped SLOs do not count)."""
        return not self.violations

    @property
    def compliance_ratio(self) -> float:
        """Fraction of *evaluated* SLOs met (1.0 when none evaluated)."""
        evaluated = self.evaluated
        if not evaluated:
            return 1.0
        met = sum(1 for r in evaluated if r.compliant)
        return met / len(evaluated)

    def to_dict(self) -> dict:
        return {
            "healthy": self.healthy,
            "compliance_ratio": self.compliance_ratio,
            "evaluated": len(self.evaluated),
            "violated": len(self.violations),
            "slos": [r.to_dict() for r in self.results],
        }


# ----------------------------------------------------------------------
# evaluation over a metrics dump
# ----------------------------------------------------------------------
def _entries(dump: dict, name: str) -> list[dict]:
    return [e for e in dump.get("metrics", []) if e.get("name") == name]


def _sum_counters(dump: dict, name: str) -> tuple[float, bool]:
    """Sum a counter across its label sets; ``found`` False when absent."""
    entries = [e for e in _entries(dump, name) if e.get("type") != "histogram"]
    return sum(e.get("value", 0) for e in entries), bool(entries)


def _merge_histograms(dump: dict, name: str) -> dict | None:
    """Merge same-name histogram entries across label sets into one."""
    entries = [e for e in _entries(dump, name) if e.get("type") == "histogram"]
    if not entries:
        return None
    if len(entries) == 1:
        return entries[0]
    merged = {
        "name": name, "type": "histogram", "labels": {},
        "count": 0, "sum": 0.0, "buckets": {},
        "min": float("inf"), "max": float("-inf"),
    }
    for e in entries:
        merged["count"] += e.get("count", 0)
        merged["sum"] += e.get("sum", 0.0)
        if e.get("count", 0):
            merged["min"] = min(merged["min"], e.get("min", float("inf")))
            merged["max"] = max(merged["max"], e.get("max", float("-inf")))
        for le, acc in e.get("buckets", {}).items():
            merged["buckets"][le] = merged["buckets"].get(le, 0) + acc
    if not merged["count"]:
        merged["min"] = merged["max"] = 0.0
    merged["mean"] = merged["sum"] / merged["count"] if merged["count"] else 0.0
    return merged


def _burn(value: float, threshold: float) -> float | None:
    if threshold > 0:
        return value / threshold
    return 0.0 if value <= 0 else None  # at a zero budget, any burn is total


def evaluate_slo(slo: SLO, dump: dict) -> SLOResult:
    """Judge one SLO against one metrics dump/window."""
    if slo.kind == QUANTILE:
        entry = _merge_histograms(dump, slo.metric)
        samples = entry.get("count", 0) if entry is not None else 0
        objective = f"p{slo.q * 100:g}({slo.metric}) <= {slo.threshold:g}"
        if samples < slo.min_samples:
            return SLOResult(slo.name, slo.kind, slo.description, objective,
                             None, slo.threshold, samples, None, None)
        value = quantile_from_entry(entry, slo.q)
        return SLOResult(
            slo.name, slo.kind, slo.description, objective,
            value, slo.threshold, samples,
            value <= slo.threshold, _burn(value, slo.threshold),
        )
    bad, _ = _sum_counters(dump, slo.bad_metric)
    total, found = _sum_counters(dump, slo.total_metric)
    objective = f"{slo.bad_metric}/{slo.total_metric} <= {slo.max_ratio:g}"
    samples = int(total)
    if not found or samples < slo.min_samples:
        return SLOResult(slo.name, slo.kind, slo.description, objective,
                         None, slo.max_ratio, samples, None, None)
    value = bad / total if total else 0.0
    return SLOResult(
        slo.name, slo.kind, slo.description, objective,
        value, slo.max_ratio, samples,
        value <= slo.max_ratio, _burn(value, slo.max_ratio),
    )


def evaluate_slos(slos: list[SLO], dump: dict) -> HealthReport:
    """Judge every SLO against one metrics dump; see :class:`HealthReport`."""
    return HealthReport(results=[evaluate_slo(s, dump) for s in slos])


def load_slos(path) -> list[SLO]:
    """Read SLO definitions from a JSON file (a list of SLO dicts)."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, list):
        raise ValueError(f"{path}: SLO file must be a JSON list of objects")
    return [SLO.from_dict(d) for d in data]


# ----------------------------------------------------------------------
# default objectives
# ----------------------------------------------------------------------
#: Service-mode defaults — deadlines match ServicePolicy's defaults.
DEFAULT_SERVICE_SLOS: tuple[SLO, ...] = (
    SLO(
        name="route_latency_p99", kind=QUANTILE,
        description="p99 repair-batch latency stays under the full-reroute deadline",
        metric="service_batch_seconds", q=0.99, threshold=30.0,
    ),
    SLO(
        name="repair_failure_budget", kind=RATIO,
        description="at most 10% of repair batches may exhaust the ladder",
        bad_metric="service_batch_failures", total_metric="service_batches",
        max_ratio=0.10,
    ),
    SLO(
        name="staleness_budget", kind=RATIO,
        description="at most half of served routings may be stale",
        bad_metric="service_stale_serves_total", total_metric="service_serves_total",
        max_ratio=0.50,
    ),
    SLO(
        name="timeout_budget", kind=RATIO,
        description="at most half of ladder attempts may hit their compute deadline",
        bad_metric="service_timeouts", total_metric="service_attempts",
        max_ratio=0.50,
    ),
)

#: Chaos-mode defaults — the soak verifies correctness itself; these
#: judge latency and survival.
DEFAULT_CHAOS_SLOS: tuple[SLO, ...] = (
    SLO(
        name="repair_latency_p99", kind=QUANTILE,
        description="p99 incremental-repair latency",
        metric="repair_seconds", q=0.99, threshold=5.0,
    ),
    SLO(
        name="engine_survival", kind=RATIO,
        description="no chaos event may kill the engine",
        bad_metric="chaos_engine_deaths", total_metric="chaos_events_applied",
        max_ratio=0.0,
    ),
)


#: Fleet-mode defaults — the front door may degrade, never drop.
DEFAULT_FLEET_SLOS: tuple[SLO, ...] = (
    SLO(
        name="fleet_latency_p99", kind=QUANTILE,
        description="p99 front-end request latency",
        metric="fleet_request_seconds", q=0.99, threshold=5.0,
    ),
    SLO(
        name="unserved_budget", kind=RATIO,
        description="no request may go unserved (degraded answers are serves)",
        bad_metric="fleet_requests_failed_total",
        total_metric="fleet_requests_total",
        max_ratio=0.0,
    ),
    SLO(
        name="degraded_budget", kind=RATIO,
        description="at most half of requests may be served degraded",
        bad_metric="fleet_degraded_total", total_metric="fleet_requests_total",
        max_ratio=0.50,
    ),
)


def slos_for(mode: str) -> list[SLO]:
    """Default SLO set by mode name (``service`` | ``chaos`` | ``fleet``)."""
    if mode == "service":
        return list(DEFAULT_SERVICE_SLOS)
    if mode == "chaos":
        return list(DEFAULT_CHAOS_SLOS)
    if mode == "fleet":
        return list(DEFAULT_FLEET_SLOS)
    raise ValueError(
        f"unknown SLO mode {mode!r} (expected 'service', 'chaos' or 'fleet')"
    )


# ----------------------------------------------------------------------
# sliding-window engine
# ----------------------------------------------------------------------
class SLOEngine:
    """Sliding-window SLO evaluation over the live registry.

    Each :meth:`tick` appends a registry snapshot to a bounded window of
    the last ``window`` ticks, evaluates the SLOs over the delta between
    the window's oldest snapshot and now, publishes the
    ``slo_compliance_ratio`` gauge and a ``slo_burn_rate{slo=...}``
    gauge per objective, and records one ``slo_violation`` flight event
    per objective that is violated this tick but was not on the previous
    tick (edge-triggered, so a persistently bad SLO does not flood the
    ring buffer).
    """

    def __init__(self, slos: list[SLO] | None = None, *, registry=None, window: int = 8):
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.slos = list(slos) if slos is not None else list(DEFAULT_SERVICE_SLOS)
        self._registry = registry
        self.window = window
        self._snapshots: list[dict] = []
        self._violated: set[str] = set()
        self.ticks = 0

    @property
    def registry(self):
        return self._registry if self._registry is not None else get_registry()

    def tick(self) -> HealthReport:
        from repro.obs.recorder import record_event

        reg = self.registry
        now = reg.snapshot()
        self._snapshots.append(now)
        if len(self._snapshots) > self.window:
            self._snapshots.pop(0)
        # Window = oldest retained snapshot → now. On the first tick the
        # oldest *is* now, which would make every delta zero — judge the
        # whole run instead.
        oldest = self._snapshots[0]
        dump = now if oldest is now else reg.snapshot_delta(oldest, now)
        report = evaluate_slos(self.slos, dump)
        self.ticks += 1

        reg.gauge(
            "slo_compliance_ratio", "fraction of evaluated SLOs currently met"
        ).set(report.compliance_ratio)
        for result in report.results:
            if result.burn_rate is not None:
                reg.gauge(
                    "slo_burn_rate", "observed value / threshold per SLO",
                    slo=result.name,
                ).set(result.burn_rate)
        violated_now = {r.name for r in report.violations}
        for result in report.violations:
            if result.name not in self._violated:
                record_event(
                    "slo_violation", slo=result.name, value=result.value,
                    threshold=result.threshold, burn_rate=result.burn_rate,
                )
        self._violated = violated_now
        return report
