"""Fleet chaos soak: concurrent request replay under worker SIGKILLs.

The acceptance bar for the fleet layer is operational, not functional:
*thousands of concurrent requests, random worker SIGKILLs and fabric
faults, and still zero unserved requests* — degraded answers are allowed
(each stamped stale), errors are not. :func:`run_fleet_soak` drives a
live :class:`~repro.fleet.manager.FleetManager` through exactly that and
returns a :class:`FleetSoakReport` whose :attr:`~FleetSoakReport.passed`
encodes the bar:

* every request served (``failed == 0``);
* at least the requested number of worker SIGKILLs actually landed;
* every respawned shard restored from checkpoint and re-verified via its
  deadlock-freedom certificate;
* after the storm, every fabric answers a *fresh* (non-degraded) query;
* the fleet SLO set (:data:`~repro.obs.slo.DEFAULT_FLEET_SLOS`) passes
  over the run's metrics window.

Determinism: the request schedule (op mix, fabric and tenant rotation)
is pre-generated from ``seed``; fault events come from per-fabric seeded
:class:`~repro.resilience.events.FaultInjector` streams. Wall-clock
interleaving under the thread pool and kill timing remain real —
that is the chaos being tested, and the report records what happened.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, field

from repro.fleet.manager import FleetManager
from repro.fleet.messages import OP_FAULT, OP_HEALTH, OP_QUERY
from repro.obs import get_registry
from repro.obs.recorder import record_event
from repro.obs.slo import evaluate_slos, slos_for
from repro.resilience.events import FaultInjector
from repro.utils.reporting import JsonReport


@dataclass
class FleetSoakReport(JsonReport):
    """Everything one fleet soak run learned."""

    fabrics: int
    workers: int
    requests: int
    kills_requested: int
    seed: int | None
    requests_sent: int = 0
    served_ok: int = 0
    served_degraded: int = 0
    failed: int = 0
    retries: int = 0
    stale_serves: int = 0
    faults_applied: int = 0
    faults_deferred: int = 0
    kills: list[dict] = field(default_factory=list)
    respawns: list[dict] = field(default_factory=list)
    respawned_shards_certified: bool = True
    recovered: bool = False
    recovery_seconds: float | None = None
    elapsed_seconds: float = 0.0
    latency: dict = field(default_factory=dict)
    by_op: dict = field(default_factory=dict)
    degraded_sources: dict = field(default_factory=dict)
    slo: dict = field(default_factory=dict)
    failure: str | None = None

    @property
    def passed(self) -> bool:
        return (
            self.failed == 0
            and self.failure is None
            and len(self.kills) >= self.kills_requested
            and len(self.respawns) >= self.kills_requested
            and self.respawned_shards_certified
            and self.recovered
            and bool(self.slo.get("healthy", False))
        )

    def summary(self) -> dict:
        return {
            "mode": "fleet",
            "passed": self.passed,
            "fabrics": self.fabrics,
            "workers": self.workers,
            "requests": self.requests,
            "requests_sent": self.requests_sent,
            "served_ok": self.served_ok,
            "served_degraded": self.served_degraded,
            "failed": self.failed,
            "retries": self.retries,
            "stale_serves": self.stale_serves,
            "faults_applied": self.faults_applied,
            "faults_deferred": self.faults_deferred,
            "kills_requested": self.kills_requested,
            "kills": len(self.kills),
            "respawns": len(self.respawns),
            "respawned_shards_certified": self.respawned_shards_certified,
            "recovered": self.recovered,
            "recovery_seconds": self.recovery_seconds,
            "elapsed_seconds": self.elapsed_seconds,
            "throughput_rps": (
                self.requests_sent / self.elapsed_seconds
                if self.elapsed_seconds > 0 else None
            ),
            "latency": self.latency,
            "by_op": self.by_op,
            "degraded_sources": self.degraded_sources,
            "seed": self.seed,
            "failure": self.failure,
        }

    def to_dict(self) -> dict:
        return {
            "summary": self.summary(),
            "kill_log": self.kills,
            "respawn_log": self.respawns,
            "slo": self.slo,
        }


def _percentiles(latencies: list[float]) -> dict:
    if not latencies:
        return {}
    data = sorted(latencies)

    def pct(q: float) -> float:
        idx = min(len(data) - 1, max(0, round(q * (len(data) - 1))))
        return data[idx]

    return {
        "p50_s": pct(0.50), "p95_s": pct(0.95), "p99_s": pct(0.99),
        "max_s": data[-1], "mean_s": sum(data) / len(data), "count": len(data),
    }


def run_fleet_soak(
    manager: FleetManager,
    *,
    requests: int = 1000,
    kills: int = 2,
    seed: int | None = 0,
    concurrency: int = 8,
    fault_ratio: float = 0.10,
    health_ratio: float = 0.05,
    tenants: int = 4,
    recovery_timeout_s: float = 120.0,
    on_progress=None,
) -> FleetSoakReport:
    """Replay a concurrent request storm with worker SIGKILLs mid-run.

    ``kills`` workers are SIGKILLed at evenly spaced completed-request
    thresholds (the first kill lands after roughly ``requests/(kills+1)``
    requests); victims rotate over whichever workers are alive. After the
    storm the soak waits until every worker is back and every fabric
    answers a fresh query, then judges the fleet SLOs over the run's
    metrics delta.
    """
    fabric_ids = sorted(manager.fabrics)
    rng = random.Random(seed)
    schedule = []
    for i in range(requests):
        r = rng.random()
        if r < fault_ratio:
            op = OP_FAULT
        elif r < fault_ratio + health_ratio:
            op = OP_HEALTH
        else:
            op = OP_QUERY
        schedule.append((
            op,
            fabric_ids[rng.randrange(len(fabric_ids))],
            f"tenant-{rng.randrange(tenants)}",
        ))

    injectors = {
        fid: FaultInjector(manager.fabrics[fid], seed=(seed or 0) + 1 + i)
        for i, fid in enumerate(fabric_ids)
    }
    injector_lock = threading.Lock()

    report = FleetSoakReport(
        fabrics=len(fabric_ids),
        workers=len(manager.alive_workers()),
        requests=requests,
        kills_requested=kills,
        seed=seed,
    )
    baseline_respawns = len(manager.respawns)
    kill_thresholds = [requests * (k + 1) // (kills + 1) for k in range(kills)]
    kill_state = {"done": 0, "next_victim": 0, "completed": 0}
    kill_lock = threading.Lock()
    latencies: list[float] = []
    results_lock = threading.Lock()

    reg = get_registry()
    before = reg.snapshot()
    record_event("fleet_soak_start", requests=requests, kills=kills,
                 fabrics=len(fabric_ids), seed=seed)
    t_start = time.perf_counter()

    def maybe_kill() -> None:
        with kill_lock:
            kill_state["completed"] += 1
            if kill_state["done"] >= kills:
                return
            if kill_state["completed"] < kill_thresholds[kill_state["done"]]:
                return
            alive = manager.alive_workers()
            if not alive:
                return  # all mid-respawn; the next completion retries
            victim = alive[kill_state["next_victim"] % len(alive)]
            kill_state["next_victim"] += 1
            pid = manager.kill_worker(victim)
            if pid is None:
                return
            kill_state["done"] += 1
            report.kills.append({
                "after_requests": kill_state["completed"],
                "worker": victim,
                "pid": pid,
            })

    def one(item):
        op, fabric_id, tenant = item
        payload = {}
        if op == OP_FAULT:
            with injector_lock:
                stepped = injectors[fabric_id].step()
            if stepped is None:
                op = OP_QUERY  # fabric fully degraded; keep the slot busy
            else:
                payload = {"event": stepped[0].to_dict()}
        resp = manager.request(op, fabric_id, tenant=tenant, payload=payload)
        with results_lock:
            report.requests_sent += 1
            latencies.append(resp.latency_s)
            report.retries += max(0, resp.attempts - 1)
            report.by_op[op] = report.by_op.get(op, 0) + 1
            if not resp.ok:
                report.failed += 1
            elif resp.degraded:
                report.served_degraded += 1
                report.degraded_sources[resp.source] = (
                    report.degraded_sources.get(resp.source, 0) + 1
                )
            else:
                report.served_ok += 1
            if resp.stale:
                report.stale_serves += 1
            if op == OP_FAULT and resp.ok:
                if resp.payload.get("deferred"):
                    report.faults_deferred += 1
                else:
                    report.faults_applied += 1
        maybe_kill()
        if on_progress is not None:
            on_progress(report.requests_sent, resp)

    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=concurrency, thread_name_prefix="fleet-soak") as pool:
        list(pool.map(one, schedule))

    # ------------------------------------------------------------------
    # recovery: every worker back, every fabric serving fresh answers
    # ------------------------------------------------------------------
    t_recover = time.perf_counter()
    deadline = t_recover + recovery_timeout_s
    pending = set(fabric_ids)
    while pending and time.perf_counter() < deadline:
        for fabric_id in sorted(pending):
            resp = manager.request(OP_QUERY, fabric_id)
            if resp.ok and not resp.degraded:
                pending.discard(fabric_id)
        if pending:
            time.sleep(0.2)
    report.recovered = not pending
    if report.recovered:
        report.recovery_seconds = time.perf_counter() - t_recover
    else:
        report.failure = f"fabrics never recovered: {sorted(pending)}"
    report.elapsed_seconds = time.perf_counter() - t_start

    report.respawns = [dict(r) for r in manager.respawns[baseline_respawns:]]
    # Vacuously true with no respawns; `passed` separately requires that
    # at least `kills` respawns actually happened.
    report.respawned_shards_certified = all(
        shard.get("restored") and shard.get("verify_method") == "certificate"
        for respawn in report.respawns
        for shard in respawn["shards"].values()
    )

    report.latency = _percentiles(latencies)
    window = reg.snapshot_delta(before, reg.snapshot())
    report.slo = evaluate_slos(slos_for("fleet"), window).to_dict()
    record_event("fleet_soak_end", passed=report.passed, failed=report.failed,
                 kills=len(report.kills), respawns=len(report.respawns))
    return report
