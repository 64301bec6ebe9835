"""Chaos soak harness: replay fault sequences against a routing engine.

``route once`` becomes ``route, degrade, repair, verify — forever``: the
:class:`ChaosRunner` drives any registered engine through a seeded
:class:`~repro.resilience.events.FaultInjector` stream, repairs after
every event (incrementally where the engine supports it, via
:meth:`~repro.routing.base.RoutingEngine.reroute`), and *independently*
verifies after every event that

* every surviving terminal pair still routes (path extraction is the
  completeness check), and
* every virtual layer's CDG is still acyclic (deadlock-freedom).

The per-event records and the summary are JSON-serialisable so CI can
publish a soak report as a build artifact.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field

from repro.deadlock.certificate import check_servable
from repro.exceptions import ReproError
from repro.network.fabric import Fabric
from repro.obs import get_registry, span
from repro.resilience.events import LINK_UP, FaultInjector, relative_degradation
from repro.routing.base import RoutingEngine, RoutingResult
from repro.utils.reporting import JsonReport


@dataclass
class ChaosEventRecord:
    """Outcome of one fault event (JSON-friendly)."""

    index: int
    kind: str
    detail: str
    action: str  # "repair" | "full" | "dead"
    seconds: float
    switches: int
    cables: int
    deadlock_free: bool | None = None
    layers_used: int | None = None
    destinations_repaired: int | None = None
    destinations_total: int | None = None
    escalations: int | None = None
    error: str | None = None


@dataclass
class ChaosReport(JsonReport):
    """Everything a soak run learned, plus aggregate statistics."""

    engine: str
    fabric: str
    seed: int | None
    events_requested: int
    records: list[ChaosEventRecord] = field(default_factory=list)
    survived: bool = True
    failure: str | None = None

    def summary(self) -> dict:
        by_kind: dict[str, int] = {}
        repairs = fulls = escalations = 0
        repaired = examined = 0
        repair_s = full_s = 0.0
        for r in self.records:
            by_kind[r.kind] = by_kind.get(r.kind, 0) + 1
            if r.action == "repair":
                repairs += 1
                repair_s += r.seconds
                repaired += r.destinations_repaired or 0
                examined += r.destinations_total or 0
                escalations += r.escalations or 0
            elif r.action == "full":
                fulls += 1
                full_s += r.seconds
        return {
            "engine": self.engine,
            "fabric": self.fabric,
            "seed": self.seed,
            "events_requested": self.events_requested,
            "events_applied": len(self.records),
            "survived": self.survived,
            "failure": self.failure,
            "events_by_kind": by_kind,
            "incremental_repairs": repairs,
            "full_reroutes": fulls,
            "escalations": escalations,
            "destinations_repaired": repaired,
            "destinations_examined": examined,
            "repair_fraction_mean": (repaired / examined) if examined else None,
            "mean_repair_seconds": (repair_s / repairs) if repairs else None,
            "mean_full_reroute_seconds": (full_s / fulls) if fulls else None,
        }

    def to_dict(self) -> dict:
        return {"summary": self.summary(), "events": [asdict(r) for r in self.records]}


class ChaosRunner:
    """Replay seeded fault sequences against one routing engine.

    Parameters
    ----------
    engine:
        A :class:`~repro.routing.base.RoutingEngine` instance. Engines
        without incremental repair (everything except SSSP/DFSSSP) do a
        full reroute per event; engines that reject degraded fabrics
        (DOR, fat-tree) die on their first structural failure, which the
        report records instead of raising.
    verify:
        Independently re-verify reachability and per-layer acyclicity
        after every event (default; the whole point of the harness).
    """

    def __init__(self, engine: RoutingEngine, verify: bool = True):
        self.engine = engine
        self.verify = verify

    def run(
        self,
        fabric: Fabric,
        num_events: int = 50,
        seed: int | None = None,
        p_switch_down: float = 0.15,
        p_link_up: float = 0.2,
        switch_links_only: bool = True,
    ) -> ChaosReport:
        reg = get_registry()
        m_events = reg.counter("chaos_events_applied", "fault events applied during chaos soaks")
        m_deaths = reg.counter(
            "chaos_engine_deaths", "chaos soaks ended by an engine failure",
            engine=self.engine.name,
        )
        report = ChaosReport(
            engine=self.engine.name,
            fabric=repr(fabric),
            seed=seed,
            events_requested=num_events,
        )
        injector = FaultInjector(
            fabric,
            seed=seed,
            p_switch_down=p_switch_down,
            p_link_up=p_link_up,
            switch_links_only=switch_links_only,
        )
        with span("chaos.run", engine=self.engine.name, events=num_events):
            try:
                result = self.engine.route(fabric)
            except ReproError as err:
                report.survived = False
                report.failure = f"initial route failed: {type(err).__name__}: {err}"
                m_deaths.inc()
                return report
            self._verify(result, report, record=None)
            if not report.survived:
                m_deaths.inc()
                return report

            prev_state = injector.current
            for index in range(num_events):
                stepped = injector.step()
                if stepped is None:
                    break  # nothing left to fail or repair
                event, cur_state = stepped
                rel = relative_degradation(prev_state, cur_state)
                record = ChaosEventRecord(
                    index=index,
                    kind=event.kind,
                    detail=event.describe(fabric),
                    action="full",
                    seconds=0.0,
                    switches=cur_state.fabric.num_switches,
                    cables=cur_state.fabric.num_channels // 2,
                )
                t0 = time.perf_counter()
                try:
                    if event.kind == LINK_UP:
                        # Link-up means new channels: rebuild from scratch.
                        result = self.engine.route(cur_state.fabric)
                    else:
                        result = self.engine.reroute(result, rel)
                except ReproError as err:
                    record.seconds = time.perf_counter() - t0
                    record.action = "dead"
                    record.error = f"{type(err).__name__}: {err}"
                    report.records.append(record)
                    report.survived = False
                    report.failure = f"event {index} ({record.detail}): {record.error}"
                    m_deaths.inc()
                    break
                record.seconds = time.perf_counter() - t0
                repair = result.stats.get("repair")
                if repair is not None:
                    record.action = "repair"
                    record.destinations_repaired = repair["destinations_repaired"]
                    record.destinations_total = repair["destinations_total"]
                    record.escalations = repair["escalations"]
                self._verify(result, report, record)
                report.records.append(record)
                m_events.inc()
                if not report.survived:
                    m_deaths.inc()
                    break
                prev_state = cur_state
        return report

    # ------------------------------------------------------------------
    def _verify(self, result: RoutingResult, report: ChaosReport, record) -> None:
        if not self.verify:
            return
        verdict = check_servable(result.tables, result.layered, result.certificate)
        if record is not None and verdict.deadlock_free is not None:
            record.deadlock_free = verdict.deadlock_free
            record.layers_used = result.layered.layers_used
        if verdict.problem is not None:
            report.survived = False
            report.failure = (
                verdict.problem if verdict.paths is not None
                else f"unreachable pair: {verdict.problem}"
            )
            if record is not None:
                record.error = report.failure


# ----------------------------------------------------------------------
# Service-mode soak: the chaos stream driving a RoutingSupervisor
# ----------------------------------------------------------------------
@dataclass
class ServiceSoakReport(JsonReport):
    """Outcome of a supervised (service-mode) soak run.

    ``records`` holds one dict per processed batch: the supervisor's
    :class:`~repro.service.supervisor.BatchOutcome` plus the independent
    verification of what :meth:`~repro.service.supervisor.RoutingSupervisor.serving`
    returned *after* the batch. ``survived`` means a valid (fresh or
    explicitly stale) routing was served after every event — the
    acceptance bar for service mode.
    """

    engine: str
    fabric: str
    seed: int | None
    events_requested: int
    events_submitted: int = 0
    skipped_events: int = 0
    records: list[dict] = field(default_factory=list)
    survived: bool = True
    failure: str | None = None
    final_state: str | None = None
    final_version: int | None = None

    def summary(self) -> dict:
        by_action: dict[str, int] = {}
        timeouts = attempts = stale_served = 0
        for r in self.records:
            by_action[r["action"]] = by_action.get(r["action"], 0) + 1
            timeouts += r.get("timeouts", 0)
            attempts += r.get("attempts", 0)
            if r.get("served_stale"):
                stale_served += 1
        return {
            "mode": "service",
            "engine": self.engine,
            "fabric": self.fabric,
            "seed": self.seed,
            "events_requested": self.events_requested,
            "events_submitted": self.events_submitted,
            "skipped_events": self.skipped_events,
            "batches": len(self.records),
            "batches_by_action": by_action,
            "ladder_attempts": attempts,
            "compute_timeouts": timeouts,
            "stale_serves": stale_served,
            "survived": self.survived,
            "failure": self.failure,
            "final_state": self.final_state,
            "final_version": self.final_version,
        }

    def to_dict(self) -> dict:
        return {"summary": self.summary(), "batches": self.records}


def run_service_soak(
    supervisor,
    num_events: int,
    *,
    seed: int | None = None,
    p_switch_down: float = 0.15,
    p_link_up: float = 0.2,
    switch_links_only: bool = True,
    burst_max: int = 1,
    inject_timeout_at: set[int] | frozenset[int] = frozenset(),
    kill_after: int | None = None,
    kill_fn=None,
    on_batch=None,
) -> ServiceSoakReport:
    """Drive a :class:`~repro.service.supervisor.RoutingSupervisor` through
    a seeded fault stream, verifying what it *serves* after every batch.

    The injector replays deterministically from ``seed`` over the
    supervisor's healthy baseline, so a restored supervisor resumes the
    same stream: events already consumed before the crash (the
    supervisor's ``events_submitted``) are fast-forwarded past, not
    re-applied.

    Parameters
    ----------
    burst_max:
        Submit up to this many events before each :meth:`process` call
        (exercises coalescing; bursts sized by the stream's own RNG).
    inject_timeout_at:
        Event indices at which the incremental-repair deadline is forced
        to zero — the repair rung times out and the ladder escalates.
    kill_after / kill_fn:
        Once at least ``kill_after`` events have been submitted (and
        checkpointed), call ``kill_fn`` — the serve CLI passes a hard
        ``os._exit`` to simulate SIGKILL mid-soak.
    on_batch:
        Called with each batch's record dict right after serving was
        verified — the serve CLI hooks its SLO-engine tick and live
        ``--top`` redraw here.
    """
    baseline = supervisor.baseline
    injector = FaultInjector(
        baseline,
        seed=seed,
        p_switch_down=p_switch_down,
        p_link_up=p_link_up,
        switch_links_only=switch_links_only,
    )
    skip = supervisor.events_submitted
    for _ in range(skip):
        if injector.step() is None:  # pragma: no cover - stream exhausted early
            break
    report = ServiceSoakReport(
        engine=supervisor.engine.name,
        fabric=repr(baseline),
        seed=seed,
        events_requested=num_events,
        events_submitted=skip,
        skipped_events=skip,
    )
    supervisor.extra["soak"] = {
        "seed": seed,
        "num_events": num_events,
        "p_switch_down": p_switch_down,
        "p_link_up": p_link_up,
        "switch_links_only": switch_links_only,
        "burst_max": burst_max,
    }

    def verify_serving(record: dict | None) -> bool:
        served = supervisor.serving()
        result = served.result
        verdict = check_servable(result.tables, result.layered, result.certificate)
        if verdict.problem is not None:
            report.survived = False
            report.failure = (
                f"served {verdict.problem}" if verdict.paths is not None
                else f"served unroutable tables: {verdict.problem}"
            )
            return False
        if record is not None:
            record["served_stale"] = served.stale
            record["served_version"] = served.version
            record["served_state"] = served.state
            record["served_deadlock_free"] = verdict.deadlock_free
        return True

    with span("chaos.service_soak", engine=supervisor.engine.name, events=num_events):
        if not verify_serving(None):  # pragma: no cover - ctor verifies already
            return _finalise(report, supervisor)
        while report.events_submitted < num_events:
            room = num_events - report.events_submitted
            # Burst size derives from the event index, not an RNG draw, so
            # a restored run replays the exact submit/process cadence.
            burst = 1 if burst_max <= 1 else 1 + report.events_submitted % burst_max
            events = []
            for _ in range(min(burst, room)):
                stepped = injector.step()
                if stepped is None:
                    break
                events.append(stepped[0])
            if not events:
                break  # fully degraded; nothing left to fail or repair
            first_index = report.events_submitted
            for event in events:
                supervisor.submit(event)
            report.events_submitted += len(events)

            injected = any(
                first_index + i in inject_timeout_at for i in range(len(events))
            )
            saved_policy = supervisor.policy
            if injected:
                supervisor.policy = saved_policy.with_(repair_deadline_s=0.0)
            try:
                outcome = supervisor.process()
            finally:
                supervisor.policy = saved_policy
            record = outcome.to_dict() if outcome is not None else {"action": "none"}
            record["events_range"] = [first_index, report.events_submitted - 1]
            record["injected_timeout"] = injected
            ok = verify_serving(record)
            report.records.append(record)
            if on_batch is not None:
                on_batch(record)
            if not ok:
                break
            if (
                kill_after is not None
                and kill_fn is not None
                and report.events_submitted >= kill_after
            ):
                kill_fn()  # usually never returns (os._exit)
                break  # pragma: no cover - test doubles return
    return _finalise(report, supervisor)


def _finalise(report: ServiceSoakReport, supervisor) -> ServiceSoakReport:
    served = supervisor.serving()
    report.final_state = served.state
    report.final_version = served.version
    return report
