"""Supervised routing service: the policy layer over fault streams.

The paper's DFSSSP ran inside OpenSM — a long-running subnet manager
that must keep handing out *valid* forwarding tables while the fabric
changes underneath it. :class:`RoutingSupervisor` reproduces that
operational contract on top of the PR-2 mechanisms (fault events,
incremental repair, chaos streams):

* **Queue + coalescing.** Fault events are :meth:`submit`-ted into a
  queue; :meth:`process` drains the whole backlog into *one* repair
  batch, so a burst of failures costs one recompute, not one per event.
* **Deadlines.** Every recompute runs under a cooperative
  :class:`~repro.service.budget.Budget`; the SSSP/DFSSSP/repair inner
  loops poll it and abandon work with
  :class:`~repro.exceptions.ComputeTimeoutError` when it expires.
* **Escalation ladder.** incremental repair → full reroute → safe
  fallback engine (Up*/Down* by default), each rung retried with
  exponential backoff + jitter. A rung's result is *independently
  verified* (reachability + per-layer acyclicity) before it is accepted —
  the supervisor never serves an unroutable or cyclic table.
* **Last-known-good serving.** While repairing — and after a failed
  batch — :meth:`serving` keeps returning the previous good routing,
  explicitly marked ``stale``. A :class:`~repro.service.policy.CircuitBreaker`
  trips to ``FAILED`` after N consecutive batch failures and re-probes
  after a cooldown.
* **Checkpoint/restore.** Atomic checkpoints (baseline fabric + tables +
  balancing weights + supervisor state) are written through a
  :class:`~repro.service.checkpoint.CheckpointStore`; a killed process
  :meth:`restore`-s and resumes mid-soak with identical state.

State machine::

              submit+process            all rungs fail
    HEALTHY ----------------> REPAIRING ----------------> DEGRADED (stale LKG)
       ^                        |    |                       |
       |   verified repair/full |    | fallback engine ok    | breaker trips
       +------------------------+    +--> DEGRADED (fresh) --+--> FAILED
                                                             cooldown -> re-probe
"""

from __future__ import annotations

import inspect
import secrets
import time
from collections import deque
from dataclasses import asdict, dataclass, field

from repro.deadlock.certificate import check_servable
from repro.exceptions import (
    CheckpointError,
    ComputeTimeoutError,
    ReproError,
    RoutingError,
    ServiceError,
)
from repro.network.fabric import Fabric
from repro.network.faults import DegradedFabric, identity_degradation
from repro.obs import DURATION_BUCKETS, get_registry, span
from repro.obs.recorder import get_recorder, record_event
from repro.obs.telemetry import request_scope
from repro.resilience.events import (
    LINK_UP,
    FaultEvent,
    fold_events,
    relative_degradation,
    reroute_action,
)
from repro.routing.base import RoutingEngine, RoutingResult
from repro.routing.registry import engines, make_engine
from repro.service.budget import compute_budget
from repro.service.checkpoint import Checkpoint, CheckpointStore
from repro.service.policy import CircuitBreaker, ServicePolicy
from repro.utils.prng import make_rng

#: supervisor states
HEALTHY = "healthy"
REPAIRING = "repairing"
DEGRADED = "degraded"
FAILED = "failed"

STATES = (HEALTHY, REPAIRING, DEGRADED, FAILED)

_STATE_CODES = {state: i for i, state in enumerate(STATES)}


@dataclass(frozen=True)
class ServedRouting:
    """What a routing query gets: always *some* valid tables.

    ``stale`` is True when the tables were computed for an older fabric
    than the physically current one (failed or still-pending repairs);
    consumers decide whether stale-but-deadlock-free beats nothing.
    """

    result: RoutingResult
    stale: bool
    version: int
    state: str
    pending_events: int

    @property
    def fabric(self) -> Fabric:
        return self.result.tables.fabric


@dataclass
class BatchOutcome:
    """JSON-friendly record of one coalesced repair batch."""

    batch: int
    request_id: str | None = None
    events: list[dict] = field(default_factory=list)
    coalesced: int = 0
    action: str = "none"  # "repair" | "full" | "fallback" | "rejected" | "failed"
    ok: bool = False
    attempts: int = 0
    timeouts: int = 0
    seconds: float = 0.0
    state: str = HEALTHY
    version: int = 0
    stale: bool = False
    switches: int | None = None
    cables: int | None = None
    errors: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


class RoutingSupervisor:
    """Long-running routing service over one fabric's fault stream.

    Parameters
    ----------
    fabric:
        The healthy baseline. The initial route runs (and is verified)
        during construction, so a constructed supervisor always serves.
    engine:
        Primary engine — a name or a :class:`RoutingEngine` instance.
    policy:
        :class:`ServicePolicy` knobs (deadlines, backoff, breaker,
        fallback, checkpoint cadence).
    checkpoint_dir:
        Enables checkpointing; ``restore`` resumes from it.
    clock / sleep:
        Monotonic clock for breaker cooldowns and a sleep for backoff —
        injectable so tests run instantly and deterministically. Compute
        deadlines always use :func:`time.perf_counter` internally.
    seed:
        Jitter RNG seed (backoff determinism in tests).
    engine_opts:
        Keyword options forwarded to :func:`make_engine` when ``engine``
        is a name (e.g. ``{"kernel": "python"}`` for the heap-Dijkstra
        reference; ``{"workers": 2}`` is accepted and changes nothing,
        see :class:`~repro.core.sssp.SSSPEngine`); the defaults are the
        production configuration.
        Persisted in checkpoints and re-applied on :meth:`restore`, so a
        restored service keeps its configuration. Ignored when ``engine``
        is already an instance.
    """

    def __init__(
        self,
        fabric: Fabric | None = None,
        engine: str | RoutingEngine = "dfsssp",
        policy: ServicePolicy | None = None,
        checkpoint_dir=None,
        *,
        clock=time.monotonic,
        sleep=time.sleep,
        seed=0,
        engine_opts: dict | None = None,
        _restored: Checkpoint | None = None,
    ):
        self.policy = policy or ServicePolicy()
        self.engine_opts = {} if isinstance(engine, RoutingEngine) else dict(engine_opts or {})
        self.engine = (
            engine if isinstance(engine, RoutingEngine) else make_engine(engine, **self.engine_opts)
        )
        self.clock = clock
        self.sleep = sleep
        self.rng = make_rng(seed)
        self.breaker = CircuitBreaker(
            self.policy.breaker_threshold, self.policy.breaker_cooldown_s, clock=clock
        )
        self._store = (
            CheckpointStore(checkpoint_dir, keep=self.policy.keep_checkpoints)
            if checkpoint_dir is not None
            else None
        )
        self._queue: deque[FaultEvent] = deque()
        self._uncommitted: list[FaultEvent] = []
        self.extra: dict = {}
        self.events_submitted = 0
        self.batches = 0
        # Request-id namespace: ids are svc-<service_id>-<seq>. Both parts
        # are checkpointed, so a restored service keeps issuing unique ids
        # in the same namespace (no id is ever reused across a crash).
        self.service_id = secrets.token_hex(4)
        self.request_seq = 0

        if _restored is not None:
            self._adopt(_restored)
            self._count_restore()
            return

        if fabric is None:
            raise ServiceError("a fabric is required unless restoring from a checkpoint")
        self.baseline = fabric
        self._committed = identity_degradation(fabric)
        self._committed_cables: set[tuple[int, int]] = set()
        self._committed_switches: set[int] = set()
        self._stale = False
        self.version = 0
        self._ckpt_seq = 1
        self._successes_since_checkpoint = 0
        with request_scope(
            self._next_request_id(), name="service.initial_route", engine=self.engine.name
        ):
            with compute_budget(self.policy.full_deadline_s, label="initial_route"):
                result = self.engine.route(fabric)
            self._verify(result)
        self._lkg = result
        self.version = 1
        self._set_state(HEALTHY)
        if self._store is not None:
            self.checkpoint()

    # ------------------------------------------------------------------
    # restore
    # ------------------------------------------------------------------
    @classmethod
    def restore(
        cls,
        checkpoint_dir,
        *,
        policy: ServicePolicy | None = None,
        clock=time.monotonic,
        sleep=time.sleep,
        seed=0,
    ) -> "RoutingSupervisor":
        """Resume from the newest checkpoint under ``checkpoint_dir``.

        The persisted policy is used unless an explicit ``policy``
        overrides it; breaker state, dead sets, queued events, counters
        and the ``extra`` dict all come back exactly as checkpointed.
        """
        store = CheckpointStore(checkpoint_dir)
        with span("service.restore", path=str(checkpoint_dir)):
            ckpt = store.load()
            restored_policy = policy or ServicePolicy.from_dict(ckpt.state["policy"])
            engine = str(ckpt.state["engine"])
            engine_opts = dict(ckpt.state.get("engine_opts", {}))
            # The options were written by whatever version took the
            # checkpoint; one this version no longer has must fail as a
            # checkpoint fault, not from inside the engine constructor.
            where = ckpt.path / "state.json"
            try:
                make_engine(engine, **engine_opts)
            except TypeError as err:
                accepted = sorted(inspect.signature(engines()[engine]).parameters)
                unknown = sorted(set(engine_opts) - set(accepted))
                raise CheckpointError(
                    f"{where}: engine_opts {unknown} not accepted by engine "
                    f"{engine!r} (accepted options: {accepted})"
                ) from err
            except ValueError as err:
                raise CheckpointError(f"{where}: engine_opts {engine_opts}: {err}") from err
            sup = cls(
                engine=engine,
                policy=restored_policy,
                checkpoint_dir=checkpoint_dir,
                clock=clock,
                sleep=sleep,
                seed=seed,
                engine_opts=engine_opts,
                _restored=ckpt,
            )
        return sup

    def _adopt(self, ckpt: Checkpoint) -> None:
        state = ckpt.state
        self.baseline = ckpt.baseline
        self._committed = ckpt.degraded
        self._committed_cables = {tuple(int(c) for c in k) for k in state["dead_cables"]}
        self._committed_switches = {int(s) for s in state["dead_switches"]}
        self._lkg = ckpt.result
        self._uncommitted = [FaultEvent.from_dict(e) for e in state.get("uncommitted", [])]
        self._stale = bool(state.get("stale", False))
        self.version = int(state.get("lkg_version", 1))
        self._ckpt_seq = ckpt.version + 1
        self._successes_since_checkpoint = 0
        self.events_submitted = int(state.get("events_submitted", 0))
        self.batches = int(state.get("batches", 0))
        self.breaker = CircuitBreaker.from_dict(state["breaker"], clock=self.clock)
        if self.consecutive_failures:
            self._publish_failures()
        self.extra = dict(state.get("extra", {}))
        # Pre-telemetry checkpoints lack the id namespace; fresh one then.
        self.service_id = str(state.get("service_id") or self.service_id)
        self.request_seq = int(state.get("request_seq", 0))
        self._set_state(state.get("state", HEALTHY))
        record_event(
            "restore", engine=self.engine.name, version=self.version,
            state=self._state, pending=len(self._uncommitted),
            certified=self._lkg.certificate is not None,
        )
        # A restored routing is re-verified before it is ever served —
        # via its checkpointed certificate (O(V+E)) when one is present,
        # via a witness pass otherwise. The scope id lives outside
        # the numbered namespace: restores must not shift request_seq,
        # which is checkpointed so pre-crash ids are never reused.
        with request_scope(
            f"svc-{self.service_id}-restore-{ckpt.version:06d}",
            name="service.restore_verify", engine=self.engine.name,
        ):
            self._verify(self._lkg)

    def _count_restore(self) -> None:
        get_registry().counter(
            "service_restores", "supervisor restores from checkpoint",
            engine=self.engine.name,
        ).inc()

    # ------------------------------------------------------------------
    # serving / queue
    # ------------------------------------------------------------------
    @property
    def state(self) -> str:
        return self._state

    @property
    def consecutive_failures(self) -> int:
        """Batch failures since the last accepted routing: the breaker's count."""
        return self.breaker.failures

    def _publish_failures(self) -> None:
        """Set the ``service_consecutive_failures`` gauge; called whenever
        the count moves (a failure, the success that clears it, a restore
        that carries it)."""
        get_registry().gauge(
            "service_consecutive_failures", "current consecutive batch failures",
            engine=self.engine.name,
        ).set(self.consecutive_failures)

    def _next_request_id(self) -> str:
        self.request_seq += 1
        return f"svc-{self.service_id}-{self.request_seq:06d}"

    def _set_state(self, state: str) -> None:
        if state not in STATES:
            raise ServiceError(f"unknown supervisor state {state!r}")
        prev = getattr(self, "_state", None)
        if prev != state:
            record_event("state_transition", engine=self.engine.name,
                         from_state=prev, to_state=state)
        self._state = state
        get_registry().gauge(
            "service_state",
            "supervisor state (0=healthy 1=repairing 2=degraded 3=failed)",
            engine=self.engine.name,
        ).set(_STATE_CODES[state])

    def serving(self) -> ServedRouting:
        """The routing a query gets *right now* — never unroutable/cyclic."""
        reg = get_registry()
        reg.counter(
            "service_serves_total", "routing queries answered",
            engine=self.engine.name,
        ).inc()
        if self._stale:
            reg.counter(
                "service_stale_serves_total", "routing queries answered with stale tables",
                engine=self.engine.name,
            ).inc()
        return ServedRouting(
            result=self._lkg,
            stale=self._stale,
            version=self.version,
            state=self._state,
            pending_events=len(self._queue) + len(self._uncommitted),
        )

    def submit(self, event: FaultEvent) -> None:
        """Queue one fault event (serving is marked stale until repaired)."""
        self._queue.append(event)
        self.events_submitted += 1
        self._stale = True
        record_event("fault_submitted", engine=self.engine.name, fault=event.kind,
                     cable=list(event.cable) if event.cable is not None else None,
                     switch=event.switch, queued=len(self._queue))
        get_registry().counter(
            "service_events_submitted", "fault events queued at the supervisor",
            engine=self.engine.name,
        ).inc()

    # ------------------------------------------------------------------
    # repair batches
    # ------------------------------------------------------------------
    def process(self) -> BatchOutcome | None:
        """Coalesce the backlog into one repair batch and run the ladder.

        Returns ``None`` when there is nothing to do. Never raises for
        repair failures — the outcome records them and serving degrades to
        the stale last-known-good tables.
        """
        batch = self._uncommitted + list(self._queue)
        if not batch:
            return None
        self._queue.clear()
        self._uncommitted = []
        self.batches += 1
        outcome = BatchOutcome(
            batch=self.batches,
            request_id=self._next_request_id(),
            events=[e.to_dict() for e in batch],
            coalesced=len(batch),
            version=self.version,
        )
        reg = get_registry()
        m_batches = reg.counter(
            "service_batches", "repair batches processed", engine=self.engine.name
        )
        h_seconds = reg.histogram(
            "service_batch_seconds", "wall time per repair batch", buckets=DURATION_BUCKETS
        )

        if not self.breaker.allow():
            self._uncommitted = batch
            outcome.action = "rejected"
            outcome.state = self._state
            outcome.stale = self._stale
            outcome.errors.append(
                f"circuit breaker open ({self.breaker.failures} consecutive failures); "
                f"serving stale last-known-good"
            )
            record_event("batch_rejected", engine=self.engine.name,
                         request_id=outcome.request_id,
                         breaker_failures=self.breaker.failures)
            m_batches.inc()
            return outcome

        t0 = time.perf_counter()
        with request_scope(
            outcome.request_id, name="service.batch",
            engine=self.engine.name, coalesced=len(batch),
        ) as sp:
            prev_state = self._state
            self._set_state(REPAIRING)
            try:
                target, cables, switches = fold_events(
                    self.baseline, self._committed_cables, self._committed_switches, batch
                )
            except ReproError as err:
                self._record_failure(batch, outcome, prev_state,
                                     [f"batch not routable: {err}"])
                outcome.seconds = time.perf_counter() - t0
                sp.set_attr("action", outcome.action)
                m_batches.inc()
                h_seconds.observe(outcome.seconds)
                return outcome
            outcome.switches = target.fabric.num_switches
            outcome.cables = target.fabric.num_channels // 2
            rel = relative_degradation(self._committed, target)
            has_link_up = any(event.kind == LINK_UP for event in batch)

            action, result, errors = self._run_ladder(target, rel, has_link_up, outcome)
            if result is not None:
                self._accept(result, target, cables, switches, action)
                outcome.ok = True
                outcome.action = action
                outcome.state = self._state
                outcome.version = self.version
                outcome.stale = self._stale
            else:
                self._record_failure(batch, outcome, prev_state, errors)
            outcome.seconds = time.perf_counter() - t0
            sp.set_attr("action", outcome.action)
            sp.set_attr("attempts", outcome.attempts)
        m_batches.inc()
        h_seconds.observe(outcome.seconds)
        return outcome

    def _run_ladder(self, target: DegradedFabric, rel: DegradedFabric,
                    has_link_up: bool, outcome: BatchOutcome):
        """incremental → full → fallback, each rung retried with backoff.

        Returns ``(rung, result, errors)``.
        """
        policy = self.policy
        rungs = []
        if (
            self.engine.supports_incremental_reroute
            and not has_link_up
            and self._lkg.tables.engine == self.engine.name
        ):
            rungs.append(
                ("repair", policy.repair_deadline_s, policy.backoff.max_attempts,
                 lambda: self.engine.reroute(self._lkg, rel))
            )
        rungs.append(
            ("full", policy.full_deadline_s, policy.backoff.max_attempts,
             lambda: self.engine.route(target.fabric))
        )
        if policy.fallback_engine and policy.fallback_engine != self.engine.name:
            fallback = make_engine(policy.fallback_engine)
            rungs.append(
                ("fallback", policy.full_deadline_s, 1,
                 lambda: fallback.route(target.fabric))
            )

        reg = get_registry()
        errors: list[str] = []
        for rung, deadline, max_attempts, attempt_fn in rungs:
            for attempt in range(max_attempts):
                if attempt:
                    delay = policy.backoff.delay(attempt - 1, self.rng)
                    reg.counter(
                        "service_backoff_sleeps", "backoff waits between retry attempts",
                        engine=self.engine.name,
                    ).inc()
                    self.sleep(delay)
                outcome.attempts += 1
                reg.counter(
                    "service_attempts", "repair-ladder attempts", rung=rung,
                    engine=self.engine.name,
                ).inc()
                try:
                    with span("service.attempt", rung=rung, attempt=attempt):
                        with compute_budget(deadline, label=rung):
                            result = attempt_fn()
                        self._verify(result)
                    if rung == "repair":
                        rung = reroute_action(result)  # reroute may fall back to full
                    record_event("rung_ok", engine=self.engine.name, rung=rung,
                                 attempt=attempt)
                    return rung, result, errors
                except ComputeTimeoutError as err:
                    outcome.timeouts += 1
                    reg.counter(
                        "service_timeouts", "compute budgets exhausted", rung=rung,
                        engine=self.engine.name,
                    ).inc()
                    record_event("rung_failed", engine=self.engine.name, rung=rung,
                                 attempt=attempt, cause="timeout",
                                 limit_s=err.limit_s, elapsed_s=err.elapsed_s)
                    errors.append(f"{rung}[{attempt}]: {err}")
                except ReproError as err:
                    record_event("rung_failed", engine=self.engine.name, rung=rung,
                                 attempt=attempt, cause="error",
                                 error=f"{type(err).__name__}: {err}")
                    errors.append(f"{rung}[{attempt}]: {type(err).__name__}: {err}")
        return None, None, errors

    def _verify(self, result: RoutingResult) -> None:
        """Refuse to serve unroutable or cyclic tables (:func:`check_servable`).

        A result carrying a certificate (a restored checkpoint)
        gets one binding check; any other one witness pass, whose
        certificate an accepted result keeps. A ``service.verify`` span and
        a ``verify`` flight event record which method ran; a rejected
        certificate is dumped to the flight recorder before raising.
        """
        method = "witness" if result.certificate is None else "certificate"
        with span("service.verify", method=method) as sp:
            verdict = check_servable(result.tables, result.layered, result.certificate)
            sp.set_attr("ok", verdict.problem is None)
        if verdict.paths is None:
            raise RoutingError(verdict.problem)
        if result.layered is None:
            return
        record_event("verify", engine=self.engine.name, method=method,
                     ok=verdict.problem is None)
        if verdict.problem is None:
            result.certificate = verdict.certificate
            return
        check = verdict.check
        if check is not None:
            record_event(
                "certificate_rejected", engine=self.engine.name,
                reason=check.reason, layer=check.layer,
                witness_edge=list(check.witness_edge) if check.witness_edge else None,
                counterexample=check.counterexample,
            )
        raise RoutingError(f"candidate routing rejected: {verdict.problem}")

    def _accept(self, result: RoutingResult, target: DegradedFabric,
                cables: set, switches: set, action: str) -> None:
        self._lkg = result
        self._committed = target
        self._committed_cables = cables
        self._committed_switches = switches
        self._stale = False
        self.version += 1
        cleared = self.consecutive_failures > 0
        self.breaker.record_success()
        if cleared:
            self._publish_failures()
        record_event("routing_accepted", engine=self.engine.name, action=action,
                     version=self.version)
        # A fallback-engine routing is fresh but not the primary engine's
        # quality: the service is functioning, degraded.
        self._set_state(HEALTHY if action in ("repair", "full") else DEGRADED)
        get_registry().gauge(
            "service_lkg_version", "version of the routing currently served",
            engine=self.engine.name,
        ).set(self.version)
        self._successes_since_checkpoint += 1
        if (
            self._store is not None
            and self._successes_since_checkpoint >= self.policy.checkpoint_every
        ):
            self.checkpoint()

    def _record_failure(self, batch, outcome: BatchOutcome, prev_state: str,
                        errors: list[str]) -> None:
        self._uncommitted = batch
        self._stale = True
        self.breaker.record_failure()
        self._set_state(FAILED if self.breaker.open else DEGRADED)
        record_event("batch_failed", engine=self.engine.name,
                     request_id=outcome.request_id,
                     consecutive_failures=self.consecutive_failures,
                     errors=len(errors))
        outcome.action = "failed"
        outcome.errors.extend(errors)
        outcome.state = self._state
        outcome.stale = True
        reg = get_registry()
        reg.counter(
            "service_batch_failures", "repair batches that exhausted the ladder",
            engine=self.engine.name,
        ).inc()
        self._publish_failures()
        if self._store is not None:
            # Persist the failure too: a crash while degraded must restore
            # with the pending events and breaker state intact.
            self.checkpoint()

    # ------------------------------------------------------------------
    # checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """JSON-serialisable supervisor state (excluding bulk arrays)."""
        return {
            "engine": self.engine.name,
            "engine_opts": self.engine_opts,
            "service_id": self.service_id,
            "request_seq": self.request_seq,
            "state": self._state,
            "stale": self._stale,
            "lkg_version": self.version,
            "dead_cables": [list(k) for k in sorted(self._committed_cables)],
            "dead_switches": sorted(self._committed_switches),
            "uncommitted": [e.to_dict() for e in self._uncommitted + list(self._queue)],
            "events_submitted": self.events_submitted,
            "batches": self.batches,
            "breaker": self.breaker.to_dict(),
            "policy": self.policy.to_dict(),
            "extra": self.extra,
        }

    def checkpoint(self) -> "str | None":
        """Write an atomic checkpoint now; returns its path.

        Every last-known-good passed :meth:`_verify`, so it is certified.
        A write that fails raises :class:`CheckpointError` after a
        ``checkpoint_failed`` flight event; the served routing is untouched
        and the next checkpoint retries the same version.
        """
        if self._store is None:
            raise ServiceError("supervisor has no checkpoint directory configured")
        with span("service.checkpoint", version=self._ckpt_seq):
            try:
                path = self._store.save(
                    version=self._ckpt_seq,
                    baseline=self.baseline,
                    result=self._lkg,
                    state=self.state_dict(),
                )
            except CheckpointError as err:
                record_event("checkpoint_failed", engine=self.engine.name,
                             version=self._ckpt_seq, reason=str(err))
                raise
        record_event("checkpoint", engine=self.engine.name, version=self._ckpt_seq,
                     path=str(path))
        # The ring rides along with every checkpoint: after a crash the
        # newest flightrecorder.json explains what led up to it.
        get_recorder().dump(self._store.root / "flightrecorder.json")
        self._ckpt_seq += 1
        self._successes_since_checkpoint = 0
        get_registry().counter(
            "service_checkpoints_written", "checkpoints persisted",
            engine=self.engine.name,
        ).inc()
        return str(path)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RoutingSupervisor(engine={self.engine.name!r}, state={self._state!r}, "
            f"version={self.version}, pending={len(self._queue) + len(self._uncommitted)})"
        )
