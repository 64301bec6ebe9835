"""Fleet manager: fault-isolated multi-fabric routing-as-a-service.

The single-fabric :class:`~repro.service.supervisor.RoutingSupervisor`
already survives its own fault stream; :class:`FleetManager` scales that
to *N fabrics under one front door* with the failure domain the paper's
deployment implies (a subnet manager configuring many fabrics): shards
live in separate worker processes, so a crash — up to and including
SIGKILL — takes down only the fabrics on that worker, and only until the
monitor respawns it from rolling checkpoints.

The request path layers the operational guarantees on top:

* **deadlines** — every request carries one; a slow or dead shard makes
  the request *degrade*, never hang;
* **bounded retries** — exponential backoff with jitter between
  attempts, never past the deadline;
* **admission budgets** — per-tenant / per-fabric / total in-flight
  caps (:mod:`repro.fleet.admission`) shed load at the door;
* **circuit breakers** — one per fabric; consecutive shard failures
  stop the retry traffic until a cooldown probe succeeds;
* **graceful degradation** — rejected, breaker-open, or shard-down
  requests are answered from the last-known-good serving summary,
  explicitly stamped ``stale``/``degraded``. The constructor records a
  summary for every fabric before it returns, so a constructed fleet
  answers every request for a known fabric.

Crash detection is belt and braces: each worker stamps a shared
heartbeat double from a daemon thread; the monitor respawns a worker
when its process dies *or* its stamp goes stale, after SIGKILL-ing and
joining the old process (a stalled one must never wake up beside its
replacement). A respawned worker
restores every shard from its checkpoints, where the restore path
re-verifies the routing through its O(V+E) deadlock-freedom certificate
before serving — the manager records each respawn with per-shard
``restored``/``verify_method`` so soaks can assert it.

Workers are started via the ``forkserver`` (fallback ``spawn``) start
method: the manager is multi-threaded and metrics registries hold locks,
so ``fork`` could deadlock a child. That makes workers daemonic
processes, which cannot have children of their own; every shard runs
its engine with the default options, which start none.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import random
import signal
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from repro.exceptions import FleetError
from repro.fleet.admission import AdmissionController
from repro.fleet.messages import (
    OP_FAULT,
    OP_HEALTH,
    OP_QUERY,
    OP_SHUTDOWN,
    OPS,
    SOURCE_DEGRADED_LKG,
    FleetRequest,
    FleetResponse,
    ShardSpec,
    WorkerReady,
)
from repro.fleet.worker import worker_main
from repro.network.fabric import Fabric
from repro.obs import DURATION_BUCKETS, get_registry
from repro.obs.recorder import record_event
from repro.service.policy import BackoffPolicy, CircuitBreaker, ServicePolicy

#: seconds between a worker's heartbeat stamps (and between monitor sweeps)
HEARTBEAT_INTERVAL_S = 0.2
#: seconds a worker may take to build its shards and report ready
SPAWN_TIMEOUT_S = 120.0
#: admission budgets: in-flight requests per tenant, per fabric, in total
PER_TENANT_INFLIGHT = 16
PER_FABRIC_INFLIGHT = 16
TOTAL_INFLIGHT = 128


@dataclass(frozen=True)
class FleetConfig:
    """The fleet-manager settings a caller chooses; the rest are module constants.

    ``request_timeout_s`` is the per-request deadline (callers may
    override per call); ``backoff.max_attempts`` bounds the attempts per
    request, the first included. ``heartbeat_timeout_s`` trades
    detection latency against false positives — the default tolerates a
    worker pausing ~10 beats of :data:`HEARTBEAT_INTERVAL_S`.
    """

    workers: int = 2
    engine: str = "dfsssp"
    request_timeout_s: float = 30.0
    backoff: BackoffPolicy = BackoffPolicy(base_s=0.05, cap_s=0.5, max_attempts=3)
    heartbeat_timeout_s: float = 2.0
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 1.0
    degraded_delay_s: float = 0.1
    policy: ServicePolicy | None = None

    def __post_init__(self):
        if self.workers < 1:
            raise FleetError(f"fleet needs >= 1 worker, got {self.workers}")
        if self.degraded_delay_s < 0:
            raise FleetError(
                f"degraded_delay_s must be >= 0, got {self.degraded_delay_s}"
            )


class _WorkerHandle:
    """One worker slot: process + pipe + heartbeat + serialised access."""

    def __init__(self, worker_id: int, generation: int, process, conn, heartbeat):
        self.id = worker_id
        self.generation = generation
        self.process = process
        self.conn = conn
        self.heartbeat = heartbeat
        self.lock = threading.Lock()
        self.alive = True

    @property
    def pid(self) -> int | None:
        return self.process.pid

    def heartbeat_age(self, now: float) -> float:
        stamp = float(self.heartbeat.value)
        return now - stamp if stamp else 0.0


def _mp_context():
    """Start method for workers: never ``fork`` — the manager runs client
    threads and the metrics registry holds locks; a forked child could
    inherit one mid-acquire and deadlock on its first counter."""
    try:
        return mp.get_context("forkserver")
    except ValueError:  # pragma: no cover - platform without forkserver
        return mp.get_context("spawn")


class FleetManager:
    """Front door over N fabrics sharded across worker processes.

    Parameters
    ----------
    fabrics:
        ``{fabric_id: healthy Fabric}`` (an iterable of fabrics gets ids
        ``fab-00``, ``fab-01``, …). Shards are assigned round-robin over
        ``config.workers`` workers in sorted-id order.
    root:
        Fleet state directory: ``shards/<fabric_id>/`` rolling
        checkpoints, ``workers/`` per-worker flight dumps.
    config:
        :class:`FleetConfig`.

    The constructor blocks until every worker reports ready (each shard
    routed/restored, verified and checkpointed), so a constructed fleet
    always serves — and always survives an immediate SIGKILL.
    """

    def __init__(self, fabrics, root, config: FleetConfig | None = None):
        if isinstance(fabrics, dict):
            items = dict(fabrics)
        else:
            items = {f"fab-{i:02d}": fabric for i, fabric in enumerate(fabrics)}
        if not items:
            raise FleetError("a fleet needs at least one fabric")
        for fabric_id, fabric in items.items():
            if not isinstance(fabric, Fabric):
                raise FleetError(f"fabric {fabric_id!r} is not a Fabric")
        self.config = config or FleetConfig()
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.fabrics = items
        ids = sorted(items)
        self._num_workers = min(self.config.workers, len(ids))
        self._shard_of = {fid: i % self._num_workers for i, fid in enumerate(ids)}
        self._specs: list[list[ShardSpec]] = [[] for _ in range(self._num_workers)]
        for fid in ids:
            self._specs[self._shard_of[fid]].append(
                ShardSpec(fabric_id=fid, fabric=items[fid], engine=self.config.engine)
            )

        self._ctx = _mp_context()
        self._policy = self.config.policy or ServicePolicy()
        self.admission = AdmissionController(
            per_tenant=PER_TENANT_INFLIGHT,
            per_fabric=PER_FABRIC_INFLIGHT,
            total=TOTAL_INFLIGHT,
        )
        self._breakers = {
            fid: CircuitBreaker(
                self.config.breaker_threshold, self.config.breaker_cooldown_s
            )
            for fid in ids
        }
        self._lkg: dict[str, dict] = {}
        self._rng = random.Random(0xF1EE7)
        self._rng_lock = threading.Lock()
        self._seq = 0
        self._seq_lock = threading.Lock()
        self._closing = threading.Event()
        self.respawns: list[dict] = []
        self.deaths: list[dict] = []

        self._workers: list[_WorkerHandle] = [
            self._spawn(i, generation=0) for i in range(self._num_workers)
        ]
        self._publish_alive()
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="fleet-monitor", daemon=True
        )
        self._monitor.start()

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, worker_id: int, generation: int) -> _WorkerHandle:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        heartbeat = self._ctx.Value("d", 0.0)
        process = self._ctx.Process(
            target=worker_main,
            name=f"fleet-worker-{worker_id}",
            args=(
                worker_id,
                self._specs[worker_id],
                child_conn,
                heartbeat,
                str(self.root),
                self._policy.to_dict(),
                HEARTBEAT_INTERVAL_S,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        record_event("worker_spawned", worker=worker_id, pid=process.pid,
                     generation=generation,
                     shards=[s.fabric_id for s in self._specs[worker_id]])
        ready = self._await_ready(worker_id, parent_conn, process)
        handle = _WorkerHandle(worker_id, generation, process, parent_conn, heartbeat)
        for fabric_id, info in ready.shards.items():
            self._lkg[fabric_id] = dict(info)
        record_event("worker_ready", worker=worker_id, pid=process.pid,
                     generation=generation,
                     restored=[fid for fid, s in ready.shards.items() if s.get("restored")])
        if generation > 0:
            self.respawns.append({
                "worker": worker_id, "pid": process.pid, "generation": generation,
                "shards": {fid: dict(s) for fid, s in ready.shards.items()},
            })
            get_registry().counter(
                "fleet_worker_respawns_total", "workers respawned after a crash"
            ).inc()
            record_event("worker_respawned", worker=worker_id, pid=process.pid,
                         generation=generation)
            for fabric_id, info in ready.shards.items():
                record_event(
                    "shard_restored", worker=worker_id, fabric=fabric_id,
                    restored=info.get("restored"),
                    verify_method=info.get("verify_method"),
                    certified=info.get("certified"),
                    version=info.get("version"),
                )
        return handle

    def _await_ready(self, worker_id: int, conn, process) -> WorkerReady:
        deadline = time.monotonic() + SPAWN_TIMEOUT_S
        while process.is_alive() or conn.poll(0):
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            if not conn.poll(min(remaining, 0.1)):
                continue
            try:
                msg = conn.recv()
            except EOFError:  # the worker closed its pipe on the way out
                process.join(timeout=5.0)
                break
            if isinstance(msg, WorkerReady):
                return msg
        if process.is_alive():
            process.kill()
            process.join()
        raise FleetError(
            f"worker {worker_id} died before reporting ready "
            f"(exitcode={process.exitcode})"
        )

    def _mark_dead(self, handle: _WorkerHandle, reason: str) -> None:
        if not handle.alive:
            return
        handle.alive = False
        self.deaths.append({
            "worker": handle.id, "pid": handle.pid,
            "generation": handle.generation, "reason": reason,
        })
        record_event("worker_dead", worker=handle.id, pid=handle.pid,
                     generation=handle.generation, reason=reason)
        get_registry().counter(
            "fleet_worker_deaths_total", "worker processes detected dead",
            reason=reason,
        ).inc()
        self._publish_alive()

    def _publish_alive(self) -> None:
        get_registry().gauge(
            "fleet_workers_alive", "worker processes currently serving"
        ).set(sum(1 for w in self._workers if w.alive))

    def _monitor_loop(self) -> None:
        while not self._closing.is_set():
            now = time.time()
            for idx, handle in enumerate(self._workers):
                if self._closing.is_set():
                    return
                if handle.alive:
                    if not handle.process.is_alive():
                        self._mark_dead(handle, reason="exit")
                    elif handle.heartbeat_age(now) > self.config.heartbeat_timeout_s:
                        self._mark_dead(handle, reason="heartbeat")
                if not handle.alive:
                    # Stop the old process for good first: a stalled worker
                    # that woke up later would write into the shard
                    # checkpoints beside its replacement.
                    handle.process.kill()
                    handle.process.join()
                    try:
                        replacement = self._spawn(
                            handle.id, generation=handle.generation + 1
                        )
                    except FleetError as err:  # pragma: no cover - respawn crash-loop
                        record_event("worker_respawn_failed", worker=handle.id,
                                     error=str(err))
                        continue
                    self._workers[idx] = replacement
                    self._publish_alive()
            self._closing.wait(HEARTBEAT_INTERVAL_S)

    # ------------------------------------------------------------------
    # request path
    # ------------------------------------------------------------------
    def _next_request_id(self) -> str:
        with self._seq_lock:
            self._seq += 1
            return f"flt-{self._seq:06d}"

    def request(
        self,
        op: str,
        fabric_id: str,
        *,
        tenant: str = "default",
        payload: dict | None = None,
        timeout_s: float | None = None,
    ) -> FleetResponse:
        """Serve one request against the shard owning ``fabric_id``.

        Never raises for shard trouble — the response's ``degraded`` /
        ``ok`` flags carry the outcome. Raises :class:`FleetError` only
        for caller mistakes (unknown fabric or op).
        """
        if op not in OPS or op == OP_SHUTDOWN:
            raise FleetError(f"unknown fleet op {op!r}")
        if fabric_id not in self._shard_of:
            raise FleetError(f"unknown fabric {fabric_id!r}")
        req = FleetRequest(
            request_id=self._next_request_id(), op=op, fabric_id=fabric_id,
            tenant=tenant, payload=dict(payload or {}),
        )
        t0 = time.perf_counter()
        deadline = t0 + (timeout_s if timeout_s is not None else self.config.request_timeout_s)

        reg = get_registry()
        scope = self.admission.try_acquire(tenant, fabric_id)
        if scope is not None:
            return self._finish(req, self._degraded(req, f"admission-{scope}"), t0, 0)
        try:
            breaker = self._breakers[fabric_id]
            if not breaker.allow():
                reg.counter(
                    "fleet_breaker_rejections_total",
                    "requests short-circuited by an open per-fabric breaker",
                ).inc()
                return self._finish(req, self._degraded(req, "breaker-open"), t0, 0)
            attempts = 0
            resolved = False
            try:
                for attempt in range(self.config.backoff.max_attempts):
                    if attempt:
                        with self._rng_lock:
                            delay = self.config.backoff.delay(attempt - 1, self._rng)
                        delay = min(delay, max(0.0, deadline - time.perf_counter()))
                        reg.counter(
                            "fleet_retries_total", "request attempts beyond the first"
                        ).inc()
                        time.sleep(delay)
                    if time.perf_counter() >= deadline and attempt:
                        break
                    attempts += 1
                    resp = self._try_worker(req, deadline)
                    if resp is not None:
                        breaker.record_success()
                        resolved = True
                        if resp.ok:
                            serving = resp.payload.get("serving")
                            if serving:
                                self._lkg[fabric_id] = dict(serving)
                        return self._finish(req, resp, t0, attempts)
                breaker.record_failure()
                resolved = True
                return self._finish(
                    req, self._degraded(req, "shard-unavailable"), t0, attempts
                )
            finally:
                # A claimed half-open probe must always resolve, or the
                # breaker wedges closed-forever against new probes.
                if not resolved:
                    breaker.record_failure()
        finally:
            self.admission.release(tenant, fabric_id)

    def _try_worker(self, req: FleetRequest, deadline: float) -> FleetResponse | None:
        handle = self._workers[self._shard_of[req.fabric_id]]
        if not handle.alive:
            return None
        with handle.lock:
            if not handle.alive:
                return None
            try:
                handle.conn.send(req)
                while True:
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        return None  # a late reply is discarded by the next user
                    if not handle.conn.poll(remaining):
                        return None
                    resp = handle.conn.recv()
                    if (
                        isinstance(resp, FleetResponse)
                        and resp.request_id == req.request_id
                    ):
                        resp.worker = handle.id
                        return resp
                    get_registry().counter(
                        "fleet_stale_replies_total",
                        "late replies to already timed-out requests, discarded",
                    ).inc()
            except (EOFError, BrokenPipeError, OSError):
                self._mark_dead(handle, reason="pipe")
                return None

    def _degraded(self, req: FleetRequest, reason: str) -> FleetResponse:
        """Answer from last-known-good state instead of erroring.

        The answer is the in-memory serving summary, updated on every
        successful worker response. Fault ops served this way are
        ``deferred``: the event was not applied, the caller sees the
        pre-fault routing.

        Degraded answers are paced by ``degraded_delay_s``: an instant
        fail-fast answer costs nothing, so during an outage clients would
        hammer the dead shard and starve the healthy ones of request
        budget (a retry storm in miniature). The delay is backpressure,
        not recovery time.
        """
        if self.config.degraded_delay_s > 0:
            time.sleep(self.config.degraded_delay_s)
        get_registry().counter(
            "fleet_degraded_total", "requests answered from last-known-good state",
            reason=reason,
        ).inc()
        serving = self._lkg.get(req.fabric_id)
        if serving is None:
            get_registry().counter(
                "fleet_requests_failed_total",
                "requests that could not be served at all (no known routing)",
            ).inc()
            record_event("request_failed", request_id=req.request_id,
                         fabric=req.fabric_id, reason=reason)
            return FleetResponse(
                request_id=req.request_id, op=req.op, fabric_id=req.fabric_id,
                ok=False, error=f"no routing available ({reason})",
                degraded=True, source=SOURCE_DEGRADED_LKG,
            )
        record_event("degraded_serve", request_id=req.request_id,
                     fabric=req.fabric_id, reason=reason, source=SOURCE_DEGRADED_LKG)
        payload = {"serving": dict(serving), "reason": reason}
        if req.op == OP_FAULT:
            payload["deferred"] = True
        return FleetResponse(
            request_id=req.request_id, op=req.op, fabric_id=req.fabric_id,
            ok=True, payload=payload, stale=True, degraded=True,
            source=SOURCE_DEGRADED_LKG,
        )

    def _finish(
        self, req: FleetRequest, resp: FleetResponse, t0: float, attempts: int
    ) -> FleetResponse:
        resp.attempts = attempts
        resp.latency_s = time.perf_counter() - t0
        outcome = (
            "failed" if not resp.ok
            else "degraded" if resp.degraded
            else "ok"
        )
        reg = get_registry()
        reg.counter(
            "fleet_requests_total", "fleet front-end requests",
            op=req.op, outcome=outcome,
        ).inc()
        reg.histogram(
            "fleet_request_seconds", "front-end request latency",
            buckets=DURATION_BUCKETS,
        ).observe(resp.latency_s)
        return resp

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------
    def query(self, fabric_id: str, **kw) -> FleetResponse:
        return self.request(OP_QUERY, fabric_id, **kw)

    def inject_fault(self, fabric_id: str, event: dict, **kw) -> FleetResponse:
        return self.request(OP_FAULT, fabric_id, payload={"event": event}, **kw)

    def health(self, fabric_id: str, **kw) -> FleetResponse:
        return self.request(OP_HEALTH, fabric_id, **kw)

    def batch(self, requests, concurrency: int = 8) -> list[FleetResponse]:
        """Serve ``(op, fabric_id, tenant, payload)`` tuples concurrently."""
        from concurrent.futures import ThreadPoolExecutor

        def one(item):
            op, fabric_id, tenant, payload = item
            return self.request(op, fabric_id, tenant=tenant, payload=payload)

        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            return list(pool.map(one, requests))

    def kill_worker(self, worker_id: int) -> int | None:
        """SIGKILL a worker (chaos hook); returns the pid, or ``None``."""
        handle = self._workers[worker_id]
        pid = handle.pid
        if pid is None or not handle.process.is_alive():
            return None
        record_event("worker_killed", worker=worker_id, pid=pid)
        os.kill(pid, signal.SIGKILL)
        return pid

    def alive_workers(self) -> list[int]:
        return [w.id for w in self._workers if w.alive and w.process.is_alive()]

    def status(self) -> dict:
        now = time.time()
        return {
            "workers": [
                {
                    "id": w.id, "pid": w.pid, "alive": w.alive,
                    "generation": w.generation,
                    "heartbeat_age_s": round(w.heartbeat_age(now), 3),
                }
                for w in self._workers
            ],
            "shards": dict(self._shard_of),
            "respawns": len(self.respawns),
            "deaths": len(self.deaths),
            "inflight": self.admission.inflight(),
            "breakers": {fid: b.to_dict() for fid, b in self._breakers.items()},
        }

    def last_known_good(self, fabric_id: str) -> dict | None:
        summary = self._lkg.get(fabric_id)
        return dict(summary) if summary is not None else None

    # ------------------------------------------------------------------
    def shutdown(self, timeout_s: float = 10.0) -> None:
        """Stop the monitor, drain the workers, reap the processes."""
        if self._closing.is_set():
            return
        self._closing.set()
        self._monitor.join(timeout=timeout_s)
        for handle in self._workers:
            if handle.alive and handle.process.is_alive():
                try:
                    with handle.lock:
                        handle.conn.send(FleetRequest(
                            request_id=self._next_request_id(),
                            op=OP_SHUTDOWN, fabric_id="*",
                        ))
                except (BrokenPipeError, OSError):
                    pass
            handle.process.join(timeout=timeout_s)
            if handle.process.is_alive():  # pragma: no cover - stuck worker
                handle.process.kill()
                handle.process.join(timeout=timeout_s)
            handle.alive = False
            try:
                handle.conn.close()
            except OSError:
                pass
        self._publish_alive()

    def __enter__(self) -> "FleetManager":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
