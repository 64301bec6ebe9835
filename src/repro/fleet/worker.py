"""Fleet worker process: a few supervised fabrics behind a pipe.

One worker hosts one :class:`~repro.service.supervisor.RoutingSupervisor`
per assigned shard and answers :class:`~repro.fleet.messages.FleetRequest`
messages over its pipe until told to shut down (or killed — the whole
point of the fleet layer is that a SIGKILL here loses nothing that the
shard checkpoints cannot restore).

Lifecycle:

1. For every :class:`~repro.fleet.messages.ShardSpec`, restore from the
   shard's rolling checkpoints when any exist (the restore path
   re-verifies the routing via its O(V+E) deadlock-freedom certificate
   before serving), else construct fresh (the constructor routes,
   verifies and writes checkpoint #1 — so by the time the worker reports
   ready, every shard can survive a SIGKILL).
2. Send a :class:`~repro.fleet.messages.WorkerReady` carrying per-shard
   restore/certification summaries (the soak asserts respawned shards
   were certificate-verified).
3. Start a daemon heartbeat thread that stamps a shared double with
   ``time.time()`` — the manager's monitor treats a stale stamp or a
   dead process the same way: respawn.
4. Serve the request loop; any per-request failure is answered
   ``ok=False`` rather than crashing the worker (real crash isolation is
   the process boundary, exercised by the soak's SIGKILLs).

This module runs under ``spawn``/``forkserver`` start methods, so
``worker_main`` must stay importable at top level and all its arguments
picklable.
"""

from __future__ import annotations

import os
import threading
import time

from repro.exceptions import CheckpointError, ReproError
from repro.fleet.messages import (
    OP_FAULT,
    OP_HEALTH,
    OP_QUERY,
    OP_SHUTDOWN,
    FleetRequest,
    FleetResponse,
    ShardSpec,
    WorkerReady,
)
from repro.obs.recorder import get_recorder, record_event
from repro.resilience.events import FaultEvent
from repro.service.policy import ServicePolicy
from repro.service.supervisor import RoutingSupervisor


def shard_checkpoint_dir(root, fabric_id: str):
    """Where a shard's rolling checkpoints live under the fleet root.

    Derived purely from the fleet root and fabric id so a respawned
    worker — a brand-new process — finds its predecessor's state.
    """
    from pathlib import Path

    return Path(root) / "shards" / fabric_id


def serving_summary(fabric_id: str, supervisor: RoutingSupervisor) -> dict:
    """Picklable summary of what a shard serves right now."""
    served = supervisor.serving()
    return {
        "fabric_id": fabric_id,
        "engine": supervisor.engine.name,
        "version": served.version,
        "state": served.state,
        "stale": served.stale,
        "pending_events": served.pending_events,
        "switches": served.fabric.num_switches,
        "cables": served.fabric.num_channels // 2,
        "deadlock_free": served.result.deadlock_free,
        "certified": served.result.certificate is not None,
        "layers": (
            served.result.layered.layers_used
            if served.result.layered is not None
            else None
        ),
    }


def _build_shard(spec: ShardSpec, root, policy: ServicePolicy):
    """Restore-or-construct one shard; returns (supervisor, summary)."""
    ckpt_dir = shard_checkpoint_dir(root, spec.fabric_id)
    restored = False
    try:
        supervisor = RoutingSupervisor.restore(ckpt_dir, policy=policy)
        restored = True
    except CheckpointError:
        # No (usable) checkpoint — first spawn, or the shard died before
        # its constructor finished checkpoint #1. Build from scratch.
        supervisor = RoutingSupervisor(
            spec.fabric,
            engine=spec.engine,
            policy=policy,
            checkpoint_dir=ckpt_dir,
        )
    summary = serving_summary(spec.fabric_id, supervisor)
    summary["restored"] = restored
    # The restore path verifies through the checkpointed certificate
    # (supervisor._adopt -> _verify); a fresh construction verifies by a
    # witness pass. Either way the shard never serves unverified.
    summary["verify_method"] = "certificate" if (
        restored and supervisor.serving().result.certificate is not None
    ) else "witness"
    return supervisor, summary


def _handle(req: FleetRequest, supervisors: dict) -> FleetResponse:
    supervisor = supervisors.get(req.fabric_id)
    if supervisor is None:
        return FleetResponse(
            request_id=req.request_id, op=req.op, fabric_id=req.fabric_id,
            ok=False, error=f"shard {req.fabric_id!r} not hosted by this worker",
        )
    try:
        if req.op == OP_QUERY:
            payload = {"serving": serving_summary(req.fabric_id, supervisor)}
        elif req.op == OP_FAULT:
            event = FaultEvent.from_dict(req.payload["event"])
            supervisor.submit(event)
            outcome = supervisor.process()
            payload = {
                "outcome": outcome.to_dict() if outcome is not None else None,
                "serving": serving_summary(req.fabric_id, supervisor),
            }
        elif req.op == OP_HEALTH:
            payload = {
                "serving": serving_summary(req.fabric_id, supervisor),
                "batches": supervisor.batches,
                "events_submitted": supervisor.events_submitted,
                "consecutive_failures": supervisor.consecutive_failures,
                "breaker": supervisor.breaker.to_dict(),
            }
        else:
            return FleetResponse(
                request_id=req.request_id, op=req.op, fabric_id=req.fabric_id,
                ok=False, error=f"unknown op {req.op!r}",
            )
    except ReproError as err:
        return FleetResponse(
            request_id=req.request_id, op=req.op, fabric_id=req.fabric_id,
            ok=False, error=f"{type(err).__name__}: {err}",
        )
    served = payload["serving"]
    return FleetResponse(
        request_id=req.request_id, op=req.op, fabric_id=req.fabric_id,
        ok=True, payload=payload, stale=bool(served["stale"]),
    )


def worker_main(
    worker_id: int,
    specs: list[ShardSpec],
    conn,
    heartbeat,
    root,
    policy_data: dict | None,
    heartbeat_interval_s: float,
) -> None:
    """Entry point of one fleet worker process."""
    policy = (
        ServicePolicy.from_dict(policy_data) if policy_data else ServicePolicy()
    )

    stop = threading.Event()

    def beat():
        while not stop.is_set():
            heartbeat.value = time.time()
            stop.wait(heartbeat_interval_s)

    # Start beating before the (potentially slow) initial routes so the
    # manager's liveness monitor never mistakes "busy building" for dead.
    heartbeat.value = time.time()
    threading.Thread(target=beat, name=f"fleet-hb-{worker_id}", daemon=True).start()

    supervisors: dict[str, RoutingSupervisor] = {}
    shard_info: dict[str, dict] = {}
    try:
        for spec in specs:
            supervisors[spec.fabric_id], shard_info[spec.fabric_id] = _build_shard(
                spec, root, policy
            )
        conn.send(WorkerReady(worker=worker_id, pid=os.getpid(), shards=shard_info))
    except BaseException:  # pragma: no cover - surfaced as spawn failure
        stop.set()
        try:
            conn.close()
        except OSError:
            pass
        raise

    record_event("worker_serving", worker=worker_id, pid=os.getpid(),
                 shards=sorted(supervisors))
    try:
        while True:
            try:
                req = conn.recv()
            except (EOFError, OSError):
                break  # manager is gone; nothing left to serve
            if not isinstance(req, FleetRequest):
                continue
            if req.op == OP_SHUTDOWN:
                conn.send(FleetResponse(
                    request_id=req.request_id, op=req.op,
                    fabric_id=req.fabric_id, ok=True,
                ))
                break
            try:
                resp = _handle(req, supervisors)
            except Exception as err:  # noqa: BLE001 - worker must not die on one request
                resp = FleetResponse(
                    request_id=req.request_id, op=req.op, fabric_id=req.fabric_id,
                    ok=False, error=f"{type(err).__name__}: {err}",
                )
            try:
                conn.send(resp)
            except (BrokenPipeError, OSError):
                break
    finally:
        stop.set()
        # Leave a post-mortem trail next to the shards' checkpoints.
        dump_dir = os.path.join(str(root), "workers")
        os.makedirs(dump_dir, exist_ok=True)
        get_recorder().dump(
            os.path.join(dump_dir, f"worker-{worker_id}-{os.getpid()}-flight.json")
        )
        try:
            conn.close()
        except OSError:
            pass
