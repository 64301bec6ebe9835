"""Wire protocol between the fleet front-end and its worker processes.

Everything that crosses a worker :class:`multiprocessing.Pipe` lives
here, as plain picklable dataclasses of plain types (ints, strings,
dicts — never numpy arrays or routing tables: workers answer with
*summaries*, the bulk state stays in the worker and its checkpoints).
Keeping the protocol in one dependency-light module lets both ends
import it under the ``spawn``/``forkserver`` start methods without
dragging the whole engine stack into the unpickling path.

Requests and responses are correlated by ``request_id``: the manager
discards any reply whose id does not match the request it is waiting
for (a late answer to a timed-out request must not be mistaken for the
next request's answer).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from repro.network.fabric import Fabric

#: request operations
OP_QUERY = "query"      #: what routing is this fabric serving right now?
OP_FAULT = "fault"      #: submit one fault event and process the batch
OP_HEALTH = "health"    #: per-shard supervisor state summary
OP_SHUTDOWN = "shutdown"  #: drain and exit the worker loop

OPS = (OP_QUERY, OP_FAULT, OP_HEALTH, OP_SHUTDOWN)

#: response sources (who actually answered)
SOURCE_WORKER = "worker"
SOURCE_DEGRADED_LKG = "degraded-lkg"


@dataclass(frozen=True)
class ShardSpec:
    """One fabric assigned to one worker.

    ``fabric`` is the healthy baseline (picklable); the worker derives
    its checkpoint directory from ``fabric_id`` under the fleet root, so
    a respawned worker finds its predecessor's rolling checkpoints.
    """

    fabric_id: str
    fabric: Fabric
    engine: str = "dfsssp"


@dataclass(frozen=True)
class FleetRequest:
    """One front-end request routed to the shard owning ``fabric_id``."""

    request_id: str
    op: str
    fabric_id: str
    tenant: str = "default"
    payload: dict = field(default_factory=dict)


@dataclass
class FleetResponse:
    """Answer to one :class:`FleetRequest`.

    ``ok`` means the request was *served* — possibly degraded: when the
    owning shard is down the manager answers from last-known-good state
    with ``degraded=True`` and ``stale=True`` and ``source`` naming what
    backed the answer. ``ok=False`` (an unserved request) only happens
    when no last-known-good routing exists anywhere.
    """

    request_id: str
    op: str
    fabric_id: str
    ok: bool
    payload: dict = field(default_factory=dict)
    error: str | None = None
    stale: bool = False
    degraded: bool = False
    source: str = SOURCE_WORKER
    worker: int | None = None
    attempts: int = 0
    latency_s: float = 0.0

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class WorkerReady:
    """First message on a fresh worker's pipe: every shard is serving.

    ``shards`` maps fabric_id → summary dict; each summary records
    whether the shard was restored from a checkpoint and whether the
    restored routing was re-verified via its deadlock-freedom
    certificate (``verify_method == "certificate"``) — the fleet soak
    asserts this for every respawn.
    """

    worker: int
    pid: int
    shards: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)
