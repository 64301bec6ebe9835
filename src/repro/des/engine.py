"""Deterministic packet-level discrete-event engine.

Model
-----
* **Event calendar** — events are served in time order and, within one
  instant, in the order they were scheduled, itself a pure function of
  the (seeded) inputs: the same scenario and seed replay the exact same
  event sequence, bit for bit (``DesOutcome.log_hash`` pins it). Each
  pending instant holds one FIFO of its events; a binary heap holds the
  distinct pending instants. An event scheduled for the instant being
  served joins the end of its FIFO: everything already there was
  scheduled earlier, before the clock reached that instant.
* **Forwarding** — hop-by-hop against the *current* forwarding tables,
  exactly like a switch consulting its LFT: the next output channel is
  looked up when a packet reaches the head of a queue, so a mid-run
  reroute redirects every packet that has not yet crossed the repaired
  region. Virtual lanes follow InfiniBand SL→VL semantics: a packet's
  lane is fixed at injection from the routing's layer assignment; a
  retransmission is a new injection and looks its lane up again.
* **Queues and backpressure** — every directed channel has one output
  FIFO per virtual lane. Switch queues hold at most ``buffer_packets``
  packets (``None`` = infinite); a packet may only start serializing
  when a slot in its *next* queue has been reserved (credit-style
  backpressure), so finite buffers propagate congestion upstream and a
  cyclic buffer dependency wedges — observable as ``status ==
  "deadlock"``, with the credit wait-for cycle as the witness
  (``DesOutcome.waitfor_cycle``). Terminal (NIC) queues are unbounded.
* **Links** — serializing a packet occupies its channel for
  ``bytes / bandwidth`` seconds; arrival happens one ``propagation``
  later. Both come from :class:`LinkParams`.
* **Faults** — each :class:`FaultSpec` fires a seeded
  :class:`repro.resilience.FaultInjector` step at a DES timestamp and
  follows it with :func:`repro.resilience.events.follow_fault` (the
  engine's :meth:`~repro.routing.base.RoutingEngine.reroute`). Packets stored
  in, or in flight on, a dead element are dropped and retransmitted
  from the source after ``retransmit_delay_s``.

The engine emits its counters, FCT/latency histograms and queue
occupancy into :mod:`repro.obs` under ``des_*`` names, inside a
``des.run`` tracing span — see ``docs/observability.md``.
"""

from __future__ import annotations

import hashlib
import math
from collections import defaultdict, deque
from contextlib import ExitStack
from dataclasses import dataclass, field
from heapq import heappop, heappush
from operator import attrgetter

import numpy as np

from repro.exceptions import ReproError, SimulationError
from repro.obs import COUNT_BUCKETS, DURATION_BUCKETS, get_registry, span
from repro.routing.base import RoutingEngine, RoutingResult
from repro.utils.prng import spawn_rngs

# NOTE: repro.resilience is imported lazily inside the fault handler:
# only fault scenarios need it.

# Event kinds (payload discriminators stored with the payload in an
# instant's FIFO; the heap holds bare times). The first three are 99 % of
# all events and are handled inside the loop of :meth:`PacketDES.run`.
_E_TRY, _E_ARRIVE, _E_FREE, _E_FLOW, _E_RETX, _E_FAULT = range(6)
_KIND_NAMES = ("try", "arrive", "free", "flow", "retx", "fault")
_RECORD_CHUNK = 4096  # record-stream entries hashed per ``sha256.update``
_queue_order = attrgetter("channel", "vc")


@dataclass(frozen=True)
class LinkParams:
    """Physical link model shared by every channel."""

    bandwidth_bytes_per_s: float = 12.5e9  # 100 Gb/s
    propagation_s: float = 0.5e-6
    mtu_bytes: int = 4096

    def __post_init__(self):
        if self.bandwidth_bytes_per_s <= 0:
            raise SimulationError("link bandwidth must be positive")
        if self.propagation_s < 0:
            raise SimulationError("propagation delay cannot be negative")
        if self.mtu_bytes < 1:
            raise SimulationError("mtu must be >= 1 byte")

    def serialization_s(self, nbytes: int) -> float:
        return nbytes / self.bandwidth_bytes_per_s


@dataclass(frozen=True)
class FaultSpec:
    """Inject ``count`` seeded fault events at DES time ``at_s``."""

    at_s: float
    count: int = 1

    def __post_init__(self):
        # A negative time would run the clock backwards, NaN has no place in
        # time order, and an infinite one fires only after the run drains.
        if not 0 <= self.at_s < math.inf:
            raise SimulationError(f"fault at_s must be finite and >= 0, got {self.at_s!r}")
        if self.count < 1:
            raise SimulationError(f"fault count must be >= 1, got {self.count!r}")


@dataclass(slots=True)
class _Packet:
    pid: int
    fid: int
    dst: int
    nbytes: int
    born: float
    attempts: int = 0
    hops: int = 0


@dataclass(slots=True, eq=False)  # hashed by identity: queues key the run's dicts
class QueueStats:
    """One ``(channel, vc)`` output queue: its occupancy statistics and,
    while a run is in progress, the packets stored in it."""

    channel: int
    vc: int
    max_occupancy: int = 0
    _integral: float = 0.0
    _last_t: float = 0.0
    _occ: int = 0  # stored packets + slots reserved by packets on the wire
    _pkts: deque | None = field(default=None, repr=False)

    def change(self, delta: int, t: float) -> None:
        """Move the occupancy by ``delta`` at time ``t`` in one step (the
        engine's event loop inlines the ``±1`` case)."""
        self._integral += self._occ * (t - self._last_t)
        self._last_t = t
        self._occ += delta
        if self._occ > self.max_occupancy:
            self.max_occupancy = self._occ

    @property
    def occupancy(self) -> int:
        return self._occ

    def mean_occupancy(self, duration: float) -> float:
        return self._integral / duration if duration > 0 else 0.0


@dataclass
class _FlowState:
    flow: object  # repro.des.workloads.Flow
    released_at: float
    packets_total: int
    delivered: int = 0
    lost: int = 0
    completed_at: float | None = None


@dataclass
class DesOutcome:
    """Everything one :meth:`PacketDES.run` learned."""

    status: str  # "completed" | "incomplete" | "deadlock" | "horizon"
    time: float
    events_processed: int
    injected: int
    delivered: int
    dropped: int
    retransmitted: int
    lost: int
    in_network: int
    flows_released: int
    flows_completed: int
    bytes_delivered: int
    makespan_s: float
    fct_seconds: dict[int, float]
    packet_latency_s: list[float]
    link_packets: np.ndarray
    queue_stats: list[QueueStats]
    faults: list[str] = field(default_factory=list)
    reroutes: list[str] = field(default_factory=list)
    log: list[tuple] | None = None
    log_hash: str = ""
    timelines: dict[tuple[int, int], list[tuple[float, int]]] | None = None
    #: events handled per kind (``try`` + ``arrive`` + ``free`` + ``flow`` +
    #: ``retx`` + ``fault`` == ``events_processed``) and what the ``try``
    #: events did: ``send`` + ``try_empty`` + ``try_busy`` + ``try_no_credit``.
    events_by_kind: dict[str, int] = field(default_factory=dict)
    #: the deadlock witness: ``(channel, vc)`` queues, each one's head packet
    #: waiting on the next one's full buffer, the last on the first ([] unless wedged).
    waitfor_cycle: list[tuple[int, int]] = field(default_factory=list)

    @property
    def throughput_bytes_per_s(self) -> float:
        return self.bytes_delivered / self.makespan_s if self.makespan_s > 0 else 0.0

    def fct_percentiles(self, qs=(50, 90, 99, 100)) -> dict[str, float]:
        values = sorted(self.fct_seconds.values())
        if not values:
            return {f"p{q}": float("nan") for q in qs}
        arr = np.array(values)
        return {f"p{q}": float(np.percentile(arr, q)) for q in qs}

    def queue_summary(self, top: int = 5) -> dict:
        duration = max(self.makespan_s, 1e-30)
        occupied = [q for q in self.queue_stats if q.max_occupancy > 0]
        hot = sorted(occupied, key=lambda q: (-q.max_occupancy, q.channel, q.vc))
        return {
            "queues_used": len(occupied),
            "max_occupancy": max((q.max_occupancy for q in occupied), default=0),
            "mean_occupancy": (
                float(np.mean([q.mean_occupancy(duration) for q in occupied]))
                if occupied
                else 0.0
            ),
            "hottest": [
                {
                    "channel": q.channel,
                    "vc": q.vc,
                    "max": q.max_occupancy,
                    "mean": round(q.mean_occupancy(duration), 6),
                }
                for q in hot[:top]
            ],
        }

    def summary(self) -> dict:
        fct = self.fct_percentiles()
        return {
            "status": self.status,
            "time_s": self.time,
            "events": self.events_processed,
            "events_by_kind": dict(self.events_by_kind),
            "injected": self.injected,
            "delivered": self.delivered,
            "dropped": self.dropped,
            "retransmitted": self.retransmitted,
            "lost": self.lost,
            "in_network": self.in_network,
            "flows_released": self.flows_released,
            "flows_completed": self.flows_completed,
            "bytes_delivered": self.bytes_delivered,
            "makespan_s": self.makespan_s,
            "throughput_bytes_per_s": self.throughput_bytes_per_s,
            "fct": {k: (None if math.isnan(v) else v) for k, v in fct.items()},
            "queues": self.queue_summary(),
            "faults": list(self.faults),
            "reroutes": list(self.reroutes),
            "log_hash": self.log_hash,
        }


class PacketDES:
    """Packet-level DES over one routing result.

    Parameters
    ----------
    result:
        The :class:`~repro.routing.base.RoutingResult` to forward with
        (tables + optional layer assignment for virtual lanes).
    engine:
        The :class:`~repro.routing.base.RoutingEngine` that produced it;
        required only when ``faults`` are injected (it drives the repair
        path). ``None`` forbids faults.
    link:
        :class:`LinkParams`; defaults to 100 Gb/s, 0.5 µs, 4 KiB MTU.
    buffer_packets:
        Per-``(channel, vc)`` switch-queue capacity in packets;
        ``None`` = infinite buffers (used by the differential tests).
    seed:
        Seeds the fault injector stream (and nothing else — the engine
        itself is deterministic).
    """

    def __init__(
        self,
        result: RoutingResult,
        *,
        engine: RoutingEngine | None = None,
        link: LinkParams | None = None,
        buffer_packets: int | None = 16,
        seed=None,
        retransmit_delay_s: float | None = None,
        max_retransmits: int = 16,
        p_switch_down: float = 0.0,
        record_events: bool = False,
        record_timelines: bool = False,
    ):
        if buffer_packets is not None and buffer_packets < 1:
            raise SimulationError("buffer_packets must be >= 1 (or None for infinite)")
        self.result = result
        self.engine = engine
        self.fabric = result.tables.fabric
        self.link = link if link is not None else LinkParams()
        self.buffer_packets = buffer_packets
        self.seed = seed
        self.retransmit_delay_s = (
            retransmit_delay_s
            if retransmit_delay_s is not None
            else 8 * self.link.propagation_s + self.link.serialization_s(self.link.mtu_bytes)
        )
        if self.retransmit_delay_s < 0:  # the clock never runs backwards
            raise SimulationError("retransmit_delay_s cannot be negative")
        self.max_retransmits = max_retransmits
        self.p_switch_down = p_switch_down
        self.record_events = record_events
        self.record_timelines = record_timelines

    # ------------------------------------------------------------------
    # Routing view (healthy-fabric ids throughout; translated after faults)
    # ------------------------------------------------------------------
    def _reset_routing_view(self) -> None:
        self._cur_result = self.result
        self._cur_state = None  # DegradedFabric once a fault fired
        self._node_h2c: np.ndarray | None = None  # healthy node -> current node
        self._chan_c2h: np.ndarray | None = None  # current channel -> healthy channel
        self._alive = [True] * self.fabric.num_channels
        # (queue, dst) -> next queue (None: dst is the wire's far end) in
        # the current routing frame; the event loop's only table look-up.
        self._hops: dict[tuple[QueueStats, int], QueueStats | None] = {}

    def _adopt_state(self, state) -> None:
        """Install a cumulative degradation as the current routing frame."""
        self._cur_state = state
        self._node_h2c = state.node_map
        cur = state.fabric
        c2h = np.full(cur.num_channels, -1, dtype=np.int64)
        healthy_alive = np.flatnonzero(state.channel_map >= 0)
        c2h[state.channel_map[healthy_alive]] = healthy_alive
        self._chan_c2h = c2h
        alive = np.zeros(self.fabric.num_channels, dtype=bool)
        alive[healthy_alive] = True
        # In place: the running event loop holds both objects.
        self._alive[:] = alive.tolist()
        self._hops.clear()

    def _next_hop(self, node: int, dst: int) -> int:
        """Current output channel (healthy id) at ``node`` toward ``dst``."""
        if self._cur_state is None:
            c = int(self.result.tables.next_hop(node, dst))
        else:
            cn = int(self._node_h2c[node])
            cd = int(self._node_h2c[dst])
            if cn < 0 or cd < 0:
                raise SimulationError(
                    f"node {node if cn < 0 else dst} no longer exists after faults"
                )
            c = int(self._cur_result.tables.next_hop(cn, cd))
            if c >= 0:
                c = int(self._chan_c2h[c])
        if c < 0:
            raise SimulationError(f"no route from node {node} to terminal {dst}")
        return c

    def _vc_for(self, src: int, dst: int) -> int:
        layered = self._cur_result.layered
        if layered is None:
            return 0
        if self._cur_state is None:
            return int(layered.layer_for(src, dst))
        return int(layered.layer_for(int(self._node_h2c[src]), int(self._node_h2c[dst])))

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def run(
        self,
        workload,
        horizon_s: float | None = None,
        faults: tuple[FaultSpec, ...] | list[FaultSpec] = (),
        max_events: int = 5_000_000,
    ) -> DesOutcome:
        """Simulate ``workload`` until it drains, wedges, or ``horizon_s``."""
        if horizon_s is not None and not horizon_s >= 0:  # NaN fails too
            raise SimulationError(f"horizon_s must be >= 0, got {horizon_s!r}")
        if faults and self.engine is None:
            raise SimulationError("fault injection requires the routing engine")
        self._reset_routing_view()

        fab = self.fabric
        link = self.link
        chan_dst = fab.channels.dst.tolist()
        alive, hops = self._alive, self._hops
        num_nodes = fab.num_nodes
        bandwidth, propagation = link.bandwidth_bytes_per_s, link.propagation_s
        cap = self.buffer_packets if self.buffer_packets is not None else math.inf

        # Mutable run state.
        times: list[float] = []  # heap of the distinct instants with events due later
        due: dict[float, deque] = {}  # instant -> FIFO of its (kind, payload) events
        instant: deque[tuple] = deque()  # the FIFO of the instant `t` being served
        qstats: dict[tuple[int, int], QueueStats] = {}
        stored: list[QueueStats] = []  # queues that hold(held) packets, by first store
        waiters: defaultdict[QueueStats, set] = defaultdict(set)  # full queue -> senders
        busy = [0.0] * fab.num_channels
        busy_blocked: defaultdict[int, set] = defaultdict(set)  # channel -> waiting queues
        link_packets = [0] * fab.num_channels
        timelines: dict[tuple[int, int], list] = {} if self.record_timelines else None
        flows: dict[int, _FlowState] = {}
        log: list[tuple] | None = [] if self.record_events else None
        digest = hashlib.sha256()
        records: list[str] = []  # formatted entries not yet hashed
        emit = records.append
        fault_notes: list[str] = []
        reroute_notes: list[str] = []
        latencies: list[float] = []
        occ_samples: defaultdict[int, int] = defaultdict(int)
        stats = {
            "injected": 0, "dropped": 0, "retx": 0, "lost": 0, "flows_released": 0,
            "flows_completed": 0, "first_inject": None,
        }

        reg = get_registry()
        m_inj = reg.counter("des_packets_injected", "packets entering the DES network")
        m_del = reg.counter("des_packets_delivered", "packets reaching their terminal")
        m_drop = reg.counter("des_packets_dropped", "packets lost to dead links/buffers")
        m_retx = reg.counter("des_packets_retransmitted", "source retransmissions after drops")
        m_flows = reg.counter("des_flows_completed", "flows fully delivered")
        m_events = reg.counter("des_events_processed", "DES events handled")
        m_faults = reg.counter("des_faults_injected", "fault events fired inside the DES")
        m_reroutes = reg.counter("des_reroutes", "routing recomputations triggered mid-run")
        h_fct = reg.histogram(
            "des_fct_seconds", "flow completion times", buckets=DURATION_BUCKETS
        )
        h_lat = reg.histogram(
            "des_packet_latency_seconds", "injection-to-delivery packet latency",
            buckets=DURATION_BUCKETS,
        )
        h_occ = reg.histogram(
            "des_queue_occupancy", "queue occupancy sampled at each send-time reservation",
            buckets=COUNT_BUCKETS,
        )

        def flush() -> None:
            digest.update("".join(records).encode())
            records.clear()

        def record(t: float, kind: str, *args) -> None:
            entry = (round(t, 12), kind, *args)
            emit(repr(entry))
            if log is not None:
                log.append(entry)

        def push(t: float | None, when: float, kind: int, payload) -> None:
            """Schedule at ``when`` from instant ``t`` (``None`` before the loop)."""
            if when == t:
                instant.append((kind, payload))
            elif when in due:
                due[when].append((kind, payload))
            else:
                due[when] = deque(((kind, payload),))
                heappush(times, when)

        # ------------ handlers of the rare events and branches ------------
        def queue_at(c: int, vc: int) -> QueueStats:
            q = qstats.get((c, vc))
            if q is None:
                q = qstats[c, vc] = QueueStats(channel=c, vc=vc)
            return q

        def open_queue(q: QueueStats) -> deque:
            """The first packet is about to be stored in ``q``."""
            stored.append(q)
            q._pkts = deque()
            return q._pkts

        def account(q: QueueStats, delta: int, t: float) -> None:
            """``delta`` packets enter/leave ``q`` at once: the integral
            moves on the first, the maximum on the last."""
            if timelines is not None:
                step = 1 if delta > 0 else -1
                timelines.setdefault((q.channel, q.vc), []).extend(
                    (t, q._occ + i) for i in range(step, delta + step, step)
                )
            q.change(delta, t)

        def wake(q: QueueStats) -> None:
            instant.extend((_E_TRY, w) for w in sorted(waiters.pop(q, ()), key=_queue_order))

        def inject(t: float, flow, sizes, attempts: int) -> None:
            """Queue one packet per entry of ``sizes`` at the flow's source."""
            vc = self._vc_for(flow.src, flow.dst)
            q = queue_at(self._next_hop(flow.src, flow.dst), vc)
            pkts = q._pkts if q._pkts is not None else open_queue(q)
            pkts.extend(
                _Packet(pid, flow.fid, flow.dst, nbytes, t, attempts)
                for pid, nbytes in enumerate(sizes, stats["injected"] + 1)
            )
            account(q, len(sizes), t)
            stats["injected"] += len(sizes)
            instant.append((_E_TRY, q))

        def release_flow(t: float, flow) -> None:
            if fab.term_index[flow.src] < 0 or fab.term_index[flow.dst] < 0:
                raise SimulationError(
                    f"flow {flow.fid}: ({flow.src}, {flow.dst}) references a non-terminal"
                )
            if flow.src == flow.dst:
                raise SimulationError(f"flow {flow.fid} is a self-flow")
            mtu = link.mtu_bytes
            full, rest = divmod(flow.size_bytes, mtu)
            sizes = ([mtu] * full + [rest] * (rest > 0)) or [mtu]  # an empty flow is one packet
            flows[flow.fid] = _FlowState(flow=flow, released_at=t, packets_total=len(sizes))
            stats["flows_released"] += 1
            record(t, "start", flow.fid, flow.src, flow.dst, flow.size_bytes)
            inject(t, flow, sizes, 0)
            if stats["first_inject"] is None:
                stats["first_inject"] = t

        def inject_retx(t: float, payload) -> None:
            flow, nbytes, attempts = payload
            inject(t, flow, (nbytes,), attempts)
            record(t, "retx", stats["injected"], flow.fid, attempts)

        def drop_packet(t: float, pkt: _Packet, where: int, reason: str) -> None:
            stats["dropped"] += 1
            record(t, "drop", pkt.pid, where, reason)
            state = flows[pkt.fid]
            if pkt.attempts < self.max_retransmits:
                stats["retx"] += 1
                push(
                    t, t + self.retransmit_delay_s, _E_RETX,
                    (state.flow, pkt.nbytes, pkt.attempts + 1),
                )
            else:
                state.lost += 1
                stats["lost"] += 1

        def flow_done(t: float, state: _FlowState) -> None:
            state.completed_at = t
            stats["flows_completed"] += 1
            h_fct.observe(t - state.released_at)
            record(t, "flow_done", state.flow.fid)
            for new_flow in workload.on_complete(state.flow, t):
                push(t, max(t, new_flow.start), _E_FLOW, new_flow)

        def purge_dead(t: float) -> None:
            """Drop packets buffered on dead channels; wake blocked senders.

            Queues on dead channels vanish with their link: their packets
            are dropped (and retransmitted from the source), their waiter
            registrations are discarded, and every upstream queue that was
            waiting for a credit from a dead queue is re-scheduled so its
            head packet re-resolves against the repaired tables.
            """
            dead = [q for q in stored if not alive[q.channel]]
            stored[:] = [q for q in stored if alive[q.channel]]
            for q in dead:
                wake(q)
                pkts, q._pkts = q._pkts, None
                if pkts:
                    account(q, -len(pkts), t)
                for pkt in pkts:
                    drop_packet(t, pkt, q.channel, "queued_on_dead_link")
            # A dead queue that never stored a packet (all its slots reserved
            # by packets still on the wire) can have waiters too.
            for q in [q for q in waiters if not alive[q.channel]]:
                wake(q)

        def inject_fault(t: float, spec: FaultSpec) -> None:
            from repro.resilience.events import FaultInjector, follow_fault

            if self._injector is None:
                rng = spawn_rngs(self.seed, 1)[0]
                self._injector = FaultInjector(
                    fab, seed=rng,
                    p_switch_down=self.p_switch_down, p_link_up=0.0,
                )
            injector = self._injector
            for _ in range(spec.count):
                prev = injector.current
                stepped = injector.step()
                if stepped is None:
                    fault_notes.append("exhausted: no viable fault left")
                    return
                event, cur = stepped
                detail = event.describe(fab)
                fault_notes.append(detail)
                m_faults.inc()
                record(t, "fault", detail)
                with span("des.fault", kind=event.kind, at=t):
                    self._cur_result, action = follow_fault(
                        self.engine, self._cur_result, event, prev, cur
                    )
                self._adopt_state(cur)
                m_reroutes.inc()
                reroute_notes.append(action)
                record(t, "reroute", action)
                purge_dead(t)

        rare = {_E_FLOW: release_flow, _E_RETX: inject_retx, _E_FAULT: inject_fault}

        # -------------------------- main loop --------------------------
        self._injector = None
        try:
            for flow in workload.initial():
                start = float(flow.start)
                if not 0 <= start < math.inf:
                    raise SimulationError(
                        f"flow {flow.fid} starts at {flow.start!r}, not a finite time >= 0"
                    )
                push(None, start, _E_FLOW, flow)
        except ReproError as err:
            raise SimulationError(f"workload refused to start: {err}") from err
        for spec in sorted(faults, key=lambda s: s.at_s):
            push(None, float(spec.at_s), _E_FAULT, spec)

        horizon = horizon_s if horizon_s is not None else math.inf
        events = delivered = bytes_delivered = n_instants = n_opened = 0
        by_kind = [0] * len(_KIND_NAMES)  # try is filled in as the remainder
        n_arrive = n_free = try_empty = try_busy = try_no_credit = 0
        last_delivery = 0.0
        t = 0.0
        status = "completed"
        with ExitStack() as on_exit, span(
            "des.run", engine=self.result.tables.engine,
            workload=getattr(workload, "name", type(workload).__name__),
            buffers=self.buffer_packets if self.buffer_packets is not None else "inf",
        ) as sp:
            on_exit.callback(h_lat.observe_many, latencies)  # an aborted run's too
            while True:
                if instant:
                    kind, arg = instant.popleft()
                elif times:
                    t = heappop(times)
                    if t > horizon:
                        status = "horizon"
                        t = horizon_s
                        break
                    instant = due.pop(t)
                    n_instants += 1
                    n_opened += len(instant)
                    tr = round(t, 12)
                    head = f"({tr!r}, '"
                    if len(records) >= _RECORD_CHUNK:
                        flush()
                    kind, arg = instant.popleft()
                else:
                    break
                events += 1
                if events > max_events:
                    raise SimulationError(
                        f"DES exceeded {max_events} events (runaway scenario?)"
                    )

                if kind == _E_TRY:
                    q = arg
                    pkts = q._pkts
                    if not pkts:
                        try_empty += 1
                        continue
                    c = q.channel
                    if busy[c] > t:
                        # The serializer is taken; the FREE event at busy-end
                        # re-schedules every vc-queue registered here.
                        busy_blocked[c].add(q)
                        try_busy += 1
                        continue
                    pkt = pkts[0]
                    dst = pkt.dst
                    nq = hops.get((q, dst), hops)  # `hops` itself = not cached
                    if nq is hops:
                        far = chan_dst[c]
                        nq = None if far == dst else queue_at(self._next_hop(far, dst), q.vc)
                        hops[q, dst] = nq
                    if nq is not None:
                        occ = nq._occ
                        if occ >= cap:
                            waiters[nq].add(q)
                            try_no_credit += 1
                            continue
                        nq._integral += occ * (t - nq._last_t)
                        nq._last_t = t
                        nq._occ = occ = occ + 1
                        if occ > nq.max_occupancy:
                            nq.max_occupancy = occ
                        occ_samples[occ] += 1
                        if timelines is not None:
                            timelines.setdefault((nq.channel, nq.vc), []).append((t, occ))
                    pkts.popleft()
                    occ = q._occ
                    q._integral += occ * (t - q._last_t)
                    q._last_t = t
                    q._occ = occ - 1
                    if timelines is not None:
                        timelines.setdefault((c, q.vc), []).append((t, occ - 1))
                    if q in waiters:
                        wake(q)
                    pkt.hops += 1
                    if pkt.hops > num_nodes:
                        raise SimulationError(
                            f"packet {pkt.pid} exceeded {num_nodes} hops toward terminal "
                            f"{dst}: cyclic forwarding tables"
                        )
                    done = t + pkt.nbytes / bandwidth
                    busy[c] = done
                    link_packets[c] += 1
                    emit(f"{head}send', {pkt.pid!r}, {c!r})")
                    if log is not None:
                        log.append((tr, "send", pkt.pid, c))
                    busy_blocked[c].add(q)
                    if done > t:  # push() inlined: both are due later
                        when = done + propagation
                        if when in due:
                            due[when].append((_E_ARRIVE, (pkt, c, nq)))
                        else:
                            due[when] = deque(((_E_ARRIVE, (pkt, c, nq)),))
                            heappush(times, when)
                        if done in due:
                            due[done].append((_E_FREE, c))
                        else:
                            due[done] = deque(((_E_FREE, c),))
                            heappush(times, done)
                    else:  # a serialization too short to move the clock
                        push(t, done + propagation, _E_ARRIVE, (pkt, c, nq))
                        push(t, done, _E_FREE, c)

                elif kind == _E_ARRIVE:
                    n_arrive += 1
                    pkt, c, nq = arg
                    if not alive[c]:
                        # The wire died while the packet was on it.
                        if nq is not None and alive[nq.channel]:
                            account(nq, -1, t)  # release the reserved slot
                            wake(nq)
                        drop_packet(t, pkt, c, "link_died_in_flight")
                        continue
                    emit(f"{head}arrive', {pkt.pid!r}, {c!r})")
                    if log is not None:
                        log.append((tr, "arrive", pkt.pid, c))
                    if nq is None:
                        delivered += 1
                        bytes_delivered += pkt.nbytes
                        last_delivery = t
                        latencies.append(t - pkt.born)
                        emit(f"{head}deliver', {pkt.pid!r}, {pkt.fid!r})")
                        if log is not None:
                            log.append((tr, "deliver", pkt.pid, pkt.fid))
                        state = flows[pkt.fid]
                        state.delivered += 1
                        if state.delivered == state.packets_total:
                            flow_done(t, state)
                        continue
                    if not alive[nq.channel]:
                        # The reserved next hop died after the send decision:
                        # re-resolve against the repaired tables.
                        dead = nq.channel
                        try:
                            nq = queue_at(self._next_hop(chan_dst[c], pkt.dst), nq.vc)
                        except SimulationError:
                            drop_packet(t, pkt, dead, "no_route_after_fault")
                            continue
                        if nq._occ >= cap:
                            drop_packet(t, pkt, nq.channel, "no_buffer_after_reroute")
                            continue
                        account(nq, +1, t)
                    pkts = nq._pkts
                    if pkts is None:
                        pkts = open_queue(nq)
                    pkts.append(pkt)
                    instant.append((_E_TRY, nq))

                elif kind == _E_FREE:
                    # Wake every vc-queue that found the serializer busy. The
                    # wake order rotates with the channel's send count so no
                    # virtual lane starves under saturation (round-robin
                    # arbitration over the lanes).
                    n_free += 1
                    blocked = busy_blocked.pop(arg, ())
                    if len(blocked) > 1:
                        blocked = sorted(blocked, key=_queue_order)
                        rot = link_packets[arg] % len(blocked)
                        blocked = blocked[rot:] + blocked[:rot]
                    for w in blocked:
                        instant.append((_E_TRY, w))

                else:
                    by_kind[kind] += 1
                    rare[kind](t, arg)
            flush()

            in_network = stats["injected"] - delivered - stats["dropped"]
            if status != "horizon":
                if in_network > 0:
                    status = "deadlock"
                elif stats["flows_completed"] < stats["flows_released"]:
                    status = "incomplete"
            by_kind[_E_ARRIVE], by_kind[_E_FREE] = n_arrive, n_free
            by_kind[_E_TRY] = events - sum(by_kind)
            events_by_kind = dict(zip(_KIND_NAMES, by_kind))
            events_by_kind.update(
                try_sent=by_kind[_E_TRY] - try_empty - try_busy - try_no_credit,
                try_empty=try_empty, try_busy=try_busy, try_no_credit=try_no_credit,
            )
            sp.set_attr("status", status)
            sp.set_attr("events", events)
            sp.set_attr("instants", n_instants)  # calendar pops
            # the other n_opened events were waiting when their instant opened
            sp.set_attr("events_instant", events - n_opened)
            for name, n in events_by_kind.items():
                sp.set_attr(f"events_{name}", n)

        # One registry update per metric per run, not one per packet.
        m_inj.inc(stats["injected"])
        m_del.inc(delivered)
        m_drop.inc(stats["dropped"])
        m_retx.inc(stats["retx"])
        m_flows.inc(stats["flows_completed"])
        m_events.inc(events)
        for occ, n in occ_samples.items():
            h_occ.observe(occ, n)

        for q in qstats.values():
            q.change(0, t)
        first = stats["first_inject"]
        makespan = (
            last_delivery - first if first is not None and last_delivery > first else 0.0
        )
        return DesOutcome(
            status=status,
            time=t,
            events_processed=events,
            injected=stats["injected"],
            delivered=delivered,
            dropped=stats["dropped"],
            retransmitted=stats["retx"],
            lost=stats["lost"],
            in_network=in_network,
            flows_released=stats["flows_released"],
            flows_completed=stats["flows_completed"],
            bytes_delivered=bytes_delivered,
            makespan_s=makespan,
            fct_seconds={
                fid: st.completed_at - st.released_at
                for fid, st in flows.items()
                if st.completed_at is not None
            },
            packet_latency_s=latencies,
            link_packets=np.array(link_packets, dtype=np.int64),
            queue_stats=sorted(qstats.values(), key=_queue_order),
            faults=fault_notes,
            reroutes=reroute_notes,
            log=log,
            log_hash=digest.hexdigest(),
            timelines=timelines,
            events_by_kind=events_by_kind,
            waitfor_cycle=_waitfor_cycle(stored, hops, cap) if status == "deadlock" else [],
        )


def _waitfor_cycle(stored: list[QueueStats], hops: dict, cap: float) -> list[tuple[int, int]]:
    """A cycle of credit waits in a wedged run, or ``[]``: a queue waits on
    the queue its head packet needs next (the run's next-hop cache) only
    while that one is full, and a cycle of full queues never frees a slot."""
    waits = {}
    for q in stored:
        if q._pkts:
            nq = hops.get((q, q._pkts[0].dst))
            if nq is not None and nq._occ >= cap:
                waits[q] = nq
    seen: set[QueueStats] = set()
    for q in list(waits):
        trail: list[QueueStats] = []
        while q in waits and q not in seen:
            seen.add(q)
            trail.append(q)
            q = waits[q]
        if q in trail:  # the walk closed on itself
            return [(w.channel, w.vc) for w in trail[trail.index(q):]]
    return []
