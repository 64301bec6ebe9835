"""PacketDES engine behaviour: parameters, conservation, deadlock, faults.

The headline test is the paper's Figure 2 scenario replayed at packet
level: the clockwise 2-hop-shift pattern on a 5-switch ring wedges into
a circular credit wait under SSSP (single lane) and always drains under
DFSSSP (two virtual lanes) — the DES reports ``"deadlock"`` for one and
``"completed"`` for the other on identical traffic.
"""

import hashlib
import json
from bisect import bisect_left
from collections import Counter
from pathlib import Path

import pytest

from repro import topologies
from repro.des import (
    FaultSpec,
    LinkParams,
    PacketDES,
    UniformPairsWorkload,
    build_scenario_fabric,
    make_workload,
    normalize_scenario,
)
from repro.des.engine import _RECORD_CHUNK
from repro.des.workloads import Workload
from repro.exceptions import SimulationError
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.resilience.events import FaultInjector
from repro.routing.registry import ENGINES
from repro.utils.prng import spawn_rngs


class ShiftWorkload(Workload):
    """Rank *i* sends one large flow to rank *i+shift* (mod P)."""

    name = "shift"

    def __init__(self, fabric, shift=2, size_bytes=1 << 20):
        super().__init__()
        self.terms = [int(t) for t in fabric.terminals]
        self.shift = shift
        self.size_bytes = size_bytes

    def initial(self):
        n = len(self.terms)
        return [
            self._flow(
                self.terms[i], self.terms[(i + self.shift) % n],
                self.size_bytes, 0.0, "shift",
            )
            for i in range(n)
        ]


class OneFlow(Workload):
    name = "one_flow"

    def __init__(self, src, dst, size_bytes=1024):
        super().__init__()
        self.src, self.dst, self.size_bytes = src, dst, size_bytes

    def initial(self):
        return [self._flow(self.src, self.dst, self.size_bytes, 0.0)]


# ---------------------------------------------------------------------------
# Parameter validation
# ---------------------------------------------------------------------------
def test_link_params_serialization():
    link = LinkParams(bandwidth_bytes_per_s=1e9, propagation_s=1e-6, mtu_bytes=1000)
    assert link.serialization_s(1000) == pytest.approx(1e-6)
    assert link.serialization_s(500) == pytest.approx(5e-7)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"bandwidth_bytes_per_s": 0.0},
        {"bandwidth_bytes_per_s": -1.0},
        {"propagation_s": -1e-9},
        {"mtu_bytes": 0},
    ],
)
def test_link_params_rejects_nonsense(kwargs):
    with pytest.raises(SimulationError):
        LinkParams(**kwargs)


def test_buffer_packets_must_be_positive(routed):
    _, result = routed("ring52", "dfsssp")
    with pytest.raises(SimulationError, match="buffer_packets"):
        PacketDES(result, buffer_packets=0)


# ---------------------------------------------------------------------------
# Basic runs: completion, conservation, accounting
# ---------------------------------------------------------------------------
def test_completed_run_conserves_packets_and_bytes(routed):
    fabric, result = routed("ring52", "dfsssp")
    link = LinkParams()
    size = 3 * link.mtu_bytes
    out = PacketDES(result, link=link, buffer_packets=4).run(
        UniformPairsWorkload(fabric, size_bytes=size)
    )
    pairs = len(fabric.terminals) * (len(fabric.terminals) - 1)
    assert out.status == "completed"
    assert out.flows_released == out.flows_completed == pairs
    assert out.injected == out.delivered == 3 * pairs
    assert out.dropped == out.lost == out.in_network == 0
    assert out.bytes_delivered == size * pairs
    assert out.makespan_s > 0
    assert out.throughput_bytes_per_s > 0
    assert len(out.fct_seconds) == pairs
    fct = out.fct_percentiles()
    assert 0 < fct["p50"] <= fct["p99"] <= fct["p100"]


def test_finite_buffers_never_exceed_capacity_on_switch_queues(routed):
    fabric, result = routed("ring52", "dfsssp")
    cap = 2
    out = PacketDES(result, buffer_packets=cap).run(
        UniformPairsWorkload(fabric, size_bytes=8 * LinkParams().mtu_bytes)
    )
    assert out.status == "completed"
    for q in out.queue_stats:
        src_node = int(fabric.channels.src[q.channel])
        if fabric.term_index[src_node] < 0:  # switch output queue
            assert q.max_occupancy <= cap
    summary = out.queue_summary()
    assert summary["queues_used"] > 0
    assert summary["hottest"]


def test_horizon_cuts_the_run_short(routed):
    fabric, result = routed("ring52", "dfsssp")
    out = PacketDES(result, buffer_packets=4).run(
        UniformPairsWorkload(fabric, size_bytes=1 << 16), horizon_s=1e-9
    )
    assert out.status == "horizon"
    assert out.flows_completed < out.flows_released
    assert out.injected == out.delivered + out.dropped + out.in_network


def test_max_events_is_a_hard_stop(routed):
    fabric, result = routed("ring52", "dfsssp")
    with pytest.raises(SimulationError, match="event"):
        PacketDES(result, buffer_packets=4).run(
            UniformPairsWorkload(fabric, size_bytes=1 << 16), max_events=10
        )


# ---------------------------------------------------------------------------
# Figure 2 at packet level
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("buffers", [1, 4])
def test_ring_shift_deadlocks_sssp_but_not_dfsssp(buffers):
    fabric = topologies.ring(5, terminals_per_switch=1)
    sssp = ENGINES["sssp"]().route(fabric)
    dfsssp = ENGINES["dfsssp"]().route(fabric)

    wedged = PacketDES(sssp, buffer_packets=buffers).run(ShiftWorkload(fabric))
    assert wedged.status == "deadlock"
    assert wedged.in_network > 0
    # Conservation holds even mid-wedge.
    assert wedged.injected == wedged.delivered + wedged.dropped + wedged.in_network

    drained = PacketDES(dfsssp, buffer_packets=buffers).run(ShiftWorkload(fabric))
    assert drained.status == "completed"
    assert drained.delivered == drained.injected


# ---------------------------------------------------------------------------
# Faults
# ---------------------------------------------------------------------------
def test_faults_require_the_routing_engine(routed):
    fabric, result = routed("xgft442", "dfsssp")
    with pytest.raises(SimulationError, match="engine"):
        PacketDES(result).run(
            UniformPairsWorkload(fabric), faults=[FaultSpec(at_s=1e-6)]
        )


def test_link_fault_mid_collective_reroutes_and_completes(routed):
    fabric, result = routed("xgft442", "dfsssp")
    des = PacketDES(result, engine=ENGINES["dfsssp"](), buffer_packets=16, seed=7)
    out = des.run(
        make_workload("ring_allreduce", fabric, size_bytes=1 << 20),
        faults=[FaultSpec(at_s=2e-5)],
    )
    assert out.status == "completed"
    assert out.faults and "link_down" in out.faults[0]
    assert out.reroutes
    assert out.lost == 0
    assert out.flows_completed == out.flows_released
    assert out.in_network == 0
    assert out.injected == out.delivered + out.dropped
    # Any packet caught on the dead wire was retransmitted, not lost.
    assert out.retransmitted == out.dropped


def test_switch_fault_keeps_conservation(routed):
    fabric, result = routed("xgft442", "dfsssp")
    des = PacketDES(
        result, engine=ENGINES["dfsssp"](), buffer_packets=16, seed=3,
        p_switch_down=1.0,
    )
    out = des.run(
        make_workload("mice", fabric, count=40, size_bytes=2048, window_s=2e-5),
        faults=[FaultSpec(at_s=1e-5)],
    )
    assert out.faults
    assert out.status in {"completed", "incomplete"}
    assert out.in_network == 0
    assert out.injected == out.delivered + out.dropped


def test_purge_extends_the_occupancy_timeline_of_a_dead_queue():
    """A fault that drops queued packets must show in the queue's timeline.

    The fabric, engine, buffers, seed and fault time are those of
    ``examples/des_allreduce_fault.json``; its ring all-reduce never queues
    on the cable seed 7 kills, so the traffic here is the congesting
    all-pairs pattern.
    """
    example = Path(__file__).parents[2] / "examples" / "des_allreduce_fault.json"
    spec = normalize_scenario(json.loads(example.read_text()))
    fabric = build_scenario_fabric(spec["topology"])
    engine = ENGINES[spec["engines"][0]]()
    des = PacketDES(
        engine.route(fabric), engine=engine, buffer_packets=spec["buffer_packets"],
        seed=spec["seed"], record_events=True, record_timelines=True,
    )
    out = des.run(
        UniformPairsWorkload(fabric, size_bytes=16384),
        faults=[FaultSpec(**f) for f in spec["faults"]],
    )
    assert any(e[1] == "drop" and e[4] == "queued_on_dead_link" for e in out.log), (
        "the fault found no queued packet: the test lost its subject"
    )
    for q in out.queue_stats:
        timeline = out.timelines[q.channel, q.vc]
        assert timeline[-1][1] == q.occupancy, (q.channel, q.vc)
        steps = [b[1] - a[1] for a, b in zip([(0.0, 0)] + timeline, timeline)]
        assert set(steps) <= {-1, 1}, (q.channel, q.vc)


def _dead_channels(fabric, seed, p_switch_down):
    """Healthy ids of the channels the DES's first fault event kills."""
    injector = FaultInjector(
        fabric, seed=spawn_rngs(seed, 1)[0], p_switch_down=p_switch_down, p_link_up=0.0
    )
    _, degraded = injector.step()
    return {c for c, m in enumerate(degraded.channel_map.tolist()) if m < 0}


@pytest.mark.parametrize("buffers", [4, None])
@pytest.mark.parametrize("p_switch_down", [0.0, 1.0])
def test_next_hop_cache_dies_with_the_routing_frame(routed, buffers, p_switch_down):
    fabric, result = routed("xgft442", "dfsssp")
    seed = 7
    des = PacketDES(
        result, engine=ENGINES["dfsssp"](), buffer_packets=buffers, seed=seed,
        p_switch_down=p_switch_down, record_events=True,
    )
    out = des.run(
        UniformPairsWorkload(fabric, size_bytes=16384), faults=[FaultSpec(at_s=1e-5)]
    )
    dead = _dead_channels(fabric, seed, p_switch_down)
    rerouted = next(i for i, e in enumerate(out.log) if e[1] == "reroute")
    before = {e[3] for e in out.log[:rerouted] if e[1] == "send"}
    after = {e[3] for e in out.log[rerouted:] if e[1] == "send"}
    # The cache had learnt hops onto the doomed channels ...
    assert before & dead
    # ... and none of them survives the reroute.
    assert not after & dead
    assert after  # traffic kept flowing over the repaired tables


# ---------------------------------------------------------------------------
# Workload sanity enforced at release time
# ---------------------------------------------------------------------------
def test_self_flow_is_rejected(routed):
    fabric, result = routed("ring52", "dfsssp")
    t0 = int(fabric.terminals[0])
    with pytest.raises(SimulationError, match="self-flow"):
        PacketDES(result).run(OneFlow(t0, t0))


def test_non_terminal_endpoint_is_rejected(routed):
    fabric, result = routed("ring52", "dfsssp")
    t0 = int(fabric.terminals[0])
    switch = int(fabric.channels.src[0]) if fabric.term_index[0] < 0 else 0
    assert fabric.term_index[switch] < 0
    with pytest.raises(SimulationError, match="non-terminal"):
        PacketDES(result).run(OneFlow(t0, switch))


# ---------------------------------------------------------------------------
# Event log
# ---------------------------------------------------------------------------
def test_event_log_recording_is_optional_but_hash_is_not(routed):
    fabric, result = routed("ring52", "dfsssp")
    wl = lambda: UniformPairsWorkload(fabric, size_bytes=4096)  # noqa: E731

    bare = PacketDES(result, buffer_packets=4).run(wl())
    assert bare.log is None
    assert bare.log_hash

    full = PacketDES(result, buffer_packets=4, record_events=True).run(wl())
    assert full.log
    assert full.log[0][1] == "start"
    kinds = {entry[1] for entry in full.log}
    assert {"start", "send", "arrive", "deliver", "flow_done"} <= kinds
    # Recording must not perturb the simulation.
    assert full.log_hash == bare.log_hash


def _digest_of(log) -> str:
    return hashlib.sha256("".join(repr(e) for e in log).encode()).hexdigest()


@pytest.mark.parametrize("how", ["completed", "horizon", "fault"])
def test_log_hash_is_a_digest_of_the_log_however_it_is_chunked(routed, how):
    fabric, result = routed("xgft442", "dfsssp")
    des = PacketDES(
        result, engine=ENGINES["dfsssp"](), buffer_packets=8, seed=7, record_events=True
    )
    out = des.run(
        UniformPairsWorkload(fabric, size_bytes=16384),
        horizon_s=3e-5 if how == "horizon" else None,
        faults=[FaultSpec(at_s=1e-5)] if how == "fault" else (),
    )
    assert out.status == how.replace("fault", "completed")
    # Long enough that a chunk was hashed mid-run and the rest at the exit.
    assert len(out.log) > _RECORD_CHUNK
    assert out.log_hash == _digest_of(out.log)


# ---------------------------------------------------------------------------
# Metrics and the per-kind event breakdown
# ---------------------------------------------------------------------------
def _run_in_fresh_registry(routed, faults=()):
    fabric, result = routed("xgft442", "sssp")  # one lane: a queue is its channel
    registry = MetricsRegistry()
    previous = set_registry(registry)
    try:
        out = PacketDES(
            result, engine=ENGINES["sssp"](), buffer_packets=4, seed=7, record_events=True
        ).run(UniformPairsWorkload(fabric, size_bytes=16384), faults=faults)
    finally:
        set_registry(previous)
    assert out.status == "completed"
    return fabric, result, registry, out


@pytest.mark.parametrize("faults", [(), (FaultSpec(at_s=1e-5),)], ids=["healthy", "fault"])
def test_counters_and_event_breakdown_match_the_outcome_and_the_log(routed, faults):
    _, _, registry, out = _run_in_fresh_registry(routed, faults)
    kinds = Counter(e[1] for e in out.log)
    injected = kinds["start"] * 4 + kinds["retx"]  # 16 KiB flows of 4 KiB packets
    assert registry.value("des_packets_injected") == out.injected == injected
    assert registry.value("des_packets_delivered") == out.delivered == kinds["deliver"]
    assert registry.value("des_packets_dropped") == out.dropped == kinds["drop"]
    assert registry.value("des_packets_retransmitted") == out.retransmitted
    assert registry.value("des_flows_completed") == out.flows_completed == kinds["flow_done"]
    assert registry.value("des_events_processed") == out.events_processed

    by_kind = out.events_by_kind
    event_kinds = ("try", "arrive", "free", "flow", "retx", "fault")
    assert sum(by_kind[k] for k in event_kinds) == out.events_processed
    assert by_kind["try"] == sum(
        by_kind[k] for k in ("try_sent", "try_empty", "try_busy", "try_no_credit")
    )
    assert by_kind["try_sent"] == kinds["send"] == int(out.link_packets.sum())
    assert by_kind["arrive"] == by_kind["free"] == kinds["send"]  # the run drained
    assert by_kind["flow"] == out.flows_released
    assert by_kind["retx"] == kinds["retx"]
    assert by_kind["fault"] == len(faults)
    assert by_kind["try_no_credit"] > 0  # 4-packet buffers under all-pairs traffic


def test_queue_occupancy_histogram_equals_the_per_reservation_samples(routed):
    """``des_queue_occupancy`` is flushed once per run from a per-value
    tally; replaying the log against the tables gives every sample."""
    fabric, result, registry, out = _run_in_fresh_registry(routed)
    chan_dst = fabric.channels.dst.tolist()
    dst_of, occ, samples = {}, Counter(), []
    for _t, kind, *args in out.log:
        if kind == "start":
            _fid, src, dst, size = args
            packets = size // LinkParams().mtu_bytes
            first = len(dst_of) + 1  # packet ids count up in release order
            dst_of.update((first + i, dst) for i in range(packets))
            occ[result.tables.next_hop(src, dst)] += packets
        elif kind == "send":
            pid, c = args
            if chan_dst[c] != dst_of[pid]:  # not the last hop: a slot was reserved
                nxt = result.tables.next_hop(chan_dst[c], dst_of[pid])
                occ[nxt] += 1
                samples.append(occ[nxt])
            occ[c] -= 1
    assert not +occ  # every queue drained

    hist = registry.get("des_queue_occupancy")
    assert (hist.count, hist.sum) == (len(samples), sum(samples))
    assert (hist.minimum, hist.maximum) == (min(samples), max(samples)) == (1, 4)
    per_bucket = Counter(bisect_left(hist.buckets, v) for v in samples)
    expected, acc = [], 0
    for i, le in enumerate(hist.buckets):
        acc += per_bucket[i]
        expected.append((le, acc))
    assert hist.cumulative_buckets() == expected
