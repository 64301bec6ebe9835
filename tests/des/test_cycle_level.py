"""The DES at cycle level: closed-loop drains and the open-loop saturation sweep.

On :func:`repro.des.cycle_link` one time unit is one flit serialisation
(bandwidth 1, no propagation delay, MTU = the packet length), so
``DesOutcome.time`` and every FCT are cycle counts. :func:`run_pattern`
sends a fixed number of packets per pattern pair and runs until the
network drains or wedges; :func:`saturation_sweep` drives Bernoulli
sources and reads throughput and latency off the flows completed after
the warm-up.
"""

import pytest

from repro.core import DFSSSPEngine
from repro.des import (
    BernoulliWorkload,
    PacketDES,
    PatternWorkload,
    cycle_link,
    run_pattern,
    saturation_point,
    saturation_sweep,
)
from repro.exceptions import SimulationError
from repro.routing import MinHopEngine
from repro.routing.base import RoutingResult, RoutingTables
from repro.simulator import bisection_pattern, permutation_pattern, shift_pattern


# ---------------------------------------------------------------------------
# Closed loop: run_pattern
# ---------------------------------------------------------------------------
def test_one_packet_crosses_exactly_its_route(ring5, dfsssp_ring5):
    src, dst = (int(t) for t in ring5.terminals[[0, 2]])
    route = dfsssp_ring5.tables.path_channels(src, dst)
    out = run_pattern(dfsssp_ring5, [(src, dst)], buffers=1, packet_length=3)
    assert out.status == "completed"
    assert sorted(out.link_packets.nonzero()[0].tolist()) == sorted(route)
    # Store-and-forward: each hop serialises the whole 3-flit packet.
    assert out.fct_seconds == {1: 3.0 * len(route)}


def test_packet_route_spans_terminal_to_terminal(ring5, sssp_ring5):
    src, dst = (int(t) for t in ring5.terminals[[0, 2]])
    route = sssp_ring5.tables.path_channels(src, dst)
    chan = ring5.channels
    assert int(chan.src[route[0]]) == src
    assert int(chan.dst[route[-1]]) == dst
    # Consecutive channels chain head-to-tail.
    for a, b in zip(route, route[1:]):
        assert int(chan.dst[a]) == int(chan.src[b])
    out = run_pattern(sssp_ring5, [(src, dst)], buffers=1, packets_per_flow=2)
    assert out.link_packets[route].tolist() == [2] * len(route)
    assert int(out.link_packets.sum()) == 2 * len(route)


def test_injection_serialises_and_switch_queues_respect_depth(ring5, dfsssp_ring5):
    src, dst = (int(t) for t in ring5.terminals[[0, 2]])
    route = dfsssp_ring5.tables.path_channels(src, dst)
    out = run_pattern(dfsssp_ring5, [(src, dst)], buffers=1, packets_per_flow=4, packet_length=3)
    assert out.status == "completed"
    # The NIC starts one 3-flit packet per 3 cycles, so the four packets
    # pipeline: the last leaves at cycle 9 and needs len(route) hops more.
    assert out.time == 3 * (4 - 1 + len(route))
    occupancy = {}
    for q in out.queue_stats:
        occupancy[q.channel] = max(occupancy.get(q.channel, 0), q.max_occupancy)
    assert occupancy[route[0]] == 4  # the NIC queue is unbounded
    assert all(occupancy[c] == 1 for c in route[1:])  # switch queues hold one


def test_full_downstream_queue_stalls_the_head(ring5, dfsssp_ring5):
    pattern = shift_pattern(ring5, 2)
    tight = run_pattern(dfsssp_ring5, pattern, buffers=1, packets_per_flow=8)
    loose = run_pattern(dfsssp_ring5, pattern, buffers=None, packets_per_flow=8)
    assert tight.status == loose.status == "completed"
    # One-packet buffers: some heads find the next queue full and wait for
    # its credit instead of moving; unbounded buffers never do.
    assert tight.events_by_kind["try_no_credit"] > 0
    assert loose.events_by_kind["try_no_credit"] == 0
    for q in tight.queue_stats:
        if ring5.term_index[int(ring5.channels.src[q.channel])] < 0:  # switch output queue
            assert q.max_occupancy <= 1


def test_missing_table_entry_is_a_named_error(ring5, sssp_ring5):
    src, dst = (int(t) for t in ring5.terminals[:2])
    blank = sssp_ring5.tables.next_channel.copy()
    blank[src, :] = -1
    broken = RoutingResult(tables=RoutingTables(ring5, blank, engine="broken"))
    with pytest.raises(SimulationError, match="no route"):
        run_pattern(broken, [(src, dst)], buffers=1)


def test_dfsssp_breaks_the_deadlock(ring5, dfsssp_ring5):
    out = run_pattern(dfsssp_ring5, shift_pattern(ring5, 2), buffers=1, packets_per_flow=8)
    assert out.status == "completed"
    assert out.delivered == 40
    assert out.in_network == 0


def test_tree_traffic_always_delivers(ktree42):
    result = MinHopEngine().route(ktree42)
    pattern = bisection_pattern(ktree42, seed=0)
    out = run_pattern(result, pattern, buffers=2, packets_per_flow=4)
    assert out.status == "completed"
    assert out.delivered == 4 * len(pattern)


def test_dfsssp_heavy_random_traffic_no_deadlock(random16, dfsssp_random16):
    for seed in range(3):
        pattern = bisection_pattern(random16, seed=seed, bidirectional=True)
        out = run_pattern(dfsssp_random16, pattern, buffers=1, packets_per_flow=6)
        assert out.status == "completed", f"seed {seed}: {out.status}"


def test_delivered_counts_conserved(ring5, sssp_ring5, ktree42):
    result = MinHopEngine().route(ktree42)
    pattern = bisection_pattern(ktree42, seed=1)
    out = run_pattern(result, pattern, buffers=2, packets_per_flow=3)
    assert out.injected == out.delivered + out.in_network == 3 * len(pattern)
    wedged = run_pattern(sssp_ring5, shift_pattern(ring5, 2), buffers=2, packets_per_flow=8)
    assert wedged.injected == wedged.delivered + wedged.in_network == 40
    assert wedged.in_network > 0


def test_horizon_ends_a_cycle_level_run(ring5, sssp_ring5):
    des = PacketDES(sssp_ring5, link=cycle_link(), buffer_packets=4)
    out = des.run(PatternWorkload(shift_pattern(ring5, 1), 50), horizon_s=3)
    assert out.status == "horizon"
    assert out.time == 3


def test_invalid_parameters(ring5, sssp_ring5):
    pattern = shift_pattern(ring5, 2)
    with pytest.raises(SimulationError, match="buffer_packets"):
        run_pattern(sssp_ring5, pattern, buffers=0)
    with pytest.raises(SimulationError, match="packets_per_flow"):
        run_pattern(sssp_ring5, pattern, buffers=1, packets_per_flow=0)
    with pytest.raises(SimulationError, match="mtu"):
        run_pattern(sssp_ring5, pattern, buffers=1, packet_length=0)


def test_des_validates_buffer_depth_and_packet_length(sssp_ring5):
    with pytest.raises(SimulationError, match="buffer_packets"):
        PacketDES(sssp_ring5, link=cycle_link(), buffer_packets=0)
    with pytest.raises(SimulationError, match="mtu"):
        PacketDES(sssp_ring5, link=cycle_link(0), buffer_packets=1)


def test_closed_and_open_loop_still_work(ring5, sssp_ring5, dfsssp_ring5):
    shift2 = shift_pattern(ring5, 2)
    wedged = run_pattern(sssp_ring5, shift2, buffers=1)
    assert wedged.status == "deadlock"
    assert wedged.waitfor_cycle
    assert run_pattern(dfsssp_ring5, shift2, buffers=1).status == "completed"
    (open_loop,) = saturation_sweep(
        dfsssp_ring5, shift2, [0.2], buffers=1, warmup=50, measure=150, seed=1
    )
    assert not open_loop.deadlocked
    assert open_loop.delivered_rate > 0


def test_throughput_improves_with_buffers(ring5):
    """More buffering -> same delivery in fewer or equal cycles."""
    result = DFSSSPEngine().route(ring5)
    pattern = shift_pattern(ring5, 1)
    shallow = run_pattern(result, pattern, buffers=1, packets_per_flow=10)
    deep = run_pattern(result, pattern, buffers=4, packets_per_flow=10)
    assert shallow.status == deep.status == "completed"
    assert deep.time <= shallow.time


class TestPacketLength:
    """Multi-flit packets: serialization latency and correct deadlock calls."""

    def test_longer_packets_take_longer(self, ring5, dfsssp_ring5):
        pattern = shift_pattern(ring5, 1)
        short = run_pattern(dfsssp_ring5, pattern, buffers=2, packets_per_flow=6)
        long = run_pattern(dfsssp_ring5, pattern, buffers=2, packets_per_flow=6, packet_length=4)
        assert short.status == long.status == "completed"
        assert long.time > short.time

    def test_serialization_roughly_linear(self, ring5, dfsssp_ring5):
        pattern = shift_pattern(ring5, 1)
        times = {
            length: run_pattern(
                dfsssp_ring5, pattern, buffers=2, packets_per_flow=8, packet_length=length
            ).time
            for length in (1, 2, 4)
        }
        assert times[4] >= 2 * times[1] * 0.8

    def test_invalid_length_rejected(self, ring5, dfsssp_ring5):
        for length in (0, -1):
            with pytest.raises(SimulationError, match="mtu"):
                run_pattern(dfsssp_ring5, shift_pattern(ring5, 1), buffers=1, packet_length=length)
            with pytest.raises(SimulationError, match="mtu"):
                saturation_sweep(dfsssp_ring5, shift_pattern(ring5, 1), [0.5], packet_length=length)

    def test_transient_serialization_stall_is_not_deadlock(self, ring5, dfsssp_ring5):
        # Long packets on one-packet buffers spend most cycles serialising;
        # that is a stall, never a deadlock.
        out = run_pattern(
            dfsssp_ring5, shift_pattern(ring5, 2), buffers=1, packets_per_flow=4, packet_length=8
        )
        assert out.status == "completed"


# ---------------------------------------------------------------------------
# Open loop: BernoulliWorkload + saturation_sweep
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def pattern(random16):
    return permutation_pattern(random16, seed=1)


def _sweep(result, pattern, rates, **kw):
    return saturation_sweep(result, pattern, rates, **{"warmup": 50, "measure": 250, **kw})


def test_low_load_fully_accepted(dfsssp_random16, pattern):
    (r,) = _sweep(dfsssp_random16, pattern, [0.05], seed=0)
    assert not r.deadlocked
    assert r.accepted_fraction > 0.85
    assert r.mean_latency >= 2.0  # at least inject + eject
    assert r.cycles == 300


def test_throughput_monotone_then_saturates(dfsssp_random16, pattern):
    results = _sweep(dfsssp_random16, pattern, [0.1, 0.4, 0.9], seed=0)
    assert results[1].delivered_rate >= results[0].delivered_rate
    # At 0.9 offered, acceptance is partial (finite network capacity).
    assert results[2].delivered_rate <= 0.9 + 1e-9


def test_latency_rises_with_load(dfsssp_random16, pattern):
    lo, hi = _sweep(dfsssp_random16, pattern, [0.05, 0.8], seed=0)
    assert hi.mean_latency >= lo.mean_latency


def test_saturation_point_extraction(dfsssp_random16, pattern):
    results = _sweep(dfsssp_random16, pattern, [0.05, 0.2, 0.9], seed=0)
    assert saturation_point(results) >= 0.05


def test_deadlock_prone_routing_detected(ring5, sssp_ring5):
    (r,) = saturation_sweep(
        sssp_ring5, shift_pattern(ring5, 2), [0.9], buffers=1, warmup=50, measure=200, seed=0
    )
    assert r.deadlocked
    assert saturation_point([r]) == 0.0


def test_deadlock_free_routing_survives_ring(ring5, dfsssp_ring5):
    (r,) = saturation_sweep(
        dfsssp_ring5, shift_pattern(ring5, 2), [0.9], buffers=1, warmup=100, measure=300, seed=0
    )
    assert not r.deadlocked
    assert r.delivered_rate > 0.1


def test_bad_rate_rejected(dfsssp_random16, pattern):
    for rate in (0.0, 1.5):
        with pytest.raises(SimulationError, match="rate"):
            saturation_sweep(dfsssp_random16, pattern, [rate])
        with pytest.raises(SimulationError, match="rate"):
            BernoulliWorkload(pattern, rate, cycles=10)


def test_reproducible_with_seed(dfsssp_random16, pattern):
    a = _sweep(dfsssp_random16, pattern, [0.3], measure=100, seed=9)
    b = _sweep(dfsssp_random16, pattern, [0.3], measure=100, seed=9)
    assert a == b


def test_bernoulli_sources_round_robin_at_integer_cycles(pattern):
    wl = BernoulliWorkload(pattern + [(pattern[0][0], pattern[1][0])], 1.0, cycles=4)
    assert len(wl.sources) == len(pattern)
    assert {f.start for f in wl.flows} == {1.0, 2.0, 3.0, 4.0}
    first = [f.dst for f in wl.flows if f.src == pattern[0][0]]
    assert first == [pattern[0][1], pattern[1][0]] * 2
    assert wl.initial() is wl.flows  # one schedule, fixed at construction


def test_zero_demand_sweep_degenerates_gracefully(dfsssp_ring5):
    sweep = saturation_sweep(dfsssp_ring5, [], [0.1, 0.5])
    assert [r.offered_rate for r in sweep] == [0.1, 0.5]
    assert all(r.delivered_rate == r.mean_latency == r.cycles == 0 for r in sweep)
    assert not any(r.deadlocked for r in sweep)
    assert sweep[0].accepted_fraction == 0.0
    assert saturation_point(sweep) == 0.0
