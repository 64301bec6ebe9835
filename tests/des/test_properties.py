"""Property-based tests (hypothesis) on the DES invariants.

* Determinism: the same configuration — seed included — produces a
  bit-identical event stream (compared via the always-on rolling
  hash), even across a fault injection and mid-run reroute.
* Conservation: at any horizon, every injected packet is accounted for
  as delivered, dropped, or still in the network.
* Safety: deliberately cyclic forwarding tables can never complete a
  flow — the hop guard aborts the run instead of looping forever.
* Deadlock: on random small fabrics at cycle level, deadlock-free
  engines always drain and SSSP reports a deadlock exactly when it can
  show a credit wait-for cycle of full queues.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro import topologies
from repro.core import DFSSSPEngine, SSSPEngine
from repro.des import FaultSpec, PacketDES, make_workload, run_pattern
from repro.exceptions import SimulationError
from repro.routing import LASHEngine, UpDownEngine
from repro.routing.base import RoutingResult, RoutingTables
from repro.simulator import permutation_pattern

_examples = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: one small routed fabric shared by every example (never mutated)
_FAB = topologies.xgft(2, (3, 3), (1, 2))
_ENGINE = DFSSSPEngine()
_RESULT = _ENGINE.route(_FAB)


def _workload(kind: str, seed: int):
    if kind == "mice":
        return make_workload(
            "mice", _FAB, count=20, size_bytes=2048, window_s=2e-5, seed=seed % 97
        )
    if kind == "alltoall":
        return make_workload("alltoall", _FAB, size_bytes=8192)
    return make_workload("ring_allreduce", _FAB, size_bytes=32768)


def _run(seed, buffers, kind, with_fault):
    des = PacketDES(
        _RESULT, engine=_ENGINE, buffer_packets=buffers, seed=seed
    )
    faults = (FaultSpec(at_s=1e-5),) if with_fault else ()
    return des.run(_workload(kind, seed), faults=faults)


@_examples
@given(
    seed=st.integers(0, 2**31 - 1),
    buffers=st.sampled_from([2, 8, None]),
    kind=st.sampled_from(["ring_allreduce", "alltoall", "mice"]),
    with_fault=st.booleans(),
)
def test_same_seed_is_bit_identical(seed, buffers, kind, with_fault):
    a = _run(seed, buffers, kind, with_fault)
    b = _run(seed, buffers, kind, with_fault)
    assert a.log_hash == b.log_hash
    assert a.summary() == b.summary()
    assert np.array_equal(a.link_packets, b.link_packets)
    if with_fault:
        assert a.faults == b.faults  # the seeded injector picked the same victim


@_examples
@given(
    horizon_us=st.floats(0.2, 30.0),
    buffers=st.sampled_from([1, 4, None]),
    size_kib=st.integers(1, 64),
)
def test_conservation_at_any_horizon(horizon_us, buffers, size_kib):
    wl = make_workload("alltoall", _FAB, size_bytes=size_kib * 1024)
    out = PacketDES(_RESULT, buffer_packets=buffers).run(
        wl, horizon_s=horizon_us * 1e-6
    )
    assert out.injected == out.delivered + out.dropped + out.in_network
    assert out.dropped == 0  # nothing can drop without faults
    assert out.flows_completed <= out.flows_released
    # DFSSSP is deadlock-free: the run either finishes or hits the horizon.
    assert out.status in {"completed", "horizon"}
    if out.status == "completed":
        assert out.in_network == 0


def _cyclic_result(switches: int) -> tuple:
    """A ring fabric whose switch tables forward clockwise forever."""
    fab = topologies.ring(switches, terminals_per_switch=1)
    chan = {
        (int(s), int(d)): c
        for c, (s, d) in enumerate(zip(fab.channels.src, fab.channels.dst))
    }
    sw_nodes = sorted(
        (n for n in range(fab.num_nodes) if fab.term_index[n] < 0),
        key=lambda n: int(fab.switch_index[n]),
    )
    nxt = np.full((fab.num_nodes, fab.num_terminals), -1, dtype=np.int32)
    for t_idx, term in enumerate(fab.terminals):
        term = int(term)
        for node in range(fab.num_nodes):
            if node == term:
                continue
            if fab.term_index[node] >= 0:  # terminal: inject onto its switch
                up = next(c for (s, _d), c in chan.items() if s == node)
                nxt[node, t_idx] = up
            else:  # switch: always clockwise, never down to the terminal
                si = int(fab.switch_index[node])
                nxt[node, t_idx] = chan[(node, sw_nodes[(si + 1) % switches])]
    tables = RoutingTables(fab, nxt, engine="cyclic-test")
    return fab, RoutingResult(tables=tables)


@_examples
@given(switches=st.integers(3, 8))
def test_cyclic_tables_never_deliver(switches):
    fab, result = _cyclic_result(switches)
    t = [int(x) for x in fab.terminals]
    wl = make_workload(
        "uniform_pairs", fab, size_bytes=1024, participants=[t[0], t[1]]
    )
    des = PacketDES(result, buffer_packets=None)
    with pytest.raises(SimulationError, match="cyclic"):
        des.run(wl)


#: (switches, extra_links, terminals, seed, buffers, packets) on which SSSP
#: wedges, so the property below always sees both of its outcomes
_WEDGES = [(8, 5, 2, 3698, 2, 3), (6, 1, 2, 8205, 4, 2)]


def _all_pairs_drain(route, switches, extra_links, terminals, seed, buffers, packets):
    links = min(switches - 1 + extra_links, switches * (switches - 1) // 2)
    fab = topologies.random_topology(switches, links, terminals, seed=seed)
    terms = [int(t) for t in fab.terminals]
    pattern = [(s, d) for s in terms for d in terms if s != d]
    return run_pattern(route(fab), pattern, buffers=buffers, packets_per_flow=packets)


@pytest.mark.parametrize("params", _WEDGES)
def test_sssp_wedges_on_the_explicit_examples(params):
    out = _all_pairs_drain(SSSPEngine().route, *params)
    assert out.status == "deadlock" and out.waitfor_cycle


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    switches=st.integers(4, 11),
    extra_links=st.integers(0, 12),
    terminals=st.integers(1, 3),
    seed=st.integers(0, 10_000),
    buffers=st.integers(1, 4),
    packets=st.integers(1, 4),
)
@example(*_WEDGES[0])
@example(*_WEDGES[1])
def test_cycle_level_drain_on_random_fabrics(
    switches, extra_links, terminals, seed, buffers, packets
):
    fabric = (switches, extra_links, terminals, seed)
    for engine in (UpDownEngine(), LASHEngine(max_layers=16), DFSSSPEngine()):
        out = _all_pairs_drain(engine.route, *fabric, buffers, packets)
        assert out.status == "completed", engine.name
        assert out.injected == out.delivered
        assert out.in_network == 0 and out.waitfor_cycle == []

    out = _all_pairs_drain(SSSPEngine().route, *fabric, buffers, packets)
    assert out.status in {"completed", "deadlock"}
    assert (out.status == "deadlock") == bool(out.waitfor_cycle)
    occupancy = {(q.channel, q.vc): q.occupancy for q in out.queue_stats}
    assert all(occupancy[key] == buffers for key in out.waitfor_cycle)
    assert out.injected == out.delivered + out.in_network
    unbounded = _all_pairs_drain(SSSPEngine().route, *fabric, None, packets)
    assert unbounded.status == "completed"
