"""The event calendar of ``PacketDES.run`` serves simultaneous events in push order.

Pending events wait in one FIFO per instant; an event scheduled for the
instant being served joins the end of that instant's FIFO. That is exact
only if every outcome stays what a heap ordered by ``(time, insertion)``
produced, so ``tests/data/des_outcomes.json`` — recorded with such a heap
engine — pins the complete outcome of a scenario grid built around the
ties: buffers of 1, 2, 16 and infinity, zero propagation delay, mixed
packet sizes, zero-delay retransmissions, a fault at the exact completion
time of a send, a fault at time zero among the initial flows, a horizon
at the exact time of an event, cycle-level Bernoulli traffic cut by a
horizon, an event budget met exactly and missed by one, every collective
workload, occupancy timelines and a Figure 2 wedge. Each scenario is
replayed here and compared field by field. The fixture's generator is
``tests/data/des_outcomes_gen.py``.
"""

import json

import pytest

from repro import topologies
from repro.des import FaultSpec, PacketDES, UniformPairsWorkload, make_workload
from repro.exceptions import SimulationError
from repro.obs import InMemorySink, use_sink
from repro.routing.registry import ENGINES
from tests.data.des_outcomes_gen import FIXTURE, SCENARIOS, outcome_record

STORED = json.loads(FIXTURE.read_text())


def test_fixture_covers_every_scenario_of_the_grid():
    assert sorted(STORED) == sorted(SCENARIOS)


@pytest.mark.parametrize("name", sorted(STORED))
def test_outcome_matches_the_heap_only_engine(name):
    spec, want = STORED[name]["spec"], STORED[name]["outcome"]
    with use_sink(InMemorySink()) as sink:
        got = outcome_record(spec)
    assert sorted(got) == sorted(want)
    for field in want:
        assert got[field] == want[field], f"{name}: {field} drifted"
    if "error" not in got:  # every served instant opens a non-empty FIFO
        (run_span,) = sink.find("des.run")
        attrs = run_span.attrs
        assert 0 < attrs["instants"] <= attrs["events"] - attrs["events_instant"]


def test_the_grid_reaches_the_ties_it_claims():
    """Guard the fixture itself, so no scenario silently loses its subject."""
    out = {name: rec["outcome"] for name, rec in STORED.items()}
    assert out["retransmit0_link_fault"]["retransmitted"] > 0
    assert out["retransmit0_switch_faults"]["retransmitted"] > 0
    assert out["fault_at_send_completion"]["dropped"] > 0
    assert out["horizon_at_event"]["status"] == "horizon"
    assert out["max_events_exact"]["status"] == "completed"
    assert "exceeded" in out["max_events_one_short"]["error"]
    assert out["figure2_wedge"]["status"] == "deadlock"
    assert out["timelines"]["timelines"]
    assert out["buffers1_ring"]["events_by_kind"]["try_no_credit"] > 0
    assert out["fault_at_zero_with_flows"]["events_by_kind"]["fault"] == 1
    assert len(out["fault_at_zero_with_flows"]["reroutes"]) == 2
    assert out["bernoulli_cycle_horizon"]["status"] == "horizon"
    assert out["bernoulli_cycle_horizon"]["time"] == 300.0
    assert out["bernoulli_cycle_horizon"]["flows_released"] > 1000
    for name, rec in STORED.items():
        if rec["spec"].get("link", {}).get("propagation_s") == 0.0:
            cut = "horizon_s" in rec["spec"].get("run", {})
            assert rec["outcome"]["status"] == ("horizon" if cut else "completed"), name


def _traced_run(fabric, workload, faults=(), **des):
    engine = ENGINES["dfsssp"]()
    with use_sink(InMemorySink()) as sink:
        out = PacketDES(engine.route(fabric), engine=engine, **des).run(workload, faults=faults)
    (run_span,) = sink.find("des.run")
    return out, run_span.attrs


def test_events_instant_is_every_try_when_all_flows_start_at_zero():
    fabric = topologies.xgft(2, (4, 4), (1, 2))
    out, attrs = _traced_run(fabric, UniformPairsWorkload(fabric, size_bytes=8192),
                             buffer_packets=2)
    assert attrs["events_instant"] == out.events_by_kind["try"] > 0


def test_events_instant_adds_the_flows_a_barrier_releases_at_once():
    fabric = topologies.xgft(2, (4, 4), (1, 2))
    workload = make_workload("alltoall", fabric, size_bytes=8192)
    initial = len(fabric.terminals)  # round 0: one flow per rank
    out, attrs = _traced_run(fabric, workload, buffer_packets=4)
    by_kind = out.events_by_kind
    assert attrs["events_instant"] == by_kind["try"] + by_kind["flow"] - initial


def test_zero_delay_retransmissions_are_served_at_the_same_instant():
    fabric = topologies.xgft(2, (4, 4), (1, 2))
    out, attrs = _traced_run(
        fabric, UniformPairsWorkload(fabric, size_bytes=16384), [FaultSpec(at_s=1e-5)],
        buffer_packets=4, seed=7, retransmit_delay_s=0.0,
    )
    assert out.status == "completed"
    by_kind = out.events_by_kind
    assert by_kind["retx"] > 0
    assert attrs["events_instant"] == by_kind["try"] + by_kind["retx"]


def test_negative_retransmit_delay_is_rejected():
    fabric = topologies.ring(5, 2)
    with pytest.raises(SimulationError, match="retransmit_delay_s"):
        PacketDES(ENGINES["dfsssp"]().route(fabric), retransmit_delay_s=-1e-9)
