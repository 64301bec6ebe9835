"""The event calendar of ``PacketDES.run`` and the times it accepts.

Pending events are kept per instant: a heap of distinct times, each with
a FIFO of its events. The ``des.run`` span counts the instants served
(``instants``, one calendar pop each); ``tests/des/test_instant_queue.py``
pins the complete outcome of a tie-heavy grid recorded with the earlier
heap engine. A float-keyed calendar must never see NaN (``nan != nan``)
nor a time before the clock, so every time entering it is checked here:
fault times and counts, the horizon and the initial flows' start times.
"""

import math

import pytest

from repro import topologies
from repro.des import (
    FaultSpec,
    PacketDES,
    PatternWorkload,
    UniformPairsWorkload,
    Workload,
    normalize_scenario,
)
from repro.exceptions import SimulationError
from repro.obs import InMemorySink, use_sink
from repro.routing.registry import ENGINES


@pytest.fixture(scope="module")
def xgft():
    fabric = topologies.xgft(2, (4, 4), (1, 2))
    engine = ENGINES["dfsssp"]()
    return fabric, engine, engine.route(fabric)


def test_single_packet_instants_are_hand_countable(xgft):
    """One 4 KiB packet over the 4 channels terminal -> leaf -> spine -> leaf
    -> terminal. Instants: the start, then per hop the serializer going idle
    (FREE) and the arrival one propagation later: 1 + 2 * 4. Events: the
    flow, and per hop the send, the FREE, the empty retry it wakes and the
    arrival: 1 + 4 * 4. All but the 9 opened entries come in at the instant
    being served."""
    fabric, _, result = xgft
    src, dst = fabric.terminals[0], fabric.terminals[-1]
    with use_sink(InMemorySink()) as sink:
        out = PacketDES(result).run(PatternWorkload([(src, dst)], 4096))
    (run_span,) = sink.find("des.run")
    assert out.status == "completed"
    assert int(out.link_packets.sum()) == 4
    assert out.events_processed == 17
    assert run_span.attrs["instants"] == 9
    assert run_span.attrs["events_instant"] == 8


@pytest.mark.parametrize(
    "at_s", [math.inf, -1.0, math.nan], ids=["inf", "negative", "nan"]
)
def test_fault_time_must_be_finite_and_not_negative(at_s):
    with pytest.raises(SimulationError, match="at_s"):
        FaultSpec(at_s=at_s)


@pytest.mark.parametrize("count", [0, -3])
def test_fault_count_must_be_positive(count):
    with pytest.raises(SimulationError, match="count"):
        FaultSpec(at_s=1e-5, count=count)


@pytest.mark.parametrize(
    "fault",
    [{"at_s": -1.0}, {"at_s": math.inf}, {"at_s": 1e-5, "count": 0}],
    ids=["negative", "inf", "count0"],
)
def test_scenario_faults_are_checked_when_normalized(fault):
    spec = {"topology": {"family": "ring", "switches": 5}, "faults": [fault]}
    with pytest.raises(SimulationError, match="fault"):
        normalize_scenario(spec)


@pytest.mark.parametrize("horizon_s", [math.nan, -1.0], ids=["nan", "negative"])
def test_horizon_must_not_be_negative_or_nan(xgft, horizon_s):
    fabric, _, result = xgft
    with pytest.raises(SimulationError, match="horizon_s"):
        PacketDES(result).run(UniformPairsWorkload(fabric), horizon_s=horizon_s)


def test_horizon_zero_serves_time_zero_only(xgft):
    fabric, _, result = xgft
    out = PacketDES(result).run(UniformPairsWorkload(fabric), horizon_s=0.0)
    assert (out.status, out.time, out.delivered) == ("horizon", 0.0, 0)
    assert out.flows_released > 0


class _StartsAt(Workload):
    """One flow released at ``start``."""

    def __init__(self, fabric, start):
        super().__init__()
        self.flows = [self._flow(fabric.terminals[0], fabric.terminals[1], 4096, start)]

    def initial(self):
        return self.flows


@pytest.mark.parametrize(
    "start", [math.nan, math.inf, -1e-6], ids=["nan", "inf", "negative"]
)
def test_initial_flow_start_must_be_a_time(xgft, start):
    fabric, _, result = xgft
    with pytest.raises(SimulationError, match="workload refused to start"):
        PacketDES(result).run(_StartsAt(fabric, start))
