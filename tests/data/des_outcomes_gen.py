"""Outcome fixture of the packet DES on a grid of tie-heavy scenarios.

``tests/data/des_outcomes.json`` pins everything one ``PacketDES.run``
reports — status, clock, event counts by kind, the record-stream hash,
FCTs, per-link packet counts, per-queue occupancy statistics and
timelines, faults and reroutes, and the ``des_*`` registry values — on
scenarios chosen where the event queue's tie-break between simultaneous
events decides the outcome: one-packet and two-packet buffers, infinite
buffers, zero propagation delay (a packet's arrival coincides with its
serializer going idle), packet sizes that are not a multiple of the MTU,
zero-delay retransmissions after a fault, a fault at the exact
completion time of a send, a fault at time zero among the initial flows,
a horizon at the exact time of an event, cycle-level Bernoulli traffic
(thousands of flows on integer-cycle instants) cut by a horizon, an
event budget met exactly and missed by one, every collective workload,
and a Figure 2 wedge. ``tests/des/test_instant_queue.py`` replays every
stored scenario and requires equality field by field.

Parameters derived from a run (the fault and horizon instants, the event
budget) are resolved once, here, from a recorded run of the same
scenario and stored in the fixture, so the test replays the very same
floats. The instants come from the occupancy timelines, whose
timestamps are exact (the record stream rounds its own to 12 digits).

Regenerate *only* after an intentional change to the simulator's output::

    PYTHONPATH=src python -m tests.data.des_outcomes_gen

and commit the JSON diff alongside the code change.
"""

from __future__ import annotations

import copy
import json
from pathlib import Path

from repro import topologies
from repro.des import BernoulliWorkload, FaultSpec, LinkParams, PacketDES, make_workload
from repro.exceptions import SimulationError
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.routing.registry import ENGINES
from repro.simulator.patterns import shift_pattern

FIXTURE = Path(__file__).parent / "des_outcomes.json"

FABRICS = {
    "ring51": lambda: topologies.ring(5, 1),
    "ring52": lambda: topologies.ring(5, 2),
    "xgft442": lambda: topologies.xgft(2, (4, 4), (1, 2)),
    "torus33": lambda: topologies.torus((3, 3), 1),
}

_PAIRS = {"kind": "uniform_pairs", "size_bytes": 8192}

#: name -> scenario. ``des`` holds ``PacketDES`` keywords, ``link`` those of
#: ``LinkParams``, ``run`` those of ``PacketDES.run``; ``derive`` names a
#: parameter resolved from a recorded run (see :func:`resolve`).
SCENARIOS: dict[str, dict] = {
    "buffers1_ring": {
        "fabric": "ring52", "engine": "dfsssp",
        "workload": {"kind": "uniform_pairs", "size_bytes": 3 * 4096},
        "des": {"buffer_packets": 1},
    },
    "buffers2_xgft_sssp": {
        "fabric": "xgft442", "engine": "sssp",
        "workload": {"kind": "uniform_pairs", "size_bytes": 16384},
        "des": {"buffer_packets": 2},
    },
    "buffers16_torus": {
        "fabric": "torus33", "engine": "dfsssp", "workload": _PAIRS,
        "des": {"buffer_packets": 16},
    },
    "buffers_inf_xgft": {
        "fabric": "xgft442", "engine": "dfsssp", "workload": _PAIRS,
        "des": {"buffer_packets": None},
    },
    "propagation0_xgft": {
        "fabric": "xgft442", "engine": "sssp", "workload": _PAIRS,
        "des": {"buffer_packets": 2}, "link": {"propagation_s": 0.0},
    },
    "mixed_sizes_ring": {
        "fabric": "ring52", "engine": "dfsssp",
        "workload": {"kind": "uniform_pairs", "size_bytes": 10000},
        "des": {"buffer_packets": 2},
    },
    "mixed_sizes_propagation0": {
        "fabric": "xgft442", "engine": "dfsssp",
        "workload": {"kind": "alltoall", "size_bytes": 5000},
        "des": {"buffer_packets": 1}, "link": {"propagation_s": 0.0},
    },
    "retransmit0_link_fault": {
        "fabric": "xgft442", "engine": "dfsssp",
        "workload": {"kind": "uniform_pairs", "size_bytes": 16384},
        "des": {"buffer_packets": 4, "seed": 7, "retransmit_delay_s": 0.0},
        "run": {"faults": [{"at_s": 1e-5}]},
    },
    "retransmit0_switch_faults": {
        "fabric": "xgft442", "engine": "dfsssp",
        "workload": {"kind": "uniform_pairs", "size_bytes": 16384},
        "des": {"buffer_packets": 4, "seed": 3, "retransmit_delay_s": 0.0,
                "p_switch_down": 1.0},
        "run": {"faults": [{"at_s": 1e-5, "count": 2}]},
    },
    "fault_at_zero_with_flows": {
        "fabric": "xgft442", "engine": "dfsssp", "workload": _PAIRS,
        "des": {"buffer_packets": 4, "seed": 7},
        "run": {"faults": [{"at_s": 0.0, "count": 2}]},
    },
    "fault_at_send_completion": {
        "fabric": "xgft442", "engine": "dfsssp", "workload": _PAIRS,
        "des": {"buffer_packets": 2, "seed": 7}, "link": {"propagation_s": 0.0},
        "derive": "fault_at_send_completion",
    },
    "horizon_at_event": {
        "fabric": "xgft442", "engine": "sssp", "workload": _PAIRS,
        "des": {"buffer_packets": 2}, "derive": "horizon_at_send",
    },
    "bernoulli_cycle_horizon": {  # cycle_link(1): one time unit per flit
        "fabric": "xgft442", "engine": "dfsssp",
        "workload": {"kind": "bernoulli", "shift": 3, "rate": 0.6, "cycles": 400, "seed": 5},
        "des": {"buffer_packets": 2},
        "link": {"bandwidth_bytes_per_s": 1.0, "propagation_s": 0.0, "mtu_bytes": 1},
        "run": {"horizon_s": 300.0},
    },
    "max_events_exact": {
        "fabric": "ring52", "engine": "dfsssp", "workload": _PAIRS,
        "des": {"buffer_packets": 2}, "derive": "max_events_exact",
    },
    "max_events_one_short": {
        "fabric": "ring52", "engine": "dfsssp", "workload": _PAIRS,
        "des": {"buffer_packets": 2}, "derive": "max_events_one_short",
    },
    "ring_allreduce": {
        "fabric": "xgft442", "engine": "dfsssp",
        "workload": {"kind": "ring_allreduce", "size_bytes": 1 << 18},
        "des": {"buffer_packets": 4},
    },
    "alltoall": {
        "fabric": "xgft442", "engine": "sssp",
        "workload": {"kind": "alltoall", "size_bytes": 8192},
        "des": {"buffer_packets": 4},
    },
    "alltoall_compute_gap": {
        "fabric": "xgft442", "engine": "dfsssp",
        "workload": {"kind": "alltoall", "size_bytes": 8192, "compute_s": 1e-6},
        "des": {"buffer_packets": 4},
    },
    "tree_allreduce": {
        "fabric": "torus33", "engine": "dfsssp",
        "workload": {"kind": "tree_allreduce", "size_bytes": 1 << 16},
        "des": {"buffer_packets": 2},
    },
    "tp_pp": {
        "fabric": "xgft442", "engine": "dfsssp",
        "workload": {"kind": "tp_pp", "tp_size": 4, "microbatches": 3,
                     "tp_bytes": 16384, "pp_bytes": 8192},
        "des": {"buffer_packets": 2},
    },
    "composite": {
        "fabric": "ring52", "engine": "dfsssp",
        "workload": {"kind": "composite", "parts": [
            {"kind": "ring_allreduce", "size_bytes": 1 << 16},
            {"kind": "mice", "count": 20, "size_bytes": 2048, "window_s": 2e-5},
        ]},
        "des": {"buffer_packets": 2},
    },
    "mice": {
        "fabric": "xgft442", "engine": "dfsssp",
        "workload": {"kind": "mice", "count": 40, "size_bytes": 2048, "window_s": 2e-5},
        "des": {"buffer_packets": 4},
    },
    "timelines": {
        "fabric": "ring52", "engine": "dfsssp",
        "workload": {"kind": "uniform_pairs", "size_bytes": 6000},
        "des": {"buffer_packets": 2, "record_timelines": True},
    },
    "figure2_wedge": {
        "fabric": "ring51", "engine": "sssp",
        "workload": {"kind": "alltoall", "size_bytes": 1 << 16},
        "des": {"buffer_packets": 1},
    },
}


def _workload(fabric, spec: dict):
    """The scenario's workload; ``bernoulli`` (open loop on a shift pattern)
    is not in the scenario registry, so it is built here."""
    params = dict(spec)
    kind = params.pop("kind")
    if kind == "bernoulli":
        return BernoulliWorkload(shift_pattern(fabric, params.pop("shift")), **params)
    return make_workload(kind, fabric, **params)


def run_spec(spec: dict, registry: MetricsRegistry | None = None, **des_overrides):
    """Route the scenario's fabric and run it once; returns the outcome."""
    fabric = FABRICS[spec["fabric"]]()
    engine = ENGINES[spec["engine"]]()
    run = dict(spec.get("run", {}))
    run["faults"] = [FaultSpec(**f) for f in run.get("faults", ())]
    des = PacketDES(
        engine.route(fabric), engine=engine, link=LinkParams(**spec.get("link", {})),
        **{**spec.get("des", {}), **des_overrides},
    )
    previous = set_registry(registry if registry is not None else MetricsRegistry())
    try:
        return des.run(_workload(fabric, spec["workload"]), **run)
    finally:
        set_registry(previous)


def outcome_record(spec: dict) -> dict:
    """Everything one run of ``spec`` reports, in JSON-comparable form."""
    registry = MetricsRegistry()
    try:
        out = run_spec(spec, registry)
    except SimulationError as err:
        record = {"error": str(err)}
    else:
        record = {
            "status": out.status,
            "time": out.time,
            "events_processed": out.events_processed,
            "events_by_kind": out.events_by_kind,
            "log_hash": out.log_hash,
            "injected": out.injected,
            "delivered": out.delivered,
            "dropped": out.dropped,
            "retransmitted": out.retransmitted,
            "lost": out.lost,
            "in_network": out.in_network,
            "flows_released": out.flows_released,
            "flows_completed": out.flows_completed,
            "bytes_delivered": out.bytes_delivered,
            "makespan_s": out.makespan_s,
            "fct_seconds": {str(fid): v for fid, v in sorted(out.fct_seconds.items())},
            "link_packets": out.link_packets.tolist(),
            "queues": [
                [q.channel, q.vc, q.max_occupancy, q.mean_occupancy(out.time)]
                for q in out.queue_stats
            ],
            "timelines": None if out.timelines is None else {
                f"{c},{vc}": [list(step) for step in steps]
                for (c, vc), steps in sorted(out.timelines.items())
            },
            "faults": out.faults,
            "reroutes": out.reroutes,
        }
    record["registry"] = {
        m.name: m.to_entry() for m in registry.metrics() if m.name.startswith("des_")
    }
    return json.loads(json.dumps(record))


def _median_send(spec: dict) -> tuple[float, LinkParams]:
    """The exact time of the median send of a recorded run: the instant a
    queue's timeline steps down (no fault, so every step down is a send)."""
    out = run_spec(spec, record_timelines=True)
    sends = sorted(
        b[0] for steps in out.timelines.values()
        for a, b in zip([(0.0, 0)] + steps, steps) if b[1] < a[1]
    )
    return sends[len(sends) // 2], LinkParams(**spec.get("link", {}))


def resolve(spec: dict) -> dict:
    """``spec`` with its ``derive`` parameter replaced by a concrete value."""
    spec = copy.deepcopy(spec)
    derive = spec.pop("derive", None)
    run = spec.setdefault("run", {})
    if derive == "fault_at_send_completion":
        assert spec["workload"]["size_bytes"] % 4096 == 0  # every packet is one MTU
        t, link = _median_send(spec)
        run["faults"] = [{"at_s": t + link.mtu_bytes / link.bandwidth_bytes_per_s}]
    elif derive == "horizon_at_send":
        run["horizon_s"], _ = _median_send(spec)
    elif derive in ("max_events_exact", "max_events_one_short"):
        events = run_spec(spec).events_processed
        run["max_events"] = events if derive == "max_events_exact" else events - 1
    elif derive is not None:
        raise ValueError(f"unknown derivation {derive!r}")
    return spec


def _render(fixture: dict) -> str:
    """Valid JSON with one line per outcome field: compact, yet a drift
    shows in a diff as the fields that moved."""
    def compact(value) -> str:
        return json.dumps(value, separators=(",", ":"))

    blocks = []
    for name, entry in fixture.items():
        fields = ",\n".join(f"  {compact(k)}: {compact(v)}" for k, v in entry["outcome"].items())
        blocks.append(
            f'{compact(name)}: {{\n "spec": {compact(entry["spec"])},\n'
            f' "outcome": {{\n{fields}\n }}\n}}'
        )
    return "{\n" + ",\n".join(blocks) + "\n}\n"


def regenerate() -> Path:
    fixture = {}
    for name, spec in SCENARIOS.items():
        spec = resolve(spec)
        fixture[name] = {"spec": spec, "outcome": outcome_record(spec)}
    FIXTURE.write_text(_render(fixture))
    return FIXTURE


if __name__ == "__main__":
    print(f"wrote {regenerate()}")
