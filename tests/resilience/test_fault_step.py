"""Pin of the fault step: what every consumer serves after every fault.

One seeded stream with link-down, switch-down and link-up events runs
through :class:`ChaosRunner` (DFSSSP and MinHop), through ``PacketDES``
fault injection and through :class:`RoutingSupervisor`. Per event the
pin holds the action label and a sha256 of the served ``next_channel``
and ``path_layers``; the reroute pins hold the
``repair_full_fallbacks{engine, reason}`` counts of SSSP and DFSSSP
``reroute`` for a link-up, an unlayered prior and a repair that runs out
of virtual layers.

Regenerate only for an intended change::

    PYTHONPATH=src python -m tests.resilience.test_fault_step
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro import topologies
from repro.core import DFSSSPEngine, SSSPEngine
from repro.des import FaultSpec, PacketDES
from repro.des.workloads import UniformPairsWorkload
from repro.obs import MetricsRegistry, get_registry, set_registry
from repro.resilience import ChaosRunner, FaultInjector, relative_degradation
from repro.routing import MinHopEngine
from repro.service.policy import ServicePolicy
from repro.service.supervisor import RoutingSupervisor

#: the stream: 10 events on a 4-ary 2-tree with all three kinds
STREAM = {"num_events": 10, "seed": 0, "p_switch_down": 0.3, "p_link_up": 0.3}


def _fabric():
    return topologies.kary_ntree(4, 2)


def _digest(result) -> str:
    h = hashlib.sha256(np.asarray(result.tables.next_channel, dtype=np.int64).tobytes())
    if result.layered is not None:
        h.update(np.asarray(result.layered.path_layers, dtype=np.int64).tobytes())
    return h.hexdigest()[:16]


class _Tap:
    """An engine stand-in that records every result it hands out."""

    def __init__(self, engine):
        self.engine = engine
        self.name = engine.name
        self.served: list[str] = []

    def route(self, fabric):
        return self._serve(self.engine.route(fabric))

    def reroute(self, prior, degraded):
        return self._serve(self.engine.reroute(prior, degraded))

    def _serve(self, result):
        self.served.append(_digest(result))
        return result


def _chaos(engine) -> list:
    tap = _Tap(engine)
    report = ChaosRunner(tap).run(_fabric(), **STREAM)
    assert report.survived, report.failure
    # served[0] is the initial route; one served result per event after it
    return [[r.kind, r.action, d] for r, d in zip(report.records, tap.served[1:])]


def _des() -> dict:
    fabric = _fabric()
    engine = DFSSSPEngine()
    tap = _Tap(engine)
    out = PacketDES(engine.route(fabric), engine=tap, seed=1, p_switch_down=0.4).run(
        UniformPairsWorkload(fabric, size_bytes=2048),
        faults=[FaultSpec(at_s=1e-6, count=2), FaultSpec(at_s=4e-6, count=2)],
    )
    assert out.status == "completed"
    return {
        "events": [[f, a, d] for f, a, d in zip(out.faults, out.reroutes, tap.served)],
        "log_hash": out.log_hash[:16],
    }


def _supervisor(fabric, engine, bursts, **stream) -> list:
    sup = RoutingSupervisor(
        fabric, engine, policy=ServicePolicy(repair_deadline_s=None, full_deadline_s=None)
    )
    injector = FaultInjector(fabric, **stream)
    out = []
    for burst in bursts:
        events = [injector.step()[0] for _ in range(burst)]
        for event in events:
            sup.submit(event)
        outcome = sup.process()
        assert outcome.ok, outcome.errors
        out.append([[e.kind for e in events], outcome.action, _digest(sup.serving().result)])
    return out


def _tight_fabric():
    """One layer fits its routing but not the repair after stream seed 0's
    first link-down: the repair runs out of virtual layers."""
    return topologies.random_topology(12, 26, terminals_per_switch=2, seed=3)


def _fallbacks() -> dict:
    """``repair_full_fallbacks`` after SSSP / DFSSSP ``reroute`` cases."""
    old = set_registry(MetricsRegistry())
    try:
        fabric = topologies.random_topology(16, 34, terminals_per_switch=3, seed=42)
        injector = FaultInjector(fabric, seed=1, p_switch_down=0.0, p_link_up=0.0)
        healthy = injector.current
        _, down = injector.step()
        back_up = relative_degradation(down, healthy)  # the cable comes back
        rows = {}
        for engine in (SSSPEngine(), DFSSSPEngine()):
            prior = engine.route(down.fabric)
            result = engine.reroute(prior, back_up)
            rows[f"{engine.name}_link_up"] = ["repair" in result.stats, _digest(result)]
        sssp_prior = SSSPEngine().route(fabric)
        result = DFSSSPEngine().reroute(sssp_prior, relative_degradation(healthy, down))
        rows["dfsssp_unlayered_prior"] = ["repair" in result.stats, _digest(result)]
        tight = _tight_fabric()
        engine = DFSSSPEngine(max_layers=1, balance=False)
        prior = engine.route(tight)
        tight_injector = FaultInjector(tight, seed=0, p_switch_down=0.0, p_link_up=0.0)
        prev = tight_injector.current
        _, cur = tight_injector.step()
        result = engine.reroute(prior, relative_degradation(prev, cur))
        rows["dfsssp_out_of_layers"] = ["repair" in result.stats, _digest(result)]
        counts = {
            f"{engine}/{reason}": get_registry().value(
                "repair_full_fallbacks", engine=engine, reason=reason
            )
            for engine in ("sssp", "dfsssp")
            for reason in ("RepairError", "InsufficientLayersError")
        }
        return {"results": rows, "counts": counts}
    finally:
        set_registry(old)


OBSERVERS = {
    "chaos_dfsssp": lambda: _chaos(DFSSSPEngine()),
    "chaos_minhop": lambda: _chaos(MinHopEngine()),
    "des_dfsssp": _des,
    # single events, then one coalesced pair
    "supervisor_dfsssp": lambda: _supervisor(
        _fabric(), "dfsssp", (1, 1, 1, 1, 1, 1, 2, 1),
        seed=STREAM["seed"], p_switch_down=0.3, p_link_up=0.3,
    ),
    # the repair rung's reroute falls back to a full route
    "supervisor_out_of_layers": lambda: _supervisor(
        _tight_fabric(), DFSSSPEngine(max_layers=1, balance=False), (1,),
        seed=0, p_switch_down=0.0, p_link_up=0.0,
    ),
    "reroute_fallbacks": _fallbacks,
}

EXPECTED = {"chaos_dfsssp": [["link_down", "repair", "0712d7440a334b12"],
                             ["switch_down", "repair", "4129ac30f77ec87e"],
                             ["link_up", "full", "a169866998250661"],
                             ["switch_down", "repair", "46be54e1e93afdb3"],
                             ["link_down", "repair", "7974c6c2acd97229"],
                             ["link_down", "repair", "5b89eea0d6750225"],
                             ["link_down", "repair", "21e98b7ab0f5e8c1"],
                             ["link_up", "full", "261aa54aae42dc22"],
                             ["link_up", "full", "b6a12843e4790016"],
                             ["link_up", "full", "777371b695943c3f"]],
            "chaos_minhop": [["link_down", "full", "73d3dc6b9da7d182"],
                             ["switch_down", "full", "c7cb5992565a60bd"],
                             ["link_up", "full", "fab6d71658988516"],
                             ["switch_down", "full", "1a5581448975f0e9"],
                             ["link_down", "full", "f0b8b830730418ad"],
                             ["link_down", "full", "47f7811694e40fba"],
                             ["link_down", "full", "9911ea6bb519eb1f"],
                             ["link_up", "full", "47f7811694e40fba"],
                             ["link_up", "full", "1d1320879756905e"],
                             ["link_up", "full", "1a5581448975f0e9"]],
            "des_dfsssp": {
                "events": [["link_down sw_l1_0<->sw_l2_1", "repair", "7d4eadeb5e2c7783"],
                           ["switch_down sw_l2_3", "repair", "229d9da9e68b8031"],
                           ["switch_down sw_l2_2", "repair", "562e0ac36de4c7d4"],
                           ["link_down sw_l1_2<->sw_l2_1", "repair", "ff85197d3963016c"]],
                "log_hash": "06efb651ab0d0845",
            },
            "reroute_fallbacks": {"counts": {"dfsssp/InsufficientLayersError": 1,
                                             "dfsssp/RepairError": 1,
                                             "sssp/InsufficientLayersError": None,
                                             "sssp/RepairError": 1},
                                  "results": {"dfsssp_link_up": [False, "b47076dfd5cc5541"],
                                              "dfsssp_out_of_layers": [False, "3951858f1968d578"],
                                              "dfsssp_unlayered_prior": [False, "d15db0722eb46f2f"],
                                              "sssp_link_up": [False, "c5c74035b084f272"]}},
            "supervisor_dfsssp": [[["link_down"], "repair", "0712d7440a334b12"],
                                  [["switch_down"], "repair", "4129ac30f77ec87e"],
                                  [["link_up"], "full", "a169866998250661"],
                                  [["switch_down"], "repair", "46be54e1e93afdb3"],
                                  [["link_down"], "repair", "7974c6c2acd97229"],
                                  [["link_down"], "repair", "5b89eea0d6750225"],
                                  [["link_down", "link_up"], "full", "261aa54aae42dc22"],
                                  [["link_up"], "full", "b6a12843e4790016"]],
            "supervisor_out_of_layers": [[["link_down"], "full", "3951858f1968d578"]]}


@pytest.fixture(autouse=True)
def fresh_registry():
    old = set_registry(MetricsRegistry())
    yield
    set_registry(old)


@pytest.mark.parametrize("case", sorted(OBSERVERS))
def test_fault_step_is_pinned(case):
    assert OBSERVERS[case]() == EXPECTED[case]


def test_stream_covers_every_event_kind():
    kinds = {kind for kind, _, _ in EXPECTED["chaos_dfsssp"]}
    assert kinds == {"link_down", "switch_down", "link_up"}
    actions = {action for _, action, _ in EXPECTED["chaos_dfsssp"]}
    assert actions == {"repair", "full"}


if __name__ == "__main__":
    print(json.dumps({case: fn() for case, fn in sorted(OBSERVERS.items())}, indent=1))
