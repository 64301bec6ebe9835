"""Scenario schema and per-engine sweep runner for the DES.

A *scenario* is a plain dict (usually loaded from JSON — the ``des``
CLI subcommand does exactly that) describing one experiment:

.. code-block:: json

    {
      "name": "allreduce-under-fault",
      "topology": {"family": "xgft", "ms": [4, 4], "ws": [1, 2]},
      "engines": ["dfsssp", "sssp"],
      "workload": {"kind": "ring_allreduce", "size_bytes": 1048576},
      "link": {"bandwidth_gbps": 100.0, "propagation_us": 0.5,
               "mtu_bytes": 4096},
      "buffer_packets": 16,
      "seed": 7,
      "horizon_s": null,
      "faults": [{"at_s": 0.0002}],
      "p_switch_down": 0.0,
      "record_events": false
    }

Every key except ``topology`` has a default (see ``_DEFAULTS``);
``buffer_packets: null`` means infinite buffers; any other key is a
:class:`~repro.exceptions.SimulationError`. Each engine in ``engines``
is built with its defaults, routes the same fabric and drives a *fresh*
workload instance through :class:`repro.des.PacketDES`, so the comparison is
apples-to-apples: identical flows, identical fault schedule (the fault
injector is re-seeded per engine), different forwarding tables.

Figure 2's drain (:func:`run_pattern`) and :func:`saturation_sweep` run on
:func:`cycle_link`, where one time unit is one flit: times are cycle counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.des.engine import DesOutcome, FaultSpec, LinkParams, PacketDES
from repro.des.workloads import BernoulliWorkload, PatternWorkload, make_workload
from repro.exceptions import ReproError, SimulationError
from repro.network import topologies as topo
from repro.network.fabric import Fabric
from repro.network.io import load_fabric
from repro.obs import record_event, span
from repro.routing.registry import engines

_DEFAULTS = {
    "name": "scenario",
    "engines": ["dfsssp", "sssp"],
    "workload": {"kind": "ring_allreduce"},
    "link": {},
    "buffer_packets": 16,
    "seed": 0,
    "horizon_s": None,
    "faults": [],
    "p_switch_down": 0.0,
    "max_retransmits": 16,
    "record_events": False,
    "max_events": 5_000_000,
}

_LINK_DEFAULTS = {"bandwidth_gbps": 100.0, "propagation_us": 0.5, "mtu_bytes": 4096}


def normalize_scenario(spec: dict) -> dict:
    """Validate ``spec`` and fill defaults; returns a new dict."""
    if not isinstance(spec, dict):
        raise SimulationError(f"scenario must be a dict, got {type(spec).__name__}")
    unknown = set(spec) - set(_DEFAULTS) - {"topology"}
    if unknown:
        raise SimulationError(f"unknown scenario keys {sorted(unknown)}")
    if "topology" not in spec:
        raise SimulationError("scenario needs a 'topology' section")
    out = {**_DEFAULTS, **spec}
    out["workload"] = dict(out["workload"])
    if "kind" not in out["workload"]:
        raise SimulationError("scenario workload needs a 'kind'")
    link = {**_LINK_DEFAULTS, **out["link"]}
    bad_link = set(link) - set(_LINK_DEFAULTS)
    if bad_link:
        raise SimulationError(f"unknown link keys {sorted(bad_link)}")
    out["link"] = link
    if not out["engines"]:
        raise SimulationError("scenario needs at least one engine")
    for name in out["engines"]:
        if name not in engines():
            raise SimulationError(
                f"unknown engine {name!r}; known: {sorted(engines())}"
            )
    faults = [FaultSpec(float(f["at_s"]), int(f.get("count", 1))) for f in out["faults"]]
    out["faults"] = [{"at_s": f.at_s, "count": f.count} for f in faults]
    return out


def build_scenario_fabric(topology: dict) -> Fabric:
    """Materialise the ``topology`` section of a scenario.

    Either ``{"fabric": "<path.json>"}`` or ``{"family": ..., <params>}``
    covering the families the ``des`` sweep targets (ring, torus, xgft,
    dragonfly, hypercube, ktree).
    """
    if not isinstance(topology, dict):
        raise SimulationError("scenario topology must be a dict")
    spec = dict(topology)
    if "fabric" in spec:
        return load_fabric(spec["fabric"])
    family = spec.pop("family", None)
    fabric = None
    if family == "ring":
        fabric = topo.ring(spec.pop("switches", 5), spec.pop("terminals_per_switch", 2))
    elif family == "torus":
        dims = tuple(int(d) for d in spec.pop("dims", [3, 3]))
        fabric = topo.torus(dims, spec.pop("terminals_per_switch", 1))
    elif family == "xgft":
        ms = tuple(int(m) for m in spec.pop("ms", [4, 4]))
        ws = tuple(int(w) for w in spec.pop("ws", [1, 2]))
        fabric = topo.xgft(len(ms), ms, ws)
    elif family == "dragonfly":
        fabric = topo.dragonfly(spec.pop("a", 4), spec.pop("p", 2), spec.pop("h", 2))
    elif family == "hypercube":
        fabric = topo.hypercube(
            spec.pop("dimension", 3), spec.pop("terminals_per_switch", 1)
        )
    elif family == "ktree":
        fabric = topo.kary_ntree(spec.pop("k", 4), spec.pop("n", 2))
    else:
        raise SimulationError(
            f"unknown topology family {family!r}; known: ring, torus, xgft, "
            "dragonfly, hypercube, ktree (or a 'fabric' path)"
        )
    if spec:
        raise SimulationError(
            f"unknown topology options {sorted(spec)} for family {family!r}"
        )
    return fabric


@dataclass
class ScenarioReport:
    """Per-engine DES outcomes for one scenario, JSON-serialisable."""

    scenario: dict
    fabric_summary: dict
    results: dict[str, dict] = field(default_factory=dict)
    outcomes: dict = field(default_factory=dict)  # engine -> DesOutcome (not serialised)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "fabric": self.fabric_summary,
            "results": self.results,
            "ranking": self.ranking(),
        }

    def ranking(self) -> list[str]:
        """Engines ordered by FCT p99 (completed runs first, errors last)."""
        def sort_key(item):
            name, res = item
            if "error" in res:
                return (2, float("inf"), name)
            p99 = (res.get("fct") or {}).get("p99")
            if p99 is None:
                return (1, float("inf"), name)
            return (0, p99, name)

        return [name for name, _ in sorted(self.results.items(), key=sort_key)]


def run_scenario(spec: dict, fabric: Fabric | None = None) -> ScenarioReport:
    """Run one scenario: route + simulate once per engine."""
    spec = normalize_scenario(spec)
    if fabric is None:
        fabric = build_scenario_fabric(spec["topology"])
    link = LinkParams(
        bandwidth_bytes_per_s=spec["link"]["bandwidth_gbps"] * 1e9 / 8,
        propagation_s=spec["link"]["propagation_us"] * 1e-6,
        mtu_bytes=int(spec["link"]["mtu_bytes"]),
    )
    faults = tuple(FaultSpec(at_s=f["at_s"], count=f["count"]) for f in spec["faults"])
    report = ScenarioReport(
        scenario=spec,
        fabric_summary={
            "nodes": fabric.num_nodes,
            "switches": fabric.num_switches,
            "terminals": fabric.num_terminals,
            "channels": fabric.num_channels,
        },
    )
    wl_spec = dict(spec["workload"])
    wl_kind = wl_spec.pop("kind")
    if wl_kind == "mice":
        wl_spec.setdefault("seed", spec["seed"])
    with span("des.scenario", scenario=spec["name"], workload=wl_kind):
        for name in spec["engines"]:
            engine = engines()[name]()
            try:
                result = engine.route(fabric)
                workload = make_workload(wl_kind, fabric, **wl_spec)
                sim = PacketDES(
                    result,
                    engine=engine,
                    link=link,
                    buffer_packets=spec["buffer_packets"],
                    seed=spec["seed"],
                    p_switch_down=spec["p_switch_down"],
                    max_retransmits=spec["max_retransmits"],
                    record_events=spec["record_events"],
                )
                outcome = sim.run(
                    workload,
                    horizon_s=spec["horizon_s"],
                    faults=faults,
                    max_events=spec["max_events"],
                )
            except ReproError as err:
                report.results[name] = {
                    "error": f"{type(err).__name__}: {err}",
                }
                record_event("des_engine_failed", engine=name, error=str(err))
                continue
            summary = outcome.summary()
            summary["workload"] = workload.describe()
            summary["layers"] = result.num_layers
            summary["deadlock_free"] = result.deadlock_free
            report.results[name] = summary
            report.outcomes[name] = outcome
    return report


def cycle_link(packet_length: int = 1) -> LinkParams:
    """One flit per time unit, no propagation delay: DES times are cycles."""
    return LinkParams(bandwidth_bytes_per_s=1.0, propagation_s=0.0, mtu_bytes=packet_length)


def run_pattern(
    result, pattern, *, buffers: int | None, packets_per_flow: int = 1, packet_length: int = 1
) -> DesOutcome:
    """Send ``packets_per_flow`` packets per pattern pair at cycle 0 and run
    until the network drains or wedges (``status == "deadlock"``)."""
    if packets_per_flow < 1:
        raise SimulationError("packets_per_flow must be >= 1")
    des = PacketDES(result, link=cycle_link(packet_length), buffer_packets=buffers)
    return des.run(PatternWorkload(pattern, packets_per_flow * packet_length))


@dataclass(frozen=True)
class OpenLoopResult:
    """One offered load of :func:`saturation_sweep`."""

    offered_rate: float  # packets per source per cycle
    delivered_rate: float  # packets per source per cycle, measured window
    mean_latency: float  # cycles from flow start to delivery
    deadlocked: bool
    cycles: int

    @property
    def accepted_fraction(self) -> float:
        return self.delivered_rate / self.offered_rate if self.offered_rate else 0.0


def saturation_sweep(
    result, pattern, rates=(0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9), *, buffers: int | None = 2,
    packet_length: int = 1, warmup: int = 300, measure: int = 700, seed=None,
) -> list[OpenLoopResult]:
    """Bernoulli injection at each offered rate, one run of ``warmup +
    measure`` cycles per rate; throughput and latency count the packets
    delivered after the warm-up. The saturation throughput is where
    ``delivered_rate`` stops tracking ``offered_rate``."""
    out = []
    for rate in rates:
        wl = BernoulliWorkload(pattern, rate, warmup + measure, packet_length, seed)
        if not wl.sources:  # zero demand: nothing to inject or measure
            out.append(OpenLoopResult(rate, 0.0, 0.0, False, 0))
            continue
        des = PacketDES(result, link=cycle_link(packet_length), buffer_packets=buffers)
        run = des.run(wl, horizon_s=warmup + measure)
        start = {f.fid: f.start for f in wl.flows}
        lat = [v for fid, v in run.fct_seconds.items() if start[fid] + v > warmup]
        dead = run.status == "deadlock"
        mean = sum(lat) / len(lat) if lat else math.inf if dead else 0.0
        out.append(OpenLoopResult(rate, len(lat) / measure / len(wl.sources), mean, dead,
                                  int(run.time)))
    return out


def saturation_point(results: list[OpenLoopResult], tolerance: float = 0.9) -> float:
    """Largest offered rate still delivering >= ``tolerance`` of it."""
    ok = [r.offered_rate for r in results if not r.deadlocked and r.accepted_fraction >= tolerance]
    return max(ok, default=0.0)
