"""Extension: saturation throughput of routed fabrics (packet DES, cycle level).

The paper evaluates static congestion (ORCS); this extension drives the
routed network dynamically — Bernoulli injection at increasing offered
loads — and records delivered throughput and latency until saturation.
Expected shape: DFSSSP sustains at least Up*/Down*'s load on an irregular
fabric (its balanced routes postpone the first hot channel), and latency
stays flat below saturation then climbs.
"""

from conftest import emit, run_once

from repro import topologies
from repro.core import DFSSSPEngine
from repro.des import saturation_point, saturation_sweep
from repro.routing import UpDownEngine
from repro.simulator import permutation_pattern
from repro.utils.reporting import Table

RATES = [0.05, 0.15, 0.3, 0.5, 0.8]


def _experiment():
    fabric = topologies.random_topology(14, 30, 2, seed=17)
    pattern = permutation_pattern(fabric, seed=3)
    engines = {
        "updown": UpDownEngine().route(fabric),
        "dfsssp": DFSSSPEngine().route(fabric),
    }
    table = Table(
        ["engine", "offered", "delivered", "latency [cyc]", "deadlocked"],
        title="Extension — open-loop saturation sweep (random fabric, permutation traffic)",
        precision=3,
    )
    data = {}
    for name, result in engines.items():
        sweep = saturation_sweep(
            result, pattern, RATES, buffers=2, warmup=200, measure=500, seed=5
        )
        for r in sweep:
            table.add_row([name, r.offered_rate, r.delivered_rate, r.mean_latency, r.deadlocked])
        data[name] = sweep
    return table, data


def test_ext_saturation(benchmark):
    table, data = run_once(benchmark, _experiment)
    emit("ext_saturation", table.render(), table=table)
    for name, sweep in data.items():
        assert not any(r.deadlocked for r in sweep), f"{name} wedged"
        # Latency below saturation is near-minimal, then rises.
        assert sweep[-1].mean_latency >= sweep[0].mean_latency
    sat_df = saturation_point(data["dfsssp"])
    sat_ud = saturation_point(data["updown"])
    assert sat_df >= sat_ud, f"DFSSSP saturates earlier ({sat_df}) than Up*/Down* ({sat_ud})"
