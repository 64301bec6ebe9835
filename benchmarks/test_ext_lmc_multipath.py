"""Extension: LMC multipathing (the OpenSM deployment knob).

The paper's production DFSSSP in OpenSM supports LMC > 0: each endpoint
owns 2^lmc LIDs, each routed as an independent balanced destination, and
MPI stacks stripe traffic over them. We sweep lmc 0..2 on the asymmetric
Ranger lookalike and record mean and worst-flow effective bandwidth —
the expected shape is a monotone improvement of the *tail* (worst flow),
with joint deadlock-freedom maintained across all planes.
"""

from conftest import CLUSTER_SCALES, EBB_PATTERNS, emit, run_once

from repro import topologies
from repro.core import MultipathDFSSSPEngine
from repro.simulator import MultipathCongestionSimulator, shift_pattern
from repro.utils.reporting import Table


def _experiment():
    fabric = topologies.ranger(scale=CLUSTER_SCALES["ranger"])
    table = Table(
        ["lmc", "planes", "VLs", "eBB", "worst shift-1 flow", "deadlock-free"],
        title="Extension — LMC multipath striping on Ranger",
        precision=3,
    )
    data = {}
    pattern = shift_pattern(fabric, 1)
    for lmc in (0, 1, 2):
        routing = MultipathDFSSSPEngine(lmc=lmc).route(fabric)
        free = routing.verify_deadlock_free()
        sim = MultipathCongestionSimulator(routing, mode="stripe")
        ebb = sim.effective_bisection_bandwidth(EBB_PATTERNS, seed=31).ebb
        worst = sim.evaluate(pattern).min_bandwidth
        table.add_row([lmc, routing.num_planes, routing.stats["layers_needed"], ebb, worst, free])
        data[lmc] = (ebb, worst, free, routing.stats["layers_needed"])
    return table, data


def test_ext_lmc_multipath(benchmark):
    table, data = run_once(benchmark, _experiment)
    emit("ext_lmc_multipath", table.render(), table=table)
    for lmc, (ebb, worst, free, layers) in data.items():
        assert free, f"lmc={lmc} planes are not jointly deadlock-free"
        assert layers <= 8
    # Striping never hurts the tail and helps at lmc >= 1.
    assert data[1][1] >= data[0][1]
    assert data[2][1] >= data[0][1]
    # Mean eBB is at least preserved.
    assert data[2][0] >= 0.97 * data[0][0]
