"""Extension/ablation: Algorithm 2's final layer-balancing step.

After cycle breaking, DFSSSP spreads paths over the *unused* virtual
lanes ("balance paths on empty CDGs without additional cycle search").
Layer choice never changes routes, so congestion-model bandwidth is
identical — the payoff is buffer-level: spreading traffic over more
lanes means more independent buffer pools per channel in the packet
DES, hence fewer head-of-line stalls and faster drainage. The ablation
runs identical traffic with balancing on and off, at cycle level.
"""

from conftest import emit, run_once

from repro import topologies
from repro.core import DFSSSPEngine
from repro.des import run_pattern
from repro.simulator import bisection_pattern
from repro.utils.reporting import Table


def _experiment():
    fabric = topologies.random_topology(14, 30, 3, seed=21)
    on = DFSSSPEngine(max_layers=8, balance=True).route(fabric)
    off = DFSSSPEngine(max_layers=8, balance=False).route(fabric)
    assert (on.tables.next_channel == off.tables.next_channel).all()

    table = Table(
        ["variant", "lanes used", "pattern", "cycles to drain"],
        title="Ablation — Algorithm 2 layer balancing (identical routes/traffic)",
    )
    totals = {"balanced": 0, "compact": 0}
    for seed in range(3):
        pattern = bisection_pattern(fabric, seed=seed, bidirectional=True)
        for name, result in (("balanced", on), ("compact", off)):
            out = run_pattern(result, pattern, buffers=1, packets_per_flow=6)
            assert out.status == "completed"
            table.add_row([name, result.layered.layers_used, seed, int(out.time)])
            totals[name] += int(out.time)
    return table, totals


def test_ext_ablation_balance(benchmark):
    table, totals = run_once(benchmark, _experiment)
    emit("ext_ablation_balance", table.render(), table=table)
    # Spreading over more lanes must not slow delivery down; typically it
    # helps by reducing head-of-line blocking.
    assert totals["balanced"] <= totals["compact"] * 1.05
