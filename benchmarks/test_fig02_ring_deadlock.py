"""Figure 2 / §III: the ring deadlock, made observable.

The paper argues (Figure 2) that SSSP on a 5-node ring with a 2-hop
clockwise shift fills all buffers into a circular wait. We run that exact
configuration on the packet DES at cycle level for both SSSP (expect: a
deadlock with a 5-queue credit wait-for cycle) and DFSSSP (expect: all
packets delivered), at several buffer depths.
"""

from conftest import emit, run_once

from repro import topologies
from repro.core import DFSSSPEngine, SSSPEngine
from repro.des import run_pattern
from repro.simulator import shift_pattern
from repro.utils.reporting import Table


def _experiment():
    fabric = topologies.ring(5, terminals_per_switch=1)
    pattern = shift_pattern(fabric, 2)
    table = Table(
        ["routing", "buffers", "status", "cycles", "delivered", "waitfor-cycle-len"],
        title="Fig. 2 — 5-ring, 2-hop clockwise shift, 8 packets/flow",
    )
    outcomes = {}
    for name, result in (
        ("sssp", SSSPEngine().route(fabric)),
        ("dfsssp", DFSSSPEngine().route(fabric)),
    ):
        for buffers in (1, 2, 4):
            out = run_pattern(result, pattern, buffers=buffers, packets_per_flow=8)
            table.add_row(
                [name, buffers, out.status, int(out.time), out.delivered, len(out.waitfor_cycle)]
            )
            outcomes[(name, buffers)] = out
    return table, outcomes


def test_fig02_ring_deadlock(benchmark):
    table, outcomes = run_once(benchmark, _experiment)
    emit("fig02_ring_deadlock", table.render(), table=table)
    # Paper shape: SSSP deadlocks at every finite buffer depth, with the
    # whole ring of queues in the wait-for cycle; DFSSSP always drains.
    for buffers in (1, 2, 4):
        assert outcomes[("sssp", buffers)].status == "deadlock"
        assert len(outcomes[("sssp", buffers)].waitfor_cycle) == 5
        assert outcomes[("dfsssp", buffers)].status == "completed"
