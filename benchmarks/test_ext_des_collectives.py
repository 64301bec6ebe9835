"""Extension: packet-level AI-collective completion times, DFSSSP vs SSSP.

The paper compares routings by static edge-forwarding-index and
cycle-level drainage; the DES adds the metric modern AI fabrics actually tune for —
flow completion time of collectives under finite buffers. Each cell
routes the fabric once and replays the identical collective (same flow
schedule, same sizes) under both engines, reporting FCT p50/p99 and
delivered throughput. On the ring the SSSP column shows the paper's
Figure 2 credit deadlock at packet level; on XGFT and the torus both
complete and the comparison is pure timing.
"""

from conftest import emit, run_once

from repro import topologies
from repro.core import DFSSSPEngine, SSSPEngine
from repro.des import PacketDES, make_workload
from repro.utils.reporting import Table

_WORKLOADS = (
    ("ring_allreduce", {"size_bytes": 1 << 18}),
    ("alltoall", {"size_bytes": 1 << 15}),
)


def _experiment():
    fabrics = (
        ("xgft(2,(4,4),(1,2))", topologies.xgft(2, (4, 4), (1, 2))),
        ("torus 3x3", topologies.torus((3, 3), 1)),
    )
    table = Table(
        ["fabric", "workload", "engine", "status", "flows",
         "fct p50 [us]", "fct p99 [us]", "Gbytes/s"],
        title="DES — collective FCT under DFSSSP vs SSSP (finite buffers)",
    )
    p99 = {}
    for fab_name, fabric in fabrics:
        routed = (("sssp", SSSPEngine().route(fabric)),
                  ("dfsssp", DFSSSPEngine().route(fabric)))
        for kind, params in _WORKLOADS:
            for eng_name, result in routed:
                out = PacketDES(result, buffer_packets=8).run(
                    make_workload(kind, fabric, **params)
                )
                fct = out.fct_percentiles()
                table.add_row([
                    fab_name, kind, eng_name, out.status,
                    f"{out.flows_completed}/{out.flows_released}",
                    round(fct["p50"] * 1e6, 2),
                    round(fct["p99"] * 1e6, 2),
                    round(out.throughput_bytes_per_s / 1e9, 3),
                ])
                p99[(fab_name, kind, eng_name)] = (out.status, fct["p99"])
    return table, p99


def test_ext_des_collectives(benchmark):
    table, p99 = run_once(benchmark, _experiment)
    emit("ext_des_collectives", table.render(), table=table)
    for (fab, kind, eng), (status, value) in p99.items():
        assert status == "completed", f"{eng} wedged on {fab}/{kind}"
        assert value > 0
