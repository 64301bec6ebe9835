#!/usr/bin/env python3
"""The paper's Section III deadlock, reproduced packet by packet.

A 5-switch ring, every node sending to the node two hops clockwise —
SSSP routes everything clockwise, the per-hop buffers fill, and the
network wedges into a circular wait (the paper's Figure 2). DFSSSP
splits the dependency cycle over two virtual lanes and the same traffic
drains.

The script shows the channel-dependency-graph view (the *prediction*)
and the packet-level simulation (the *observation*) side by side.

Run:  python examples/deadlock_demo.py
"""

from repro import (
    DFSSSPEngine,
    LayeredRouting,
    SSSPEngine,
    extract_paths,
    topologies,
    verify_deadlock_free,
)
from repro.des import run_pattern
from repro.simulator import shift_pattern


def describe(name, result, fabric, pattern):
    paths = extract_paths(result.tables)
    layered = result.layered or LayeredRouting.single_layer(result.tables)
    report = verify_deadlock_free(layered, paths)

    print(f"--- {name} ---")
    if report.deadlock_free:
        print("CDG analysis : every virtual layer is acyclic -> deadlock-free")
    else:
        cycle = report.cycles[0]
        pretty = " -> ".join(str(a) for a, _ in cycle) + f" -> {cycle[0][0]}"
        print(f"CDG analysis : cycle through channels {pretty}")

    out = run_pattern(result, pattern, buffers=1, packets_per_flow=8)
    print(f"packet-level : {out.status} after {out.time:g} cycles "
          f"({out.delivered} delivered, {out.in_network} stuck)")
    if out.waitfor_cycle:
        wait = " -> ".join(f"ch{c}/vl{v}" for c, v in out.waitfor_cycle)
        print(f"               circular wait: {wait}")
    print()
    return out


def main() -> None:
    fabric = topologies.ring(5, terminals_per_switch=1)
    pattern = shift_pattern(fabric, 2)  # everyone sends 2 hops clockwise
    print(f"fabric : {fabric}")
    print(f"traffic: {pattern}\n")

    sssp = describe("SSSP (1 virtual lane)", SSSPEngine().route(fabric), fabric, pattern)
    dfsssp = describe("DFSSSP (2 lanes needed)", DFSSSPEngine().route(fabric), fabric, pattern)

    assert sssp.status == "deadlock" and dfsssp.status == "completed"
    print("Conclusion: identical routes, identical traffic — the virtual-lane")
    print("assignment alone turns a guaranteed deadlock into full delivery.")


if __name__ == "__main__":
    main()
