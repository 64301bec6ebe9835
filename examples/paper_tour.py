#!/usr/bin/env python3
"""The whole paper in one sitting — a guided tour of every claim.

Runs miniature versions of each of the paper's arguments in order,
printing what the paper asserts and what this reproduction measures:

  1. §II   SSSP balances globally and stays hop-minimal.
  2. §III  SSSP can deadlock (the Figure 2 ring, packet by packet).
  3. §III-A/Thm. 1  Lane minimisation is graph coloring in disguise.
  4. §IV   DFSSSP breaks every cycle with few lanes (weakest-edge wins).
  5. §V    Bandwidth: DFSSSP vs the OpenSM engines on an irregular fabric.
  6. §VI   Application view: all-to-all completion times.

Run:  python examples/paper_tour.py   (~30 s)
"""

from repro import topologies
from repro.analysis import path_stats, routing_utilization
from repro.apps import alltoall_time
from repro.core import (
    DFSSSPEngine,
    SSSPEngine,
    chromatic_number,
    coloring_to_app,
    minimum_cover,
)
from repro.deadlock import verify_deadlock_free
from repro.exceptions import ReproError
from repro.routing import PAPER_ENGINES, extract_paths, make_engine
from repro.des import run_pattern
from repro.simulator import CongestionSimulator, shift_pattern


def section(title):
    print()
    print(f"=== {title} ===")


def main() -> None:
    section("1. SSSP: global balance, minimal hops (paper §II)")
    fabric = topologies.ranger(scale=0.05)
    sssp = SSSPEngine().route(fabric)
    minhop = make_engine("minhop").route(fabric)
    for name, result in (("minhop", minhop), ("sssp", sssp)):
        stats = path_stats(result.tables)
        util = routing_utilization(result.tables)
        print(
            f"  {name:7s} mean hops={stats.mean_hops:.2f} "
            f"minimal={stats.minimal}  max link load={util.maximum}"
        )
    assert path_stats(sssp.tables).minimal

    section("2. The ring deadlock (paper §III, Figure 2)")
    ring = topologies.ring(5, 1)
    pattern = shift_pattern(ring, 2)
    wedged = run_pattern(SSSPEngine().route(ring), pattern, buffers=1, packets_per_flow=8)
    drained = run_pattern(DFSSSPEngine().route(ring), pattern, buffers=1, packets_per_flow=8)
    print(f"  SSSP   : {wedged.status} (circular wait of {len(wedged.waitfor_cycle)} buffers)")
    print(f"  DFSSSP : {drained.status} ({drained.delivered} packets)")

    section("3. Lane minimisation is NP-complete (Theorem 1)")
    nodes, edges = ["u", "v", "w"], [("u", "v"), ("v", "w"), ("u", "w")]
    instance, _ = coloring_to_app(nodes, edges)
    k, _witness = minimum_cover(instance)
    print(f"  triangle graph: chromatic number={chromatic_number(nodes, edges)}, "
          f"APP minimum cover={k}  (equal, as the reduction demands)")

    section("4. DFSSSP lane demand (paper §IV heuristics)")
    irregular = topologies.random_topology(16, 36, 3, seed=11)
    for heuristic in ("weakest", "first", "strongest"):
        r = DFSSSPEngine(heuristic=heuristic, balance=False, max_layers=16).route(irregular)
        print(f"  {heuristic:9s}: {r.stats['layers_needed']} lanes")

    section("5. Effective bisection bandwidth (paper §V, Fig. 4 style)")
    for name in PAPER_ENGINES:
        try:
            result = make_engine(name).route(fabric)
            paths = extract_paths(result.tables)
            if result.layered is not None:
                assert verify_deadlock_free(result.layered, paths).deadlock_free
            ebb = CongestionSimulator(result.tables, paths).effective_bisection_bandwidth(
                20, seed=5
            )
            print(f"  {name:7s} eBB = {ebb.ebb:.3f}")
        except ReproError as err:
            print(f"  {name:7s} failed ({type(err).__name__}) — the paper's missing bar")

    section("6. Application view: all-to-all (paper §VI, Fig. 13 style)")
    participants = [int(t) for t in fabric.terminals[:: max(1, fabric.num_terminals // 32)]][:32]
    for name in ("minhop", "dfsssp"):
        tables = make_engine(name).route(fabric).tables
        t = alltoall_time(tables, participants, floats_per_dest=4096)
        print(f"  {name:7s} 32-rank all-to-all @4096 floats: {t.total_ms:.2f} ms")

    print()
    print("Tour complete — see benchmarks/ for the full-figure harnesses and")
    print("EXPERIMENTS.md for the paper-vs-measured record.")


if __name__ == "__main__":
    main()
