"""Cross-module integration: the full engine x topology matrix.

This is the library-level contract the benchmark harnesses rely on:
every engine either produces complete tables on a topology (verified end
to end: extraction, deadlock check, congestion simulation, packet-level
delivery) or raises a typed error — never silently corrupt tables.
"""

import pytest

from repro import topologies
from repro.deadlock import verify_deadlock_free
from repro.exceptions import ReproError
from repro.routing import PAPER_ENGINES, extract_paths, make_engine
from repro.routing.base import LayeredRouting
from repro.des import run_pattern
from repro.simulator import CongestionSimulator, bisection_pattern

TOPOLOGIES = {
    "ring": lambda: topologies.ring(6, 1),
    "torus": lambda: topologies.torus((3, 3), 1),
    "hypercube": lambda: topologies.hypercube(3, 1),
    "ktree": lambda: topologies.kary_ntree(3, 2),
    "xgft": lambda: topologies.xgft(2, (3, 3), (1, 2)),
    "kautz": lambda: topologies.kautz(2, 2, 10),
    "random": lambda: topologies.random_topology(10, 22, 2, seed=4),
    "dragonfly": lambda: topologies.dragonfly(2, 1, 1),
    "deimos": lambda: topologies.deimos(scale=0.06),
    "grown": lambda: topologies.grown_cluster(growth_phases=2, seed=3),
    "thunderbird": lambda: topologies.thunderbird(scale=0.04),
}

#: engines that must succeed everywhere (the paper's universality claim)
UNIVERSAL = ("minhop", "sssp", "dfsssp", "lash")


@pytest.mark.parametrize("topo_name", sorted(TOPOLOGIES))
@pytest.mark.parametrize("engine_name", PAPER_ENGINES)
def test_engine_topology_matrix(topo_name, engine_name):
    fabric = TOPOLOGIES[topo_name]()
    try:
        result = make_engine(engine_name).route(fabric)
    except ReproError:
        assert engine_name not in UNIVERSAL, (
            f"{engine_name} must route {topo_name}"
        )
        return
    # Complete, loop-free tables.
    paths = extract_paths(result.tables)
    assert paths.num_paths == fabric.num_switches * fabric.num_terminals
    # Deadlock-freedom claims are honest.
    layered = result.layered or LayeredRouting.single_layer(result.tables)
    report = verify_deadlock_free(layered, paths)
    if result.deadlock_free:
        assert report.deadlock_free, f"{engine_name} lied about {topo_name}"
    # The congestion simulator accepts the tables.
    sim = CongestionSimulator(result.tables, paths)
    ebb = sim.effective_bisection_bandwidth(3, seed=0)
    assert 0 < ebb.ebb <= 1.0 + 1e-9


@pytest.mark.parametrize("topo_name", ["ring", "torus", "random"])
def test_deadlock_free_engines_deliver_under_pressure(topo_name):
    """Packet-level end-to-end: deadlock-free engines always drain."""
    fabric = TOPOLOGIES[topo_name]()
    for engine_name in ("updown", "lash", "dfsssp"):
        result = make_engine(engine_name).route(fabric)
        pattern = bisection_pattern(fabric, seed=1, bidirectional=True)
        out = run_pattern(result, pattern, buffers=1, packets_per_flow=5)
        assert out.status == "completed", f"{engine_name} on {topo_name}: {out.status}"


def test_dfsssp_dominates_updown_in_bandwidth():
    """Qualitative Figure 4 shape on an irregular fabric."""
    fabric = topologies.random_topology(12, 26, 3, seed=6)
    ebbs = {}
    for engine_name in ("updown", "dfsssp"):
        result = make_engine(engine_name).route(fabric)
        sim = CongestionSimulator(result.tables)
        ebbs[engine_name] = sim.effective_bisection_bandwidth(20, seed=2).ebb
    assert ebbs["dfsssp"] >= ebbs["updown"]


def test_full_pipeline_on_degraded_fabric():
    """The paper's motivation: after failures, specialised engines give
    up while DFSSSP keeps routing deadlock-free."""
    from repro.network import fail_links
    from repro.exceptions import UnsupportedTopologyError

    fabric = topologies.torus((4, 4), 1)
    degraded = fail_links(fabric, 3, seed=3).fabric
    with pytest.raises(UnsupportedTopologyError):
        make_engine("dor").route(degraded)
    result = make_engine("dfsssp").route(degraded)
    paths = extract_paths(result.tables)
    assert verify_deadlock_free(result.layered, paths).deadlock_free


def test_io_roundtrip_preserves_routing(tmp_path):
    """Saving + loading a fabric must not change routing decisions."""
    from repro.network import load_fabric, save_fabric

    fabric = topologies.random_topology(8, 18, 2, seed=9)
    p = tmp_path / "f.json"
    save_fabric(fabric, p)
    loaded = load_fabric(p)
    a = make_engine("dfsssp").route(fabric)
    b = make_engine("dfsssp").route(loaded)
    assert (a.tables.next_channel == b.tables.next_channel).all()
    assert (a.layered.path_layers == b.layered.path_layers).all()
