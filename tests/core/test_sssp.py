"""SSSP routing (Algorithm 1): minimality, balancing, determinism."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import topologies
from repro.analysis import routing_utilization
from repro.core import SSSPEngine
from repro.routing import MinHopEngine, extract_paths, path_minimality_violations


@pytest.mark.parametrize(
    "fabric_factory",
    [
        lambda: topologies.ring(7, 1),
        lambda: topologies.torus((3, 3), 2),
        lambda: topologies.kary_ntree(3, 2),
        lambda: topologies.kautz(2, 2, 10),
        lambda: topologies.random_topology(12, 26, 2, seed=2),
        lambda: topologies.deimos(scale=0.08),
    ],
)
def test_hop_minimal_everywhere(fabric_factory):
    """The W0 = T^2 + 1 initial weight forbids detours (§II)."""
    fabric = fabric_factory()
    result = SSSPEngine().route(fabric)
    paths = extract_paths(result.tables)
    assert path_minimality_violations(result.tables, paths) == 0


def test_complete_tables(random16):
    result = SSSPEngine().route(random16)
    paths = extract_paths(result.tables)
    assert paths.num_paths == random16.num_switches * random16.num_terminals


def test_not_deadlock_free_claim(sssp_ring5):
    assert sssp_ring5.deadlock_free is False
    assert sssp_ring5.layered is None


def test_option_surface():
    """Destination order and source counting are the paper's, not knobs."""
    assert list(inspect.signature(SSSPEngine).parameters) == ["workers", "kernel"]


def test_defaults_are_the_production_step():
    engine = SSSPEngine()
    assert (engine.kernel, engine.workers) == ("numpy", 0)


def test_a_route_starts_no_thread_whatever_its_workers():
    """``workers`` is accepted and inert: in a fresh interpreter, SSSP and
    DFSSSP routes with ``workers`` 0 and 2 start no thread and load no
    thread or process pool."""
    probe = (
        "import sys, threading\n"
        "started = []\n"
        "start = threading.Thread.start\n"
        "threading.Thread.start = lambda self: (started.append(self.name), start(self))\n"
        "from repro import topologies\n"
        "from repro.core import DFSSSPEngine, SSSPEngine\n"
        "fabric = topologies.xgft(2, (4, 4), (1, 2))\n"
        "for workers in (0, 2):\n"
        "    SSSPEngine(workers=workers).route(fabric)\n"
        "    DFSSSPEngine(workers=workers).route(fabric)\n"
        "print(started, sorted({'concurrent.futures.thread', 'multiprocessing.pool'}\n"
        "                      & set(sys.modules)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] []"


def test_deterministic(random16):
    a = SSSPEngine().route(random16).tables.next_channel
    b = SSSPEngine().route(random16).tables.next_channel
    assert (a == b).all()


def test_balancing_weight_accumulates(sssp_ring5):
    assert sssp_ring5.stats["total_balancing_weight"] > 0


def test_spreads_trunk_load():
    """Global balancing must use all parallel cables of a trunk."""
    from repro.network import FabricBuilder

    b = FabricBuilder()
    s0, s1 = b.add_switch(), b.add_switch()
    b.add_link(s0, s1, count=4)
    for i in range(12):
        t = b.add_terminal()
        b.add_link(t, s0 if i < 6 else s1)
    fab = b.build()
    result = SSSPEngine().route(fab)
    paths = extract_paths(result.tables)
    counts = np.bincount(paths.chans, minlength=fab.num_channels)
    trunk = fab.channels_between(s0, s1)
    trunk_counts = counts[trunk]
    assert trunk_counts.min() > 0
    assert trunk_counts.max() <= 2 * trunk_counts.min()


def test_better_global_balance_than_minhop_on_asymmetric_fabric():
    """The paper's core claim: SSSP flattens utilization where MinHop's
    local view cannot (Ranger-style asymmetric cores)."""
    fab = topologies.ranger(scale=0.06)
    sssp_util = routing_utilization(SSSPEngine().route(fab).tables)
    minhop_util = routing_utilization(MinHopEngine().route(fab).tables)
    assert sssp_util.maximum <= minhop_util.maximum


def test_subtree_weight_update_counts_terminal_sources(ring5):
    """On a symmetric directed ring, total added weight must equal the sum
    of all path lengths between terminal pairs."""
    result = SSSPEngine().route(ring5)
    paths = extract_paths(result.tables)
    # added weight = sum over dest of per-dest path-hop totals from
    # *terminal* sources only = sum over (src_term, dst_term) hop counts
    total = 0
    for t_dst in ring5.terminals:
        for t_src in ring5.terminals:
            if t_src == t_dst:
                continue
            total += result.tables.hops(int(t_src), int(t_dst))
    assert result.stats["total_balancing_weight"] == total


@pytest.mark.parametrize(
    "fabric_factory",
    [
        lambda: topologies.random_topology(12, 26, 2, seed=2),
        lambda: topologies.chic(scale=0.1),  # dual-homed storage nodes: not leaves
    ],
)
def test_weight_update_counter_is_the_per_column_sum(fabric_factory):
    """``sssp_edge_weight_updates`` grows once per route, by the table's
    entries: the per-column parent counts the heap reference reports."""
    from repro.obs import get_hooks, get_registry

    fabric = fabric_factory()
    reg, hooks = get_registry(), get_hooks()

    def updates():
        return reg.value("sssp_edge_weight_updates", default=0)

    seen: list[dict] = []
    handler = hooks.on_iteration(seen.append)
    try:
        before = updates()
        SSSPEngine(kernel="python").route(fabric)
        reference = updates() - before
    finally:
        hooks.unsubscribe("iteration", handler)
    assert len(seen) == fabric.num_terminals
    assert reference == sum(e["weight_updates"] for e in seen) > 0

    before = updates()
    result = SSSPEngine().route(fabric)
    assert updates() - before == reference
    assert reference == np.count_nonzero(result.tables.next_channel >= 0)
