"""Incremental repair: correctness vs a full reroute, escalation, fallbacks."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro import topologies
from repro.core import DFSSSPEngine, SSSPEngine
from repro.deadlock import verify_deadlock_free
from repro.exceptions import ComputeTimeoutError, RepairError
from repro.network import fail_links, fail_switches, identity_degradation
from repro.network.faults import DegradedFabric
from repro.obs import MetricsRegistry, set_registry
from repro.resilience import (
    FaultInjector,
    relative_degradation,
    repair as repair_mod,
    repair_routing,
    translate_tables,
)
from repro.routing import extract_paths, path_minimality_violations
from repro.service.budget import compute_budget


@pytest.fixture()
def fresh_registry():
    reg = MetricsRegistry()
    old = set_registry(reg)
    yield reg
    set_registry(old)


@pytest.fixture(scope="module")
def sssp_random16(random16):
    return SSSPEngine().route(random16)


@pytest.fixture(scope="module")
def one_link_down(random16):
    return fail_links(random16, 1, seed=3)


def test_translate_tables_flags_only_broken_columns(sssp_random16, one_link_down, random16):
    next_channel, affected = translate_tables(sssp_random16, one_link_down)
    T = random16.num_terminals
    assert 0 < len(affected) < T
    # Unaffected columns came over complete: every surviving node has an
    # entry except the destination's own column positions legitimately -1.
    old_nc = sssp_random16.tables.next_channel
    unaffected = np.setdiff1d(np.arange(T), affected)
    for t_idx in unaffected:
        old_col = old_nc[:, t_idx]
        new_col = next_channel[:, t_idx]
        assert (new_col >= 0).sum() == (old_col >= 0).sum()


def test_repair_matches_full_reroute_minimality(sssp_random16, one_link_down):
    engine = SSSPEngine()
    repaired = repair_routing(sssp_random16, one_link_down, engine_name="sssp")
    full = engine.route(one_link_down.fabric)
    paths_r = extract_paths(repaired.tables)
    paths_f = extract_paths(full.tables)
    # Both are hop-minimal, so per-pair path lengths agree exactly.
    assert (paths_r.lengths() == paths_f.lengths()).all()
    assert path_minimality_violations(repaired.tables, paths_r) == 0


def test_repair_stats_and_weights(sssp_random16, one_link_down, random16):
    repaired = repair_routing(sssp_random16, one_link_down, engine_name="sssp")
    rep = repaired.stats["repair"]
    assert 0 < rep["destinations_repaired"] < rep["destinations_total"]
    assert rep["destinations_total"] == random16.num_terminals
    assert 0.0 < rep["fraction"] < 1.0
    assert repaired.channel_weights is not None
    assert len(repaired.channel_weights) == one_link_down.fabric.num_channels


def test_repair_counters_strictly_fewer_than_full(
    fresh_registry, sssp_random16, one_link_down
):
    repair_routing(sssp_random16, one_link_down, engine_name="sssp")
    recomputed = fresh_registry.value("repair_destinations_recomputed")
    total = fresh_registry.value("repair_destinations_total")
    assert recomputed is not None and total is not None
    assert recomputed < total  # the whole point of incremental repair
    assert fresh_registry.value("repair_seconds") == 1  # one histogram observation


def test_dfsssp_repair_stays_deadlock_free(random16):
    engine = DFSSSPEngine()
    prior = engine.route(random16)
    degraded = fail_links(random16, 1, seed=3)
    repaired = repair_routing(prior, degraded, engine_name="dfsssp")
    assert repaired.deadlock_free
    paths = extract_paths(repaired.tables)
    assert verify_deadlock_free(repaired.layered, paths).deadlock_free
    assert repaired.layered.num_layers == prior.layered.num_layers
    assert path_minimality_violations(repaired.tables, paths) == 0


def test_dfsssp_repair_survives_switch_down(ktree42):
    engine = DFSSSPEngine()
    prior = engine.route(ktree42)
    degraded = fail_switches(ktree42, 1, seed=3)
    repaired = repair_routing(prior, degraded, engine_name="dfsssp")
    paths = extract_paths(repaired.tables)
    assert verify_deadlock_free(repaired.layered, paths).deadlock_free
    # Destination columns routing through the dead switch were recomputed.
    assert repaired.stats["repair"]["destinations_repaired"] > 0


def test_repair_escalates_paths_when_old_layer_cycles():
    # Scanned configuration where re-inserted paths cannot all keep their
    # old layers: unbalanced DFSSSP on a sparse random 10-switch fabric.
    fabric = topologies.random_topology(10, 22, 2, seed=1)
    engine = DFSSSPEngine(balance=False)
    prior = engine.route(fabric)
    degraded = fail_links(fabric, 2, seed=4)
    repaired = repair_routing(prior, degraded, engine_name="dfsssp")
    assert repaired.stats["repair"]["escalations"] > 0
    paths = extract_paths(repaired.tables)
    assert verify_deadlock_free(repaired.layered, paths).deadlock_free


def test_repair_rejects_missing_channel_map(sssp_random16, one_link_down):
    stripped = DegradedFabric(
        fabric=one_link_down.fabric,
        node_map=one_link_down.node_map,
        removed_cables=one_link_down.removed_cables,
        removed_switches=one_link_down.removed_switches,
        channel_map=None,
    )
    with pytest.raises(RepairError, match="no channel map"):
        repair_routing(sssp_random16, stripped, engine_name="sssp")


def test_repair_rejects_foreign_degradation(sssp_random16, ring5):
    with pytest.raises(RepairError, match="does not derive"):
        repair_routing(sssp_random16, identity_degradation(ring5), engine_name="sssp")


def test_repair_rejects_link_up(random16, one_link_down):
    # Route on the degraded fabric, then "repair" towards the healthy one:
    # the fabric gained channels, which incremental repair cannot splice.
    prior = SSSPEngine().route(one_link_down.fabric)
    back_up = relative_degradation(one_link_down, identity_degradation(random16))
    with pytest.raises(RepairError, match="gained channels"):
        repair_routing(prior, back_up, engine_name="sssp")


def test_engine_reroute_falls_back_on_repair_error(
    fresh_registry, sssp_random16, one_link_down
):
    stripped = DegradedFabric(
        fabric=one_link_down.fabric,
        node_map=one_link_down.node_map,
        removed_cables=one_link_down.removed_cables,
        removed_switches=one_link_down.removed_switches,
        channel_map=None,
    )
    result = SSSPEngine().reroute(sssp_random16, stripped)
    # Full reroute happened (no repair stats) and the fallback was counted.
    assert "repair" not in result.stats
    assert extract_paths(result.tables).num_paths > 0
    assert (
        fresh_registry.value("repair_full_fallbacks", engine="sssp", reason="RepairError") == 1
    )


def test_engine_reroute_uses_incremental_path(sssp_random16, one_link_down):
    result = SSSPEngine().reroute(sssp_random16, one_link_down)
    assert result.stats["repair"]["destinations_repaired"] > 0


def test_engine_reroute_without_prior_routes_fully(one_link_down):
    result = SSSPEngine().reroute(None, one_link_down)
    assert "repair" not in result.stats
    assert extract_paths(result.tables).num_paths > 0


def test_generic_engine_reroute_is_full_route(random16, one_link_down):
    from repro.routing import MinHopEngine

    engine = MinHopEngine()
    assert not engine.supports_incremental_reroute
    prior = engine.route(random16)
    result = engine.reroute(prior, one_link_down)
    assert "repair" not in result.stats
    assert result.tables.fabric is one_link_down.fabric


def test_chained_repairs_compose(random16):
    engine = DFSSSPEngine()
    result = engine.route(random16)
    injector = FaultInjector(random16, seed=6, p_switch_down=0.0, p_link_up=0.0)
    prev = injector.current
    for _ in range(3):
        stepped = injector.step()
        assert stepped is not None
        _, cur = stepped
        result = engine.reroute(result, relative_degradation(prev, cur))
        paths = extract_paths(result.tables)
        assert verify_deadlock_free(result.layered, paths).deadlock_free
        assert path_minimality_violations(result.tables, paths) == 0
        prev = cur
    assert result.stats.get("repair"), "last step should still be incremental"


# ----------------------------------------------------------------------
# Array repair path vs the sequential reference
# ----------------------------------------------------------------------
def _sequential_reference(monkeypatch, prior, degraded, **kwargs):
    """``repair_routing`` the slow way: heap Dijkstra per column, and the
    batch layer check reported as failed so that every repaired path is
    re-inserted one DFS at a time."""
    real = repair_mod.verify_deadlock_free
    calls = []

    def first_check_fails(layered, paths):
        calls.append(1)
        if len(calls) == 1:
            return SimpleNamespace(deadlock_free=False)
        return real(layered, paths)

    with monkeypatch.context() as patch:
        patch.setattr(repair_mod, "verify_deadlock_free", first_check_fails)
        return repair_routing(prior, degraded, kernel="python", **kwargs)


def _assert_same_repair(got, want):
    assert np.array_equal(got.tables.next_channel, want.tables.next_channel)
    assert np.array_equal(got.channel_weights, want.channel_weights)
    if want.layered is None:
        assert got.layered is None
    else:
        assert np.array_equal(got.layered.path_layers, want.layered.path_layers)
    timeless = [
        {k: v for k, v in r.stats["repair"].items() if k != "time_repair_s"}
        for r in (got, want)
    ]
    assert timeless[0] == timeless[1]


@pytest.mark.parametrize(
    "build",
    [
        lambda: topologies.random_topology(16, 34, terminals_per_switch=3, seed=42),
        lambda: topologies.kary_ntree(4, 2),
        lambda: topologies.xgft(2, (4, 4), (1, 2)),
        lambda: topologies.xgft(3, (4, 4, 4), (1, 2, 2)),
    ],
    ids=["random16", "ktree42", "xgft", "xgft3"],
)
@pytest.mark.parametrize("engine_cls", [SSSPEngine, DFSSSPEngine])
def test_repair_bit_identical_to_sequential_reference(monkeypatch, build, engine_cls):
    """Chained fault stream: every step of the array path (numpy column
    routine, batch layer check) equals the sequential reference."""
    fabric = build()
    result = engine_cls(kernel="numpy").route(fabric)
    injector = FaultInjector(fabric, seed=6, p_switch_down=0.15, p_link_up=0.0)
    prev = injector.current
    for _ in range(4):
        stepped = injector.step()
        if stepped is None:
            break
        _, cur = stepped
        rel = relative_degradation(prev, cur)
        want = _sequential_reference(monkeypatch, result, rel, engine_name=engine_cls.name)
        got = repair_routing(result, rel, engine_name=engine_cls.name, kernel="numpy")
        _assert_same_repair(got, want)
        assert got.stats["repair"]["destinations_repaired"] > 0
        result, prev = got, cur


def test_repair_slow_path_matches_sequential_reference(monkeypatch):
    """The escalation fabric: the batch check finds a cyclic layer, the
    one-at-a-time loop runs, and the outcome is the reference's."""
    fabric = topologies.random_topology(10, 22, 2, seed=1)
    prior = DFSSSPEngine(balance=False, kernel="numpy").route(fabric)
    degraded = fail_links(fabric, 2, seed=4)
    want = _sequential_reference(monkeypatch, prior, degraded, engine_name="dfsssp")

    slow_path = []
    real = repair_mod._insert_sequentially
    monkeypatch.setattr(
        repair_mod, "_insert_sequentially",
        lambda *a: slow_path.append(1) or real(*a),
    )
    got = repair_routing(prior, degraded, engine_name="dfsssp", kernel="numpy")
    assert slow_path == [1]
    assert got.stats["repair"]["escalations"] > 0
    _assert_same_repair(got, want)


def test_repair_fast_path_skips_sequential_insertion(monkeypatch, random16):
    prior = DFSSSPEngine().route(random16)
    monkeypatch.setattr(
        repair_mod, "_insert_sequentially",
        lambda *a: pytest.fail("batch check passed; nothing to insert one by one"),
    )
    repaired = repair_routing(prior, fail_links(random16, 1, seed=3), engine_name="dfsssp")
    assert repaired.stats["repair"]["escalations"] == 0


def test_repair_falls_back_to_dijkstra_when_validation_fails(
    monkeypatch, fresh_registry, sssp_random16, one_link_down
):
    """Weights that make detours cheaper than hop-minimal routes: the
    min-hop-DAG candidate is no Bellman fixpoint, so the column routine
    must run the full Dijkstra — and still equal the heap reference."""
    heavy = sssp_random16.channel_weights.copy()
    w0 = int(heavy.min())
    switch_channels = np.flatnonzero(sssp_random16.tables.fabric.is_switch_channel)
    heavy[switch_channels[::3]] += 5 * w0
    prior = replace(sssp_random16, channel_weights=heavy)
    want = _sequential_reference(monkeypatch, prior, one_link_down, engine_name="sssp")
    got = repair_routing(prior, one_link_down, engine_name="sssp", kernel="numpy")
    assert fresh_registry.value("routing_parallel_fallbacks", engine="sssp") > 0
    _assert_same_repair(got, want)


@pytest.mark.parametrize("kernel", ["python", "numpy"])
def test_repair_column_loop_polls_the_budget(kernel, sssp_random16, one_link_down):
    with pytest.raises(ComputeTimeoutError):
        with compute_budget(0.0, label="repair"):
            repair_routing(sssp_random16, one_link_down, engine_name="sssp", kernel=kernel)


def test_repair_layer_check_polls_the_budget(random16):
    """No column to re-route (nothing died), so the first poll an expired
    budget can trip is the layer check's."""
    prior = DFSSSPEngine().route(random16)
    with pytest.raises(ComputeTimeoutError):
        with compute_budget(0.0, label="repair"):
            repair_routing(prior, identity_degradation(random16), engine_name="dfsssp")


def test_engine_reroute_hands_its_kernel_to_repair(monkeypatch, random16, one_link_down):
    seen = []
    real = repair_mod.column_routine
    monkeypatch.setattr(
        repair_mod, "column_routine",
        lambda fabric, kernel, engine, order: seen.append(kernel) or real(fabric, kernel, engine, order),
    )
    for engine in (SSSPEngine(kernel="numpy"), DFSSSPEngine(kernel="numpy"), SSSPEngine(kernel="python")):
        engine.reroute(engine.route(random16), one_link_down)
    assert seen == ["numpy", "numpy", "python"]
