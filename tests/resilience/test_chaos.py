"""Chaos soak harness: survival, reporting, graceful engine deaths."""

import json

import pytest

from repro import topologies
from repro.core import DFSSSPEngine, SSSPEngine
from repro.obs import MetricsRegistry, set_registry
from repro.resilience import ChaosRunner
from repro.routing import DOREngine, MinHopEngine


@pytest.fixture(autouse=True)
def fresh_registry():
    old = set_registry(MetricsRegistry())
    yield
    set_registry(old)


def test_acceptance_soak_200_events_stays_deadlock_free():
    """ISSUE acceptance: a 200-event seeded soak on a random topology with
    >= 12 switches keeps DFSSSP deadlock-free via incremental repair, with
    zero unreached surviving pairs (verified independently per event)."""
    fabric = topologies.random_topology(12, 26, terminals_per_switch=2, seed=11)
    report = ChaosRunner(DFSSSPEngine()).run(fabric, num_events=200, seed=7)
    assert report.survived, report.failure
    summary = report.summary()
    assert summary["events_applied"] == 200
    assert summary["incremental_repairs"] > summary["full_reroutes"]
    # ChaosRunner._verify re-extracts every path after every event: a single
    # unreached surviving pair would have flipped survived to False.
    for record in report.records:
        assert record.error is None
        if record.deadlock_free is not None:
            assert record.deadlock_free


def test_soak_exercises_switch_down_and_repairs(ktree42):
    report = ChaosRunner(DFSSSPEngine()).run(
        ktree42, num_events=20, seed=2, p_switch_down=0.6
    )
    assert report.survived, report.failure
    summary = report.summary()
    assert summary["events_by_kind"].get("switch_down", 0) > 0
    assert summary["incremental_repairs"] > 0


def test_link_up_triggers_full_reroute(random16):
    report = ChaosRunner(DFSSSPEngine()).run(
        random16, num_events=30, seed=3, p_link_up=0.5
    )
    assert report.survived, report.failure
    ups = [r for r in report.records if r.kind == "link_up"]
    assert ups
    assert all(r.action == "full" for r in ups)


def test_sssp_soak_repairs_without_layers(random16):
    report = ChaosRunner(SSSPEngine()).run(random16, num_events=10, seed=4)
    assert report.survived, report.failure
    assert report.summary()["incremental_repairs"] > 0
    # SSSP carries no virtual layers, so no deadlock verdict is recorded.
    assert all(r.deadlock_free is None for r in report.records)


def test_non_incremental_engine_always_full_reroutes(random16):
    report = ChaosRunner(MinHopEngine()).run(random16, num_events=5, seed=5)
    assert report.survived, report.failure
    assert all(r.action == "full" for r in report.records)
    assert report.summary()["incremental_repairs"] == 0


def test_structural_engine_dies_gracefully():
    # DOR refuses a torus with a missing cable: the soak must record the
    # death instead of raising, and mark the run as not survived.
    fabric = topologies.torus((3, 3), terminals_per_switch=1)
    report = ChaosRunner(DOREngine()).run(fabric, num_events=5, seed=1)
    assert not report.survived
    assert report.failure
    assert report.records[-1].action == "dead"
    from repro.obs import get_registry

    assert get_registry().value("chaos_engine_deaths", engine="dor") == 1


def test_report_json_roundtrip(random16):
    report = ChaosRunner(DFSSSPEngine()).run(random16, num_events=6, seed=8)
    data = json.loads(report.to_json())
    assert set(data) == {"summary", "events"}
    assert len(data["events"]) == len(report.records)
    assert data["summary"]["engine"] == "dfsssp"
    for ev in data["events"]:
        assert {"index", "kind", "detail", "action", "seconds"} <= set(ev)


def test_same_seed_reproduces_report(random16):
    a = ChaosRunner(DFSSSPEngine()).run(random16, num_events=8, seed=9)
    b = ChaosRunner(DFSSSPEngine()).run(random16, num_events=8, seed=9)
    assert [(r.kind, r.detail, r.action) for r in a.records] == [
        (r.kind, r.detail, r.action) for r in b.records
    ]
