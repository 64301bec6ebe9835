"""Fleet manager end to end: spawn, serve, kill, degrade, respawn.

Worker processes are real (forkserver/spawn), so one module-scoped
fleet is shared across the tests here; the kill/respawn test runs last
and leaves the fleet recovered.
"""

from __future__ import annotations

import time

import pytest

from repro import topologies
from repro.exceptions import FleetError
from repro.fleet import FleetConfig, FleetManager
from repro.fleet.messages import SOURCE_DEGRADED_LKG
from repro.resilience.events import FaultInjector
from repro.service.policy import BackoffPolicy, ServicePolicy


FAST_POLICY = ServicePolicy(
    backoff=BackoffPolicy(base_s=0.0, jitter=0.0, max_attempts=2)
)


def _fabrics(n=4, seed=10):
    return {
        f"fab-{i}": topologies.random_topology(
            8, 18, terminals_per_switch=2, seed=seed + i
        )
        for i in range(n)
    }


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    root = tmp_path_factory.mktemp("fleet")
    cfg = FleetConfig(workers=2, heartbeat_timeout_s=3.0, policy=FAST_POLICY)
    with FleetManager(_fabrics(), root, cfg) as manager:
        yield manager


def test_config_validation():
    with pytest.raises(FleetError):
        FleetConfig(workers=0)
    with pytest.raises(ValueError):  # the front end's attempts: backoff.max_attempts
        BackoffPolicy(max_attempts=0)


def test_worker_that_fails_to_build_its_shards_is_a_fleet_error(tmp_path):
    """A worker dying mid-build closes its pipe; the manager must report
    that as the spawn failure it is, with the exit code, not as EOF."""
    config = FleetConfig(workers=1, engine="no-such-engine")
    with pytest.raises(FleetError, match=r"died before reporting ready \(exitcode=1\)"):
        FleetManager(_fabrics(n=1), tmp_path, config)


def test_spawn_shards_across_workers(fleet):
    status = fleet.status()
    assert [w["alive"] for w in status["workers"]] == [True, True]
    assert set(status["shards"]) == {"fab-0", "fab-1", "fab-2", "fab-3"}
    assert set(status["shards"].values()) == {0, 1}  # both workers own shards
    assert fleet.alive_workers() == [0, 1]


def test_every_fabric_has_a_last_known_good_summary(fleet):
    """The degraded path needs no other source: construction fills it."""
    for fabric_id in fleet.fabrics:
        lkg = fleet.last_known_good(fabric_id)
        assert lkg is not None and lkg["fabric_id"] == fabric_id
        assert lkg["deadlock_free"] is True and lkg["certified"] is True


def test_query_serves_fresh_routing(fleet):
    resp = fleet.query("fab-0")
    assert resp.ok and not resp.degraded and not resp.stale
    serving = resp.payload["serving"]
    assert serving["deadlock_free"] is True
    assert serving["certified"] is True
    assert serving["version"] >= 1
    assert resp.worker in (0, 1)
    # the manager remembers this as last-known-good
    lkg = fleet.last_known_good("fab-0")
    assert lkg is not None and lkg["version"] == serving["version"]


def test_health_reports_supervisor_state(fleet):
    resp = fleet.health("fab-3")
    assert resp.ok
    assert resp.payload["serving"]["state"] == "healthy"


def test_fault_is_applied_and_batch_processed(fleet):
    event = FaultInjector(fleet.fabrics["fab-1"], seed=99).step()[0]
    before = fleet.query("fab-1").payload["serving"]["version"]
    resp = fleet.inject_fault("fab-1", event.to_dict())
    assert resp.ok and not resp.degraded
    outcome = resp.payload["outcome"]
    assert outcome is not None and outcome["ok"] is True
    assert len(outcome["events"]) >= 1
    after = fleet.query("fab-1").payload["serving"]["version"]
    assert after >= before  # repair/reroute may have bumped the version


def test_unknown_fabric_and_op_raise(fleet):
    with pytest.raises(FleetError):
        fleet.query("no-such-fabric")
    with pytest.raises(FleetError):
        fleet.request("reboot", "fab-0")


def test_batch_mixes_ops_concurrently(fleet):
    reqs = [
        ("query", f"fab-{i % 4}", f"tenant-{i % 2}", None) for i in range(12)
    ] + [("health", "fab-2", "tenant-0", None)]
    responses = fleet.batch(reqs, concurrency=4)
    assert len(responses) == 13
    assert all(r.ok for r in responses)


def test_kill_respawns_with_certified_restore(fleet):
    victim = fleet.status()["shards"]["fab-0"]
    shard_ids = [f for f, w in fleet.status()["shards"].items() if w == victim]
    respawns_before = len(fleet.respawns)
    assert fleet.kill_worker(victim) is not None

    # While the worker is down, its shards degrade to last-known-good
    # instead of erroring; requests are still served.
    saw_degraded = False
    deadline = time.time() + 60.0
    while time.time() < deadline:
        resp = fleet.query(shard_ids[0], timeout_s=1.0)
        assert resp.ok, resp.error  # never unserved
        if resp.degraded:
            saw_degraded = True
            assert resp.stale
            assert resp.source == SOURCE_DEGRADED_LKG
        elif saw_degraded:
            break  # degraded phase observed, now recovered
        time.sleep(0.05)

    # Recovery: every shard on the victim serves fresh again.
    for fabric_id in shard_ids:
        deadline = time.time() + 60.0
        while time.time() < deadline:
            resp = fleet.query(fabric_id, timeout_s=2.0)
            if resp.ok and not resp.degraded:
                break
            time.sleep(0.1)
        assert resp.ok and not resp.degraded

    # The respawn restored each shard from its rolling checkpoint and
    # re-verified the routing via its deadlock-freedom certificate.
    assert len(fleet.respawns) > respawns_before
    respawn = fleet.respawns[-1]
    assert respawn["worker"] == victim
    assert respawn["generation"] >= 1
    for fabric_id in shard_ids:
        shard = respawn["shards"][fabric_id]
        assert shard["restored"] is True
        assert shard["verify_method"] == "certificate"
    assert len(fleet.deaths) >= 1
    assert fleet.alive_workers() == [0, 1]
