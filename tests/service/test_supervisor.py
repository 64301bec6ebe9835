"""RoutingSupervisor: coalescing, escalation, breaker, last-known-good."""

from __future__ import annotations

import numpy as np
import pytest

from repro import topologies
from repro.core import DFSSSPEngine
from repro.exceptions import RoutingError, ServiceError
from repro.obs import get_registry
from repro.obs.recorder import FlightRecorder, use_recorder
from repro.resilience import LINK_UP, FaultEvent, FaultInjector
from repro.service import (
    DEGRADED,
    FAILED,
    HEALTHY,
    BackoffPolicy,
    RoutingSupervisor,
    ServicePolicy,
)


class FakeClock:
    def __init__(self, t: float = 0.0):
        self.t = t

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


def _no_sleep(_s: float) -> None:
    pass


@pytest.fixture()
def fabric():
    return topologies.random_topology(8, 18, terminals_per_switch=2, seed=3)


FAST = ServicePolicy(backoff=BackoffPolicy(base_s=0.0, jitter=0.0, max_attempts=2))
BROKEN = FAST.with_(repair_deadline_s=0.0, full_deadline_s=0.0, fallback_engine=None)


def make_supervisor(fabric, policy=FAST, **kwargs):
    kwargs.setdefault("sleep", _no_sleep)
    return RoutingSupervisor(fabric, engine="dfsssp", policy=policy, **kwargs)


def test_initial_route_is_verified_and_served(fabric):
    sup = make_supervisor(fabric)
    served = sup.serving()
    assert sup.state == HEALTHY
    assert served.version == 1 and not served.stale
    assert served.pending_events == 0
    assert served.result.deadlock_free


def test_process_without_events_is_noop(fabric):
    sup = make_supervisor(fabric)
    assert sup.process() is None


def test_burst_coalesces_into_one_batch(fabric):
    sup = make_supervisor(fabric)
    injector = FaultInjector(fabric, seed=5)
    for _ in range(4):
        sup.submit(injector.step()[0])
    assert sup.serving().stale and sup.serving().pending_events == 4

    outcome = sup.process()
    assert outcome.coalesced == 4
    assert outcome.ok and outcome.action in ("repair", "full")
    assert sup.batches == 1
    served = sup.serving()
    assert served.version == 2 and not served.stale
    assert sup.state == HEALTHY


def test_deadline_expiry_leaves_served_routing_untouched(fabric):
    """The acceptance property: a timed-out batch never mutates serving."""
    sup = make_supervisor(fabric)
    before = sup.serving()
    before_tables = before.result.tables.next_channel.copy()

    injector = FaultInjector(fabric, seed=5)
    sup.submit(injector.step()[0])
    sup.policy = BROKEN  # all rungs expire on their first budget check
    outcome = sup.process()

    assert not outcome.ok and outcome.action == "failed"
    assert outcome.timeouts >= 1
    served = sup.serving()
    assert served.result is before.result  # identical object: LKG untouched
    assert np.array_equal(served.result.tables.next_channel, before_tables)
    assert served.stale and served.version == before.version
    assert sup.state == DEGRADED
    assert served.pending_events == 1  # the event is retained, not lost

    # Repairing with a sane policy drains the retained backlog.
    sup.policy = FAST
    recovered = sup.process()
    assert recovered.ok
    assert sup.state == HEALTHY and not sup.serving().stale


def test_link_up_forces_full_reroute(fabric):
    sup = make_supervisor(fabric)
    injector = FaultInjector(fabric, seed=5, p_switch_down=0.0, p_link_up=0.0)
    event = injector.step()[0]
    assert event.cable is not None
    sup.submit(event)
    assert sup.process().ok

    sup.submit(FaultEvent(LINK_UP, cable=event.cable))
    outcome = sup.process()
    # Incremental repair cannot add channels: the repair rung is skipped.
    assert outcome.ok and outcome.action == "full"
    assert sup.serving().fabric.num_channels == fabric.num_channels


def test_fallback_engine_serves_degraded(fabric):
    class FailingDFSSSP(DFSSSPEngine):
        fail = False

        def route(self, fab):
            if self.fail:
                raise RoutingError("injected failure")
            return super().route(fab)

        def reroute(self, prior, degraded):
            raise RoutingError("injected failure")

    engine = FailingDFSSSP()
    sup = RoutingSupervisor(fabric, engine=engine, policy=FAST, sleep=_no_sleep)
    engine.fail = True
    injector = FaultInjector(fabric, seed=5)
    sup.submit(injector.step()[0])
    outcome = sup.process()

    assert outcome.ok and outcome.action == "fallback"
    assert sup.state == DEGRADED  # fresh tables, but not primary quality
    served = sup.serving()
    assert not served.stale and served.version == 2
    assert served.result.tables.engine == "updown"


def test_reroute_that_fell_back_to_a_full_route_reports_full(fabric):
    """``reroute`` routes from scratch when repair is impossible; the batch
    is then a full route, whichever rung asked for it."""

    class FullRouteOnReroute(DFSSSPEngine):
        def reroute(self, prior, degraded):
            return self.route(degraded.fabric)  # no stats["repair"]

    sup = RoutingSupervisor(fabric, engine=FullRouteOnReroute(), policy=FAST, sleep=_no_sleep)
    sup.submit(FaultInjector(fabric, seed=5).step()[0])
    with use_recorder(FlightRecorder()) as recorder:
        outcome = sup.process()

    assert outcome.ok and outcome.action == "full" and outcome.attempts == 1
    events = recorder.snapshot()
    assert [e["rung"] for e in events if e["kind"] == "rung_ok"] == ["full"]
    assert [e["action"] for e in events if e["kind"] == "routing_accepted"] == ["full"]


def test_breaker_trips_and_reprobes(fabric):
    clock = FakeClock()
    policy = FAST.with_(breaker_threshold=2, breaker_cooldown_s=30.0)
    sup = make_supervisor(fabric, policy=policy, clock=clock)
    sup.policy = policy.with_(
        repair_deadline_s=0.0, full_deadline_s=0.0, fallback_engine=None
    )

    injector = FaultInjector(fabric, seed=5)
    sup.submit(injector.step()[0])
    assert sup.process().action == "failed"
    assert sup.state == DEGRADED
    assert sup.process().action == "failed"  # retained backlog retried
    assert sup.state == FAILED and sup.breaker.open

    rejected = sup.process()
    assert rejected.action == "rejected" and not rejected.ok
    assert sup.serving().stale  # still serving last-known-good

    clock.advance(31.0)  # cooldown over: half-open probe allowed
    sup.policy = FAST
    recovered = sup.process()
    assert recovered.ok
    assert sup.state == HEALTHY and sup.consecutive_failures == 0


def test_requires_fabric_or_checkpoint():
    with pytest.raises(ServiceError):
        RoutingSupervisor(None)


def test_checkpoint_without_store_raises(fabric):
    sup = make_supervisor(fabric)
    with pytest.raises(ServiceError):
        sup.checkpoint()


def test_state_dict_round_trips_events(fabric):
    sup = make_supervisor(fabric)
    injector = FaultInjector(fabric, seed=5)
    sup.submit(injector.step()[0])
    state = sup.state_dict()
    assert state["engine"] == "dfsssp"
    assert len(state["uncommitted"]) == 1
    restored = [FaultEvent.from_dict(e) for e in state["uncommitted"]]
    assert restored[0].kind in ("link_down", "switch_down", "link_up")


def test_candidate_paths_are_extracted_once(fabric, tmp_path):
    """The engine (or the repair) walks the tables once; ``_verify`` — the
    completeness check — and the checkpoint's certificate read that same
    PathSet: one ``paths.extract`` span per routing served."""
    from repro.obs import InMemorySink, use_sink

    with use_sink(InMemorySink()) as sink:
        sup = make_supervisor(fabric, checkpoint_dir=tmp_path)
    # the initial route: verified, certified, checkpointed
    assert len(sink.find("paths.extract")) == 1
    assert sup.serving().result.certificate is not None

    injector = FaultInjector(fabric, seed=5, p_switch_down=0.0, p_link_up=0.0)
    with use_sink(InMemorySink()) as sink:
        sup.submit(injector.step()[0])
        outcome = sup.process()
    assert outcome.ok and outcome.action == "repair"
    assert sup.serving().result.certificate is not None  # checkpointed again
    assert len(sink.find("paths.extract")) == 1
    served = sup.serving().result
    assert served.certificate is not None  # emitted from the verified paths
    assert served.certificate.check().ok

    restored = RoutingSupervisor.restore(tmp_path, sleep=_no_sleep)
    assert np.array_equal(
        restored.serving().result.tables.next_channel, served.tables.next_channel
    )


def test_repair_batch_derives_each_layers_edges_once(fabric, tmp_path, monkeypatch):
    """One accepted incremental-repair batch with checkpointing on derives
    every layer's dependency edges once, in one ``PathSet.layer_edges``
    call: the repair's own acyclicity
    check passes and is kept on the layered routing, ``_verify``'s witness
    pass reuses it, and the checkpoint writes that certificate as is."""
    from repro.routing.paths import PathSet

    sup = make_supervisor(fabric, checkpoint_dir=tmp_path)
    calls = []
    real = PathSet.layer_edges

    def counting(self, path_layers, num_layers):
        calls.append(num_layers)
        return real(self, path_layers, num_layers)

    monkeypatch.setattr(PathSet, "layer_edges", counting)
    injector = FaultInjector(fabric, seed=5, p_switch_down=0.0, p_link_up=0.0)
    sup.submit(injector.step()[0])
    outcome = sup.process()
    monkeypatch.undo()

    served = sup.serving().result
    assert outcome.ok and outcome.action == "repair"
    assert served.stats["repair"]["escalations"] == 0  # the batch check held
    assert len(list(tmp_path.glob("ckpt-*"))) == 2  # initial + this batch
    assert calls == [served.layered.num_layers]
    assert served.certificate.check().ok


def test_consecutive_failures_is_the_breakers_count(fabric, tmp_path):
    """k failed batches, a restore, one success: the property, the gauge
    and the fleet worker's health summary all read the breaker. The
    checkpoint carries the count once, inside the breaker; a checkpoint
    that still has the old duplicate key restores as before."""
    import json

    from repro.fleet.messages import OP_HEALTH, FleetRequest
    from repro.fleet.worker import _handle
    from repro.obs.metrics import MetricsRegistry, set_registry
    from repro.service.checkpoint import CheckpointStore

    def agree(sup, expected):
        gauge = get_registry().value("service_consecutive_failures", engine="dfsssp")
        health = _handle(FleetRequest("r", OP_HEALTH, "f"), {"f": sup}).payload
        assert sup.breaker.failures == expected
        assert sup.consecutive_failures == expected
        assert gauge == expected
        assert health["consecutive_failures"] == health["breaker"]["failures"] == expected

    previous = set_registry(MetricsRegistry())
    try:
        policy = FAST.with_(breaker_threshold=5)
        sup = make_supervisor(fabric, policy=policy, checkpoint_dir=tmp_path)
        sup.policy = policy.with_(
            repair_deadline_s=0.0, full_deadline_s=0.0, fallback_engine=None
        )
        sup.submit(FaultInjector(fabric, seed=5).step()[0])
        k = 2
        for _ in range(k):
            assert sup.process().action == "failed"
        agree(sup, k)

        store = CheckpointStore(tmp_path)
        state_file = store.root / store._name(store.latest_version()) / "state.json"
        data = json.loads(state_file.read_text())
        assert "consecutive_failures" not in data
        data["consecutive_failures"] = k  # what older versions wrote
        state_file.write_text(json.dumps(data))

        set_registry(MetricsRegistry())  # a new process
        restored = RoutingSupervisor.restore(tmp_path, policy=policy, sleep=_no_sleep)
        agree(restored, k)
        assert restored.process().ok
        agree(restored, 0)
    finally:
        set_registry(previous)
