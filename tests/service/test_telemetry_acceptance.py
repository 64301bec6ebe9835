"""Acceptance: one request_id query reconstructs a full escalation tree.

The tentpole property of the telemetry layer: after a reroute that
escalates through at least two ladder rungs, a *single* ``request_id``
query over the JSONL trace recovers the complete causal tree —
supervisor batch, each rung attempt, the SSSP run and the per-block
``sssp.hop_block`` spans its columns opened. Plus:
the ``(service_id, request_seq)`` namespace survives checkpoint/restore,
so request ids stay unique across a crash, and checkpoints carry a
flight-recorder dump.
"""

from __future__ import annotations

import json

import pytest

from repro import topologies
from repro.obs import FlightRecorder, JsonlSink, use_recorder, use_sink
from repro.obs.export import build_trace_tree, read_trace, render_trace_tree
from repro.parallel import reduction as reduction_mod
from repro.resilience import FaultInjector
from repro.service import BackoffPolicy, RoutingSupervisor, ServicePolicy


@pytest.fixture()
def fabric():
    # Big enough that one full route opens several hop blocks.
    return topologies.random_topology(24, 52, terminals_per_switch=2, seed=7)


FAST = ServicePolicy(backoff=BackoffPolicy(base_s=0.0, jitter=0.0, max_attempts=1))
#: repair rung always times out → every batch escalates repair → full
ESCALATING = FAST.with_(repair_deadline_s=0.0)


def _walk(nodes):
    for node in nodes:
        yield node
        yield from _walk(node.children)


def test_single_request_id_query_reconstructs_escalation_tree(fabric, tmp_path, monkeypatch):
    # Blocks of at most four roots, so that the full route opens several.
    row_bytes = reduction_mod.ExactReduction(fabric)._row_bytes
    monkeypatch.setattr(reduction_mod, "HOP_BLOCK_BYTES", 4 * row_bytes)
    trace = tmp_path / "trace.jsonl"
    sink = JsonlSink(str(trace))
    with use_sink(sink):
        sup = RoutingSupervisor(
            fabric, engine="dfsssp", policy=ESCALATING, sleep=lambda _s: None,
        )
        injector = FaultInjector(fabric, seed=9, p_switch_down=0.0, p_link_up=0.0)
        sup.submit(injector.step()[0])
        chosen = sup.process()
        assert chosen.ok and chosen.action == "full"
        assert chosen.timeouts >= 1  # the repair rung expired
        assert chosen.request_id is not None
    sink.close()

    records = read_trace(trace)
    roots = build_trace_tree(records, request_id=chosen.request_id)

    # one root: the service.batch span of exactly this request
    assert len(roots) == 1
    root = roots[0]
    assert root.name == "service.batch"
    assert root.request_id == chosen.request_id
    assert root.attrs["action"] == "full"

    nodes = list(_walk(roots))
    assert all(n.request_id == chosen.request_id for n in nodes)

    # ≥2 escalation rungs, in order: the timed-out repair, then full
    attempts = [n for n in nodes if n.name == "service.attempt"]
    rungs = [n.attrs["rung"] for n in attempts]
    assert "repair" in rungs and "full" in rungs
    assert rungs.index("repair") < rungs.index("full")
    repair = next(n for n in attempts if n.attrs["rung"] == "repair")
    assert repair.status == "error"  # the budget expiry marked it

    # the full route: SSSP run → its columns → the hop blocks they opened
    (run,) = [n for n in nodes if n.name == "sssp.run"]
    columns = {n.span_id for n in nodes if n.name == "sssp.dijkstra"}
    blocks = [n for n in nodes if n.name == "sssp.hop_block"]
    assert len(blocks) >= 2
    assert all(b.parent_id in columns for b in blocks)
    # complete: one hop row per plan opened, i.e. per attachment switch
    # (the two terminals on a switch share theirs)
    assert sum(b.attrs["rows"] for b in blocks) == run.attrs["sweeps"] == len(
        {int(fabric.attached_switches(t)[0]) for t in fabric.terminals})

    # other requests exist in the trace (the initial route) but are excluded
    all_roots = build_trace_tree(records)
    assert len(all_roots) > len(roots)

    # and the tree renders — spot-check the human view end to end
    text = render_trace_tree(roots)
    assert "service.batch" in text and "sssp.hop_block" in text


def test_request_id_namespace_survives_checkpoint_restore(fabric, tmp_path):
    ckpt = tmp_path / "ckpt"
    flight = FlightRecorder()
    with use_recorder(flight):
        sup = RoutingSupervisor(
            fabric, engine="dfsssp", policy=FAST, checkpoint_dir=ckpt,
            sleep=lambda _s: None,
        )
        injector = FaultInjector(fabric, seed=9, p_switch_down=0.0, p_link_up=0.0)
        sup.submit(injector.step()[0])
        outcome = sup.process()
    assert outcome.ok
    service_id = sup.service_id
    # initial route took seq 1, the batch seq 2 — in the persisted namespace
    assert outcome.request_id == f"svc-{service_id}-000002"
    assert sup.request_seq == 2

    # checkpoint_every=1: the post-batch checkpoint also dumped the flight
    # recorder next to it, and its events explain the batch.
    dump = json.loads((ckpt / "flightrecorder.json").read_text())
    kinds = [e["kind"] for e in dump["events"]]
    assert "checkpoint" in kinds and "routing_accepted" in kinds
    accepted = next(e for e in dump["events"] if e["kind"] == "routing_accepted")
    assert accepted["request_id"] == outcome.request_id

    restored = RoutingSupervisor.restore(ckpt, sleep=lambda _s: None)
    assert restored.service_id == service_id
    assert restored.request_seq == 2
    restored.submit(injector.step()[0])
    next_outcome = restored.process()
    assert next_outcome.ok
    # same namespace, next slot: never reuses a pre-crash id
    assert next_outcome.request_id == f"svc-{service_id}-000003"


def test_flight_recorder_narrates_a_failed_batch(fabric):
    """The ring's tail alone explains *why* a batch failed."""
    broken = FAST.with_(repair_deadline_s=0.0, full_deadline_s=0.0,
                        fallback_engine=None)
    flight = FlightRecorder()
    with use_recorder(flight):
        sup = RoutingSupervisor(fabric, engine="dfsssp", policy=FAST,
                                sleep=lambda _s: None)
        sup.policy = broken
        injector = FaultInjector(fabric, seed=9)
        sup.submit(injector.step()[0])
        outcome = sup.process()
    assert not outcome.ok

    events = flight.snapshot()
    failures = [e for e in events if e["kind"] == "rung_failed"]
    assert failures and all(e["cause"] == "timeout" for e in failures)
    assert all(e["request_id"] == outcome.request_id for e in failures)
    failed = [e for e in events if e["kind"] == "batch_failed"]
    assert len(failed) == 1 and failed[0]["request_id"] == outcome.request_id
    transitions = [e["to_state"] for e in events if e["kind"] == "state_transition"]
    assert transitions[-1] == "degraded"
