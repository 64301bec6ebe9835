"""Supervisor warm-start through the fingerprint-keyed routing cache."""

from __future__ import annotations

import time

import numpy as np
import pytest

from repro import topologies
from repro.network.faults import cable_keys
from repro.obs import InMemorySink, get_registry, use_sink
from repro.resilience import LINK_UP, FaultEvent
from repro.service import BackoffPolicy, RoutingSupervisor, ServicePolicy

FAST = ServicePolicy(backoff=BackoffPolicy(base_s=0.0, jitter=0.0, max_attempts=2))


@pytest.fixture()
def fabric():
    # Big enough that a full DFSSSP run dwarfs one .npz load: the
    # warm-vs-cold timing assertion below needs headroom, not luck.
    return topologies.random_topology(24, 60, terminals_per_switch=2, seed=9)


def _hits(engine="dfsssp") -> int:
    return get_registry().counter("routing_cache_hit_total", engine=engine).value


def test_uncached_route_is_verified_by_a_witness_pass(fabric):
    """A routing without a carried certificate (no cache stored one) is
    checked by one witness pass; span and flight event name it ``"witness"``."""
    from repro.obs.recorder import FlightRecorder, use_recorder

    sink, flight = InMemorySink(), FlightRecorder()
    with use_sink(sink), use_recorder(flight):
        RoutingSupervisor(fabric, engine="dfsssp", policy=FAST)
    assert [s.attrs["method"] for s in sink.find("service.verify")] == ["witness"]
    events = [e for e in flight.snapshot() if e["kind"] == "verify"]
    assert [(e["method"], e["ok"]) for e in events] == [("witness", True)]


def test_restart_warm_starts_and_is_faster(tmp_path, fabric):
    t0 = time.perf_counter()
    cold = RoutingSupervisor(fabric, engine="dfsssp", policy=FAST, cache_dir=tmp_path)
    cold_s = time.perf_counter() - t0

    hits_before = _hits()
    sink = InMemorySink()
    with use_sink(sink):
        t0 = time.perf_counter()
        warm = RoutingSupervisor(fabric, engine="dfsssp", policy=FAST, cache_dir=tmp_path)
        warm_s = time.perf_counter() - t0

    # Measurably faster: the warm path loads one .npz instead of routing.
    assert warm_s < cold_s, (
        f"warm start ({warm_s:.4f}s) not faster than cold ({cold_s:.4f}s)"
    )
    assert _hits() == hits_before + 1
    ws = sink.find("cache.warm_start")
    assert len(ws) == 1 and ws[0].attrs["hit"] is True

    # The warm result carried its cached certificate, so re-verification
    # went through the O(V+E) certificate check, not a CDG rebuild.
    assert warm.serving().result.certificate is not None
    verifies = sink.find("service.verify")
    assert verifies and verifies[-1].attrs["method"] == "certificate"
    assert verifies[-1].attrs["ok"] is True

    # And identical: the cache replays the exact routing, verified anew.
    np.testing.assert_array_equal(
        warm.serving().result.tables.next_channel,
        cold.serving().result.tables.next_channel,
    )
    np.testing.assert_array_equal(
        warm.serving().result.layered.path_layers,
        cold.serving().result.layered.path_layers,
    )
    assert warm.serving().result.deadlock_free


def test_full_rung_hits_cache_for_seen_fabric(tmp_path, fabric):
    sup = RoutingSupervisor(fabric, engine="dfsssp", policy=FAST, cache_dir=tmp_path)
    # A LINK_UP for a healthy cable folds to the baseline fabric and
    # forces the ladder past the repair rung straight to "full" — whose
    # fabric the initial route already cached.
    hits_before = _hits()
    sink = InMemorySink()
    with use_sink(sink):
        sup.submit(FaultEvent(LINK_UP, cable=cable_keys(fabric)[0]))
        outcome = sup.process()
    assert outcome.ok and outcome.action == "full"
    assert _hits() == hits_before + 1
    ws = sink.find("cache.warm_start")
    assert len(ws) == 1 and ws[0].attrs["hit"] is True
    assert sup.serving().result.deadlock_free


def test_no_cache_dir_means_no_cache_traffic(fabric):
    sink = InMemorySink()
    with use_sink(sink):
        RoutingSupervisor(fabric, engine="dfsssp", policy=FAST)
    assert sink.find("cache.warm_start") == []


def test_restore_verifies_through_checkpointed_certificate(tmp_path, fabric):
    sup = RoutingSupervisor(
        fabric, engine="dfsssp", policy=FAST, checkpoint_dir=tmp_path / "ckpt"
    )
    assert sup.serving().result.certificate is not None  # certified by _verify

    sink = InMemorySink()
    with use_sink(sink):
        restored = RoutingSupervisor.restore(tmp_path / "ckpt")
    assert restored.serving().result.certificate is not None
    verifies = sink.find("service.verify")
    assert verifies and verifies[-1].attrs["method"] == "certificate"
    assert verifies[-1].attrs["ok"] is True
    np.testing.assert_array_equal(
        restored.serving().result.tables.next_channel,
        sup.serving().result.tables.next_channel,
    )


def test_tampered_checkpoint_certificate_rejected_on_restore(tmp_path, fabric):
    import json

    from repro.exceptions import RoutingError
    from repro.obs.recorder import FlightRecorder, use_recorder

    RoutingSupervisor(
        fabric, engine="dfsssp", policy=FAST, checkpoint_dir=tmp_path / "ckpt"
    )
    cert_path = next((tmp_path / "ckpt").glob("ckpt-*/certificate.json"))
    cert = json.loads(cert_path.read_text())
    edged = next(layer for layer in cert["layers"] if layer["edges"])
    edged["edges"][0] = list(reversed(edged["edges"][0]))
    cert_path.write_text(json.dumps(cert))

    recorder = FlightRecorder()
    with use_recorder(recorder):
        with pytest.raises(RoutingError, match="rejected"):
            RoutingSupervisor.restore(tmp_path / "ckpt")
    rejected = [e for e in recorder.snapshot() if e["kind"] == "certificate_rejected"]
    assert rejected, "rejection must reach the flight recorder"
    assert rejected[-1]["reason"]
    assert rejected[-1]["witness_edge"] is not None
