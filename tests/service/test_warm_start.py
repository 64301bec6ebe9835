"""How the supervisor verifies what it serves: a witness pass on a fresh
route, the checkpointed certificate on a restore."""

from __future__ import annotations

import numpy as np
import pytest

from repro import topologies
from repro.obs import InMemorySink, use_sink
from repro.service import BackoffPolicy, RoutingSupervisor, ServicePolicy

FAST = ServicePolicy(backoff=BackoffPolicy(base_s=0.0, jitter=0.0, max_attempts=2))


@pytest.fixture()
def fabric():
    return topologies.random_topology(24, 60, terminals_per_switch=2, seed=9)


def test_uncached_route_is_verified_by_a_witness_pass(fabric):
    """A freshly computed routing carries no certificate, so it is checked
    by one witness pass; span and flight event name it ``"witness"``."""
    from repro.obs.recorder import FlightRecorder, use_recorder

    sink, flight = InMemorySink(), FlightRecorder()
    with use_sink(sink), use_recorder(flight):
        RoutingSupervisor(fabric, engine="dfsssp", policy=FAST)
    assert [s.attrs["method"] for s in sink.find("service.verify")] == ["witness"]
    events = [e for e in flight.snapshot() if e["kind"] == "verify"]
    assert [(e["method"], e["ok"]) for e in events] == [("witness", True)]


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
