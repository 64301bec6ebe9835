"""Everything served passes ``check_servable``: the supervisor's rejection
text, ``repro checkpoint``, the service soak's served-routing check, and a
checkpoint damaged in two files at once."""

from __future__ import annotations

import json

import pytest

from repro import topologies
from repro.cli import main
from repro.deadlock import check_certificate
from repro.exceptions import CheckpointError, RoutingError
from repro.obs.recorder import FlightRecorder, use_recorder
from repro.resilience import run_service_soak
from repro.service import BackoffPolicy, CheckpointStore, RoutingSupervisor, ServicePolicy

FAST = ServicePolicy(backoff=BackoffPolicy(base_s=0.0, jitter=0.0, max_attempts=2))


@pytest.fixture()
def fabric():
    return topologies.random_topology(8, 18, terminals_per_switch=2, seed=3)


def _no_sleep(_s: float) -> None:
    pass


def _checkpointed(tmp_path, fabric):
    """A supervisor with two checkpoints; returns the store and the newest dir."""
    sup = RoutingSupervisor(fabric, policy=FAST, checkpoint_dir=tmp_path / "ckpt")
    sup.checkpoint()
    store = CheckpointStore(tmp_path / "ckpt")
    return store, store.root / store._name(store.latest_version())


def _add_reversed_edge(cert_path) -> dict:
    """Tamper a stored certificate: one edge's reverse joins its layer (a
    2-cycle). Returns the tampered payload."""
    cert = json.loads(cert_path.read_text())
    layer = next(lw for lw in cert["layers"] if lw["edges"])
    a, b = layer["edges"][0]
    layer["edges"].append([b, a])
    cert_path.write_text(json.dumps(cert))
    return cert


def test_supervisor_rejection_carries_the_checkers_reason_and_counterexample(tmp_path, fabric):
    _, newest = _checkpointed(tmp_path, fabric)
    tampered = _add_reversed_edge(newest / "certificate.json")
    expected = check_certificate(tampered)
    assert expected.reason and expected.counterexample

    with pytest.raises(RoutingError) as err:
        RoutingSupervisor.restore(tmp_path / "ckpt")
    text = str(err.value)
    assert text == f"candidate routing rejected: {expected.summary()}"
    assert expected.reason in text
    chain = " -> ".join(str(c) for c in expected.counterexample)
    assert f"counterexample cycle {chain}" in text


def test_checkpoint_cli_rejects_a_tampered_certificate(tmp_path, fabric, capsys):
    _, newest = _checkpointed(tmp_path, fabric)
    cert_path = newest / "certificate.json"
    cert = json.loads(cert_path.read_text())
    layer = next(lw for lw in cert["layers"] if lw["edges"])
    layer["edges"][0] = list(reversed(layer["edges"][0]))
    cert_path.write_text(json.dumps(cert))
    reason = check_certificate(cert).reason
    assert "goes backwards" in reason

    capsys.readouterr()
    assert main(["checkpoint", str(tmp_path / "ckpt"), "--json"]) == 1
    info = json.loads(capsys.readouterr().out)
    assert info["ok"] is False and info["routable"] is True
    assert info["deadlock_free"] is False
    assert reason in info["problem"]


def test_soak_fails_when_the_served_certificate_is_corrupted(fabric):
    """The soak checks the certificate that is served, not the supervisor's
    own kept witness pass: corrupting its edges after batch 2 ends the soak."""
    sup = RoutingSupervisor(fabric, policy=FAST, sleep=_no_sleep)
    process = sup.process

    def process_then_corrupt():
        outcome = process()
        if outcome is not None and outcome.batch == 2:
            cert = sup.serving().result.certificate
            witness = next(lw for lw in cert.layers if len(lw.edges))
            edges = witness.edges.copy()  # the served arrays are read-only
            edges[0] = edges[0][::-1]
            witness.edges = edges
        return outcome

    sup.process = process_then_corrupt
    report = run_service_soak(sup, 8, seed=7)
    assert not report.survived
    assert report.failure.startswith("served certificate REJECTED")
    assert "goes backwards" in report.failure
    assert len(report.records) == 2


@pytest.mark.parametrize("certificate", ["garbage", "tampered"])
def test_torn_routing_and_corrupt_certificate_in_one_checkpoint(tmp_path, fabric, certificate):
    store, newest = _checkpointed(tmp_path, fabric)
    latest = store.latest_version()
    npz = newest / "routing.npz"
    npz.write_bytes(npz.read_bytes()[: npz.stat().st_size // 2])
    if certificate == "garbage":
        (newest / "certificate.json").write_text("{ torn")
    else:
        _add_reversed_edge(newest / "certificate.json")

    # An explicit version never falls back; the torn archive is named first.
    with pytest.raises(CheckpointError, match="routing.npz"):
        store.load(version=latest)

    flight = FlightRecorder()
    with use_recorder(flight):
        ckpt = store.load()
    assert ckpt.version == latest - 1
    events = [e for e in flight.snapshot() if e["kind"] == "checkpoint_fallback"]
    assert len(events) == 1
    assert events[0]["failed_version"] == latest and "routing.npz" in events[0]["reason"]

    # The older checkpoint serves: its own certificate binds to its routing.
    restored = RoutingSupervisor.restore(tmp_path / "ckpt")
    assert restored.serving().result.certificate is not None
