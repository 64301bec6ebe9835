"""``check_servable``: the one gate in front of every served routing.

Its four rules, in order: an unroutable pair is the problem; without
layers there is no verdict; a carried certificate gets one binding
check; otherwise one witness pass decides and yields the certificate.
"""

from __future__ import annotations

import json

import pytest

from repro import topologies
from repro.core import DFSSSPEngine, SSSPEngine
from repro.deadlock import check_certificate, check_servable, emit_certificate
from repro.deadlock.certificate import DeadlockFreedomCertificate
from repro.routing import extract_paths
from repro.routing.base import LayeredRouting, RoutingTables
from repro.routing.paths import PathSet


@pytest.fixture()
def routed():
    """A fresh multi-layer DFSSSP routing: nothing kept on it yet."""
    return DFSSSPEngine().route(topologies.random_topology(10, 22, 2, seed=1))


@pytest.fixture()
def derivations(monkeypatch):
    """Counts ``PathSet.layer_edges`` calls: one derives every layer."""
    calls = []
    real = PathSet.layer_edges

    def counting(self, path_layers, num_layers):
        calls.append(num_layers)
        return real(self, path_layers, num_layers)

    monkeypatch.setattr(PathSet, "layer_edges", counting)
    return calls


def _tampered(cert: DeadlockFreedomCertificate) -> DeadlockFreedomCertificate:
    """The certificate with one dependency edge's reverse added: a 2-cycle."""
    payload = cert.to_dict()
    layer = next(lw for lw in payload["layers"] if lw["edges"])
    a, b = layer["edges"][0]
    layer["edges"].append([b, a])
    return DeadlockFreedomCertificate.from_dict(payload)


def test_fresh_routing_gets_one_witness_pass_and_its_certificate(routed, derivations):
    verdict = check_servable(routed.tables, routed.layered)
    assert verdict.problem is None and verdict.check is None
    assert verdict.deadlock_free is True
    assert verdict.paths is extract_paths(routed.tables)
    assert derivations == [routed.layered.num_layers]
    # Byte for byte the certificate emit_certificate builds from the same pass.
    emitted = emit_certificate(routed.layered, verdict.paths)
    assert verdict.certificate.to_json() == emitted.to_json()
    assert derivations == [routed.layered.num_layers]
    assert check_certificate(json.loads(verdict.certificate.to_json())).ok


def test_carried_certificate_gets_one_binding_check(routed, derivations):
    cert = check_servable(routed.tables, routed.layered).certificate
    before = len(derivations)
    verdict = check_servable(routed.tables, routed.layered, cert)
    assert verdict.problem is None and verdict.check.ok
    assert verdict.certificate is cert and verdict.deadlock_free is True
    # The binding check derives every layer's edges itself (one all-layer
    # derivation), never reading the kept pass.
    assert len(derivations) == before + 1


def test_rejected_certificate_problem_is_the_checkers_summary(routed):
    cert = check_servable(routed.tables, routed.layered).certificate
    verdict = check_servable(routed.tables, routed.layered, _tampered(cert))
    assert not verdict.check.ok
    assert verdict.problem == verdict.check.summary()
    assert "goes backwards" in verdict.problem
    assert "witness edge" in verdict.problem and "counterexample cycle" in verdict.problem
    assert verdict.deadlock_free is False


def test_cyclic_routing_names_each_cyclic_layer_and_its_witness():
    tables = SSSPEngine().route(topologies.ring(5, terminals_per_switch=1)).tables
    layered = LayeredRouting.single_layer(tables)
    verdict = check_servable(tables, layered)
    assert verdict.certificate is None and verdict.check is None
    assert verdict.deadlock_free is False
    assert verdict.problem.startswith("cyclic CDG in 1 layer(s): layer 0 (")
    assert "has witness cycle" in verdict.problem


def test_unroutable_pair_is_the_problem(routed):
    next_channel = routed.tables.next_channel.copy()
    next_channel[:, 0] = -1  # nobody reaches terminal 0
    tables = RoutingTables(routed.tables.fabric, next_channel, engine="dfsssp")
    verdict = check_servable(tables, None)
    assert verdict.paths is None and verdict.certificate is None
    assert verdict.problem and verdict.deadlock_free is None


def test_no_layers_no_verdict():
    tables = SSSPEngine().route(topologies.ring(5, terminals_per_switch=1)).tables
    verdict = check_servable(tables, None)
    assert verdict.problem is None and verdict.certificate is None
    assert verdict.paths is not None and verdict.deadlock_free is None
