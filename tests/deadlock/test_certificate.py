"""Differential suite for deadlock-freedom certificates.

Every invariant-sweep topology × {sssp, dfsssp} × cdg engine: a
certificate is emitted, survives the JSON wire format, and is accepted
by the independent dependency-free checker *and* the binding check
against the routing it came from. Then the adversarial half: a single
mutated dependency edge, topological-order entry or path→layer entry
must be rejected with a concrete witness (the violating edge, and a
minimal counterexample cycle whenever the mutated edge set actually
contains one).

SSSP promises nothing about deadlock; its runs are wrapped in a single
layer and the suite asserts the emitter *refuses* to certify a cyclic
layer, returning a real CDG cycle as the witness.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro import topologies
from repro.deadlock import verify_deadlock_free
from repro.deadlock.certificate import (
    DeadlockFreedomCertificate,
    check_against_routing,
    emit_certificate,
)
from repro.deadlock.checker import FORMAT, KIND, check_certificate
from repro.exceptions import CertificateError
from repro.routing import extract_paths, make_engine
from repro.routing.base import LayeredRouting

TOPOLOGIES = {
    "ring": lambda: topologies.ring(6, terminals_per_switch=1),
    "torus": lambda: topologies.torus((3, 3), terminals_per_switch=1),
    "hypercube": lambda: topologies.hypercube(3, terminals_per_switch=1),
    "ktree": lambda: topologies.kary_ntree(3, 2),
    "xgft": lambda: topologies.xgft(2, (3, 3), (1, 2)),
    "kautz": lambda: topologies.kautz(2, 2, 8),
    "random": lambda: topologies.random_topology(8, 14, 1, seed=3),
    "dragonfly": lambda: topologies.dragonfly(2, 2, 1),
}

#: engine name -> engine options; cdg only applies to offline DFSSSP.
CONFIGS = {
    "sssp": ("sssp", {}),
    "dfsssp-incremental": ("dfsssp", {"cdg": "incremental"}),
    "dfsssp-rebuild": ("dfsssp", {"cdg": "rebuild"}),
}


@pytest.fixture(scope="module", params=sorted(TOPOLOGIES))
def fabric(request):
    return TOPOLOGIES[request.param]()


def _route(fabric, config):
    engine_name, opts = CONFIGS[config]
    result = make_engine(engine_name, **opts).route(fabric)
    paths = extract_paths(result.tables)
    layered = result.layered or LayeredRouting.single_layer(result.tables)
    return layered, paths


def _assert_real_cycle(cycle, edges) -> None:
    """``cycle`` must be a closed walk through ``edges`` (set of pairs)."""
    assert len(cycle) >= 3, f"degenerate counterexample {cycle}"
    assert cycle[0] == cycle[-1], f"counterexample {cycle} is not closed"
    for a, b in zip(cycle, cycle[1:]):
        assert (a, b) in edges, f"counterexample step {a} -> {b} is not a CDG edge"


def _layer_edge_set(layer: dict) -> set[tuple[int, int]]:
    return {(a, b) for a, b in layer["edges"]}


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_certificate_roundtrip_and_mutations(fabric, config):
    layered, paths = _route(fabric, config)
    report = verify_deadlock_free(layered, paths)

    if not report.deadlock_free:
        # The emitter must refuse cyclic layers, with a real witness cycle.
        with pytest.raises(CertificateError) as excinfo:
            emit_certificate(layered, paths)
        err = excinfo.value
        assert err.layer is not None and err.layer in report.cycles
        all_edges = set()
        for cert_layer in range(layered.num_layers):
            pids = [
                p for p in paths.active_pids()
                if int(layered.path_layers[p]) == cert_layer
            ]
            for p in pids:
                chans = paths.path(p)
                all_edges.update(
                    (int(a), int(b)) for a, b in zip(chans, chans[1:])
                )
        _assert_real_cycle(err.counterexample, all_edges)
        return

    cert = emit_certificate(layered, paths)
    wire = json.loads(cert.to_json())

    # Independent structural check on the wire format.
    structural = check_certificate(wire)
    assert structural.ok, structural.summary()
    assert structural.layers == layered.num_layers

    # Binding check: the certificate describes exactly this routing.
    bound = check_against_routing(
        DeadlockFreedomCertificate.from_dict(wire), layered, paths
    )
    assert bound.ok, bound.reason

    # -- adversarial half: single mutations must be rejected with witnesses
    edged = [
        (i, layer) for i, layer in enumerate(wire["layers"]) if layer["edges"]
    ]
    assert edged, "sweep topologies all induce at least one dependency edge"
    li, layer = edged[0]

    # 1. Flip one dependency edge: it now runs backwards in the claimed order.
    mutated = copy.deepcopy(wire)
    a, b = mutated["layers"][li]["edges"][0]
    mutated["layers"][li]["edges"][0] = [b, a]
    res = check_certificate(mutated)
    assert not res.ok
    assert res.layer == li
    assert res.witness_edge == (b, a)
    if res.counterexample is not None:
        _assert_real_cycle(
            res.counterexample, _layer_edge_set(mutated["layers"][li])
        )

    # 2. Swap the topological positions of that edge's endpoints.
    mutated = copy.deepcopy(wire)
    order = mutated["layers"][li]["topo_order"]
    ia, ib = order.index(a), order.index(b)
    order[ia], order[ib] = order[ib], order[ia]
    res = check_certificate(mutated)
    assert not res.ok
    assert res.layer == li
    assert res.witness_edge is not None
    if res.counterexample is not None:
        _assert_real_cycle(
            res.counterexample, _layer_edge_set(mutated["layers"][li])
        )

    # 3. Out-of-range path→layer entry: structural rejection.
    mutated = copy.deepcopy(wire)
    mutated["path_layers"][0] = mutated["num_layers"]
    res = check_certificate(mutated)
    assert not res.ok and "path_layers" in res.reason

    # 4. Retarget one active path's layer: structurally fine, but the
    #    binding check must notice the certificate no longer matches.
    mutated = copy.deepcopy(wire)
    pid = int(paths.active_pids()[0])
    mutated["path_layers"][pid] = -1
    assert check_certificate(mutated).ok
    res = check_against_routing(
        DeadlockFreedomCertificate.from_dict(mutated), layered, paths
    )
    assert not res.ok
    assert str(pid) in res.reason or "path" in res.reason


def _to_dict_elementwise(cert) -> dict:
    """``to_dict`` as it was before ``ndarray.tolist()`` (oracle)."""
    return {
        "format": FORMAT,
        "kind": KIND,
        "engine": cert.engine,
        "fingerprint": cert.fingerprint,
        "num_layers": int(cert.num_layers),
        "num_paths": int(len(cert.path_layers)),
        "path_layers": [int(v) for v in cert.path_layers],
        "layers": [
            {
                "topo_order": [int(c) for c in lw.topo_order],
                "edges": [[int(a), int(b)] for a, b in lw.edges],
            }
            for lw in cert.layers
        ],
    }


def _leaves(value):
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


@pytest.mark.parametrize("build, min_layers", [
    (lambda: topologies.random_topology(24, 60, terminals_per_switch=2, seed=1), 3),
    (lambda: topologies.xgft(2, (3, 3), (1, 2)), 1),
])
def test_certificate_renders_the_same_bytes_from_python_ints(build, min_layers):
    result = make_engine("dfsssp", balance=False).route(build())
    assert result.layered.layers_used >= min_layers
    cert = emit_certificate(result.layered, extract_paths(result.tables))
    payload = cert.to_dict()

    assert cert.to_json() == json.dumps(_to_dict_elementwise(cert), sort_keys=True) + "\n"
    numbers = [payload["num_layers"], payload["num_paths"], payload["path_layers"],
               [[lw["topo_order"], lw["edges"]] for lw in payload["layers"]]]
    assert all(type(v) is int for v in _leaves(numbers))
    assert check_certificate(payload).ok

    back = DeadlockFreedomCertificate.from_dict(json.loads(cert.to_json()))
    assert back.to_json() == cert.to_json()
    assert check_against_routing(back, result.layered, extract_paths(result.tables)).ok
