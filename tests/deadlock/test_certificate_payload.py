"""``DeadlockFreedomCertificate.from_dict`` takes the wire format as it is.

A payload it would have to reshape or cast (a flattened edge list, float
channel ids, string layers) or one with the wrong ``kind``, ``format`` or
``num_paths`` is a ``CertificateError``: the standalone checker rejects
such a file, so a restored checkpoint must not serve it. In a checkpoint
it is a ``CheckpointError`` naming the file, and ``load`` falls back to
the previous version. A well-formed but cyclic certificate still loads;
the served-routing gate rejects it with the checker's reason.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro import topologies
from repro.deadlock.certificate import DeadlockFreedomCertificate, check_against_routing
from repro.deadlock.checker import check_certificate
from repro.exceptions import CertificateError, CheckpointError
from repro.routing import extract_paths
from repro.service import CheckpointStore, RoutingSupervisor


@pytest.fixture(scope="module")
def routed():
    fabric = topologies.random_topology(8, 18, terminals_per_switch=2, seed=3)
    sup = RoutingSupervisor(fabric)
    return sup.serving().result


@pytest.fixture()
def wire(routed):
    return json.loads(routed.certificate.to_json())


def _flattened_edges(wire):
    layer = next(lw for lw in wire["layers"] if lw["edges"])
    layer["edges"] = [c for edge in layer["edges"] for c in edge]


def _float_topo_order(wire):
    layer = next(lw for lw in wire["layers"] if lw["topo_order"])
    layer["topo_order"] = [float(c) for c in layer["topo_order"]]


def _string_path_layers(wire):
    wire["path_layers"] = [str(v) for v in wire["path_layers"]]


def _num_paths_5(wire):
    wire["num_paths"] = 5


def _kind_x(wire):
    wire["kind"] = "x"


def _format_2(wire):
    wire["format"] = 2


def _bool_path_layer(wire):
    wire["path_layers"][0] = True


def _string_num_layers(wire):
    wire["num_layers"] = str(wire["num_layers"])


def _three_element_edge(wire):
    layer = next(lw for lw in wire["layers"] if lw["edges"])
    layer["edges"][0] = layer["edges"][0] + [layer["edges"][0][0]]


MALFORMED = [
    _flattened_edges, _float_topo_order, _string_path_layers, _num_paths_5, _kind_x,
    _format_2, _string_num_layers, _three_element_edge,
]


@pytest.mark.parametrize("tamper", MALFORMED, ids=lambda f: f.__name__.strip("_"))
def test_from_dict_refuses_what_the_checker_rejects(wire, tamper):
    tamper(wire)
    assert not check_certificate(wire).ok
    with pytest.raises(CertificateError, match="malformed certificate payload"):
        DeadlockFreedomCertificate.from_dict(wire)


def test_from_dict_refuses_a_bool_the_checker_reads_as_an_int(wire):
    _bool_path_layer(wire)
    assert check_certificate(wire).ok  # True is 1 to isinstance(..., int)
    with pytest.raises(CertificateError, match="path_layers is not a list of integers"):
        DeadlockFreedomCertificate.from_dict(wire)


@pytest.mark.parametrize("tamper", [_flattened_edges, _float_topo_order, _string_path_layers,
                                    _num_paths_5, _kind_x], ids=lambda f: f.__name__.strip("_"))
def test_a_checkpoint_with_such_a_certificate_falls_back(tmp_path, tamper):
    fabric = topologies.random_topology(8, 18, terminals_per_switch=2, seed=3)
    sup = RoutingSupervisor(fabric, checkpoint_dir=tmp_path / "ckpt")
    sup.checkpoint()
    store = CheckpointStore(tmp_path / "ckpt")
    newest = store.latest_version()
    cert_path = store.root / store._name(newest) / "certificate.json"
    wire = json.loads(cert_path.read_text())
    tamper(wire)
    cert_path.write_text(json.dumps(wire))

    with pytest.raises(CheckpointError, match="certificate.json"):
        store.load(newest)
    assert store.load().version < newest


def test_a_cyclic_but_well_formed_certificate_loads_and_fails_binding(routed, wire):
    layer = next(lw for lw in wire["layers"] if lw["edges"])
    a, b = layer["edges"][0]
    layer["edges"].append([b, a])
    cert = DeadlockFreedomCertificate.from_dict(wire)
    res = check_against_routing(cert, routed.layered, extract_paths(routed.tables))
    assert not res.ok
    assert res.reason == check_certificate(wire).reason
    assert res.counterexample


def test_round_trip_keeps_dtypes_and_shapes(routed, wire):
    cert = DeadlockFreedomCertificate.from_dict(wire)
    assert cert.to_json() == routed.certificate.to_json()
    assert cert.path_layers.dtype == routed.certificate.path_layers.dtype == np.int8
    for lw, emitted in zip(cert.layers, routed.certificate.layers):
        assert lw.edges.shape == (len(lw.edges), 2)
        assert lw.edges.dtype == emitted.edges.dtype == np.int32
        assert lw.topo_order.dtype == emitted.topo_order.dtype == np.int32
