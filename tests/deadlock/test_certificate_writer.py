"""The certificate's JSON writer renders from its arrays, block by block.

``DeadlockFreedomCertificate.json_chunks`` must give the bytes
``json.dumps`` gives for the nested wire format (the elementwise oracle
of ``test_certificate.py``): on several fabric families, with empty
layers, with every path traffic-free, and across block boundaries (the
block shrunk to 3 rows). ``save`` and ``CheckpointStore.save`` write
exactly ``to_json()``.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.deadlock.certificate as certificate_mod
from repro import topologies
from repro.deadlock.certificate import (
    DeadlockFreedomCertificate,
    LayerWitness,
    emit_certificate,
)
from repro.routing import extract_paths, make_engine
from repro.service import CheckpointStore
from tests.deadlock.test_certificate import _to_dict_elementwise

FAMILIES = {
    "ring": lambda: topologies.ring(6, terminals_per_switch=1),
    "torus": lambda: topologies.torus((3, 3), terminals_per_switch=1),
    "xgft": lambda: topologies.xgft(2, (3, 3), (1, 2)),
    "random": lambda: topologies.random_topology(24, 60, terminals_per_switch=2, seed=1),
    "dragonfly": lambda: topologies.dragonfly(2, 2, 1),
    "kautz": lambda: topologies.kautz(2, 2, 8),
}


def _oracle(cert) -> str:
    return json.dumps(_to_dict_elementwise(cert), sort_keys=True) + "\n"


@pytest.fixture(scope="module", params=sorted(FAMILIES))
def routed(request):
    result = make_engine("dfsssp", max_layers=6).route(FAMILIES[request.param]())
    return result, emit_certificate(result.layered, extract_paths(result.tables))


def _small_blocks(monkeypatch):
    monkeypatch.setattr(certificate_mod, "JSON_BLOCK", 3)


@pytest.mark.parametrize("block", ["default", "three"])
def test_streamed_json_is_the_wire_format_byte_for_byte(routed, block, monkeypatch):
    if block == "three":
        _small_blocks(monkeypatch)
    _, cert = routed
    chunks = list(cert.json_chunks())
    assert "".join(chunks) == cert.to_json() == _oracle(cert)
    if block == "three":  # no chunk renders more than one block of any array
        longest = max(max(len(lw.edges), len(lw.topo_order)) for lw in cert.layers)
        assert len(chunks) > 2 * longest // 3


def test_empty_layers_and_an_all_traffic_free_assignment(monkeypatch):
    """Unbalanced, the fat tree leaves layers without edges; then every path goes to -1."""
    fabric = topologies.xgft(2, (3, 3), (1, 2))
    result = make_engine("dfsssp", max_layers=6, balance=False).route(fabric)
    cert = emit_certificate(result.layered, extract_paths(result.tables))
    assert any(len(lw.edges) == 0 for lw in cert.layers)
    cert.path_layers = np.full(len(cert.path_layers), -1, dtype=np.int32)
    for block in (certificate_mod.JSON_BLOCK, 3, 1):
        monkeypatch.setattr(certificate_mod, "JSON_BLOCK", block)
        assert cert.to_json() == _oracle(cert)


@pytest.mark.parametrize("rows", [0, 1, 2, 3, 4, 6, 7])
def test_block_boundaries(rows, monkeypatch):
    _small_blocks(monkeypatch)
    edges = np.arange(2 * rows, dtype=np.int64).reshape(rows, 2) * 7 - 5
    cert = DeadlockFreedomCertificate(
        engine="dfsssp", fingerprint=None, num_layers=2,
        path_layers=np.arange(rows, dtype=np.int32) % 3 - 1,
        layers=[LayerWitness(np.arange(rows, dtype=np.int64)[::-1].copy(), edges),
                LayerWitness(np.empty(0, dtype=np.int64), np.empty((0, 2), dtype=np.int64))],
    )
    assert cert.to_json() == _oracle(cert)


def test_arrays_the_fast_renderer_does_not_take_render_as_json_dumps(monkeypatch):
    """Non-integer or mis-shaped arrays (never emitted) still render as the
    nested lists would: the writer never changes what a certificate says."""
    _small_blocks(monkeypatch)
    cert = DeadlockFreedomCertificate(
        engine="x", fingerprint="f" * 64, num_layers=1,
        path_layers=np.array([0.0, -1.0]),
        layers=[LayerWitness(np.array([True, False]), np.arange(9).reshape(3, 3))],
    )
    assert cert.to_json() == json.dumps(cert.to_dict(), sort_keys=True) + "\n"


def test_save_writes_to_json(routed, tmp_path, monkeypatch):
    _small_blocks(monkeypatch)
    _, cert = routed
    path = cert.save(tmp_path / "c.json")
    assert path.read_text() == cert.to_json()
    assert DeadlockFreedomCertificate.load(path).to_json() == cert.to_json()


def test_checkpoint_writes_to_json(tmp_path, monkeypatch):
    _small_blocks(monkeypatch)
    fabric = topologies.random_topology(12, 26, terminals_per_switch=2, seed=11)
    result = make_engine("dfsssp").route(fabric)
    result.certificate = emit_certificate(result.layered, extract_paths(result.tables))
    store = CheckpointStore(tmp_path / "ckpt")
    final = store.save(version=1, baseline=fabric, result=result,
                       state={"engine": "dfsssp", "state": "healthy",
                              "dead_cables": [], "dead_switches": []})
    assert (final / "certificate.json").read_text() == result.certificate.to_json()
    assert store.load().result.certificate.to_json() == result.certificate.to_json()
