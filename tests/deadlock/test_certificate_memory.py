"""The certificate path never builds the nested wire format.

``check_against_routing`` hands the checker flat ``tolist()`` lists and
the checkpoint streams ``certificate.json`` from the arrays, so neither
calls ``to_dict`` (patched here to raise) and their ``tracemalloc`` peaks
stay within a fixed multiple of the certificate's own array bytes. On
the 128-switch fabric below (15 722 edges in 16 layers, 16 384 paths)
the arrays take 184 KB at int8 layers and int32 channel ids. The binding
check, building one layer's flat lists at a time, peaks at 3.8x that and
the file write at 1.6x. At the old int32 / int64 widths (401 KB) the
nested lists peaked at 7.2x for the binding check, 14.3x for the file
write and added 12.8x to a checkpoint write.
"""

from __future__ import annotations

import gc
import tracemalloc

import pytest

from repro import topologies
from repro.core import DFSSSPEngine
from repro.deadlock.certificate import (
    DeadlockFreedomCertificate,
    check_against_routing,
    emit_certificate,
)
from repro.routing import extract_paths
from repro.service import CheckpointStore

#: peak of the binding check (structural check on flat lists + one
#: layer-edge derivation), in multiples of the certificate's array bytes
MAX_CHECK = 6.0
#: peak a certificate adds to a file or checkpoint write, same unit
MAX_WRITE = 4.0


def _peak(call) -> int:
    gc.collect()
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


@pytest.fixture(scope="module")
def certified():
    fabric = topologies.random_topology(128, 512, 1, seed=1)
    result = DFSSSPEngine(max_layers=16).route(fabric)
    paths = extract_paths(result.tables)
    result.certificate = emit_certificate(result.layered, paths)
    check_against_routing(result.certificate, result.layered, paths)  # build the turn index
    cert = result.certificate
    array_bytes = cert.path_layers.nbytes + sum(
        lw.topo_order.nbytes + lw.edges.nbytes for lw in cert.layers
    )
    return fabric, result, paths, array_bytes


@pytest.fixture()
def no_to_dict(monkeypatch):
    def refuse(self):
        raise AssertionError("the certificate path built the nested wire format")

    monkeypatch.setattr(DeadlockFreedomCertificate, "to_dict", refuse)


def test_binding_check_stays_within_a_multiple_of_the_arrays(certified, no_to_dict):
    _, result, paths, array_bytes = certified
    verdict = []
    peak = _peak(lambda: verdict.append(
        check_against_routing(result.certificate, result.layered, paths)))
    assert verdict[0].ok
    assert peak < MAX_CHECK * array_bytes, f"{peak / array_bytes:.2f}x the arrays"


def test_certificate_writes_stay_within_a_multiple_of_the_arrays(certified, no_to_dict,
                                                                 tmp_path):
    fabric, result, _, array_bytes = certified
    cert = result.certificate
    peak = _peak(lambda: cert.save(tmp_path / "c.json"))
    assert peak < MAX_WRITE * array_bytes, f"{peak / array_bytes:.2f}x the arrays"

    state = {"engine": "dfsssp", "state": "healthy", "dead_cables": [], "dead_switches": []}
    store = CheckpointStore(tmp_path / "ckpt")
    result.certificate = None
    try:
        without = _peak(lambda: store.save(version=1, baseline=fabric, result=result,
                                           state=state))
    finally:
        result.certificate = cert
    with_cert = _peak(lambda: store.save(version=2, baseline=fabric, result=result,
                                         state=state))
    assert with_cert - without < MAX_WRITE * array_bytes, (
        f"{(with_cert - without) / array_bytes:.2f}x the arrays"
    )
    written = store.root / store._name(2) / "certificate.json"
    assert written.read_text() == "".join(cert.json_chunks())
