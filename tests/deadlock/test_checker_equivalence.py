"""The checker's flat-list core gives the verdicts of the per-edge checker.

``_reference_check_certificate`` is ``check_certificate`` as it was before
the per-layer core checked flat edge lists: one Python loop over every
topological-order entry and every ``[c1, c2]`` edge. Hypothesis stacks
one to three mutations on real certificates — a reversed edge, a
self-dependency, a channel absent from the order, a duplicate order
entry, bool / float / str entries, a 3-element or non-list edge, a
non-object witness — and every :class:`CheckResult` field must agree
(ok, reason, layer, witness edge, counterexample and the counts). The
flat entry, ``check_layers`` behind ``DeadlockFreedomCertificate.check``,
must agree with ``check_certificate(to_dict())`` on certificates whose
arrays were mutated in memory.
"""

from __future__ import annotations

import copy
import dataclasses
import json
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import topologies
from repro.deadlock.certificate import (
    DeadlockFreedomCertificate,
    LayerWitness,
    check_against_routing,
    emit_certificate,
)
from repro.deadlock.checker import (
    FORMAT,
    KIND,
    CheckResult,
    _fail,
    check_certificate,
    check_layers,
    find_minimal_cycle,
    flat_edges,
)
from repro.routing import extract_paths, make_engine


def _reference_check_certificate(cert) -> CheckResult:
    """The per-edge checker the flat-list core replaced (verbatim)."""
    if not isinstance(cert, dict):
        return _fail("certificate is not a JSON object")
    if cert.get("kind") != KIND:
        return _fail(f"kind is {cert.get('kind')!r}, expected {KIND!r}")
    if cert.get("format") != FORMAT:
        return _fail(f"unsupported certificate format {cert.get('format')!r}")
    num_layers = cert.get("num_layers")
    if not isinstance(num_layers, int) or num_layers < 1:
        return _fail(f"num_layers must be a positive integer, got {num_layers!r}")
    layers = cert.get("layers")
    if not isinstance(layers, list) or len(layers) != num_layers:
        got = len(layers) if isinstance(layers, list) else type(layers).__name__
        return _fail(f"certificate carries {got} layer witness(es), expected {num_layers}")
    path_layers = cert.get("path_layers")
    if not isinstance(path_layers, list):
        return _fail("path_layers missing or not a list")
    if cert.get("num_paths", len(path_layers)) != len(path_layers):
        return _fail(f"path_layers has {len(path_layers)} entries, num_paths says "
                     f"{cert.get('num_paths')}")
    if not (set(map(type, path_layers)) <= {int} and min(path_layers, default=0) >= -1
            and max(path_layers, default=0) < num_layers):  # builtins clear the common case
        for i, layer in enumerate(path_layers):  # only to name the first bad entry
            if not isinstance(layer, int) or not -1 <= layer < num_layers:
                return _fail(f"path_layers[{i}] = {layer!r} outside [-1, {num_layers})")
    total_nodes = total_edges = 0
    for li, witness in enumerate(layers):
        if not isinstance(witness, dict):
            return _fail("layer witness is not an object", layer=li)
        topo, edges = witness.get("topo_order"), witness.get("edges")
        if not isinstance(topo, list) or not isinstance(edges, list):
            return _fail("layer witness needs 'topo_order' and 'edges' lists", layer=li)
        pos: dict[int, int] = {}
        for i, c in enumerate(topo):
            if not isinstance(c, int):
                return _fail(f"topo_order[{i}] = {c!r} is not a channel id", layer=li)
            if c in pos:
                return _fail(f"channel {c} appears twice in the topological order", layer=li)
            pos[c] = i
        bad = None  # (reason, edge) of the first edge not strictly forward
        for e in edges:
            if not (isinstance(e, list) and len(e) == 2 and all(isinstance(c, int) for c in e)):
                return _fail(f"malformed dependency edge {e!r}", layer=li)
            c1, c2 = e
            if c1 == c2:
                return _fail(f"self-dependency on channel {c1}", layer=li,
                             edge=(c1, c2), cycle=[c1, c1])
            p1, p2 = pos.get(c1), pos.get(c2)
            if bad is None and (p1 is None or p2 is None):
                bad = (f"edge ({c1}, {c2}) references channel {c1 if p1 is None else c2} "
                       "absent from the topological order", (c1, c2))
            elif bad is None and p1 >= p2:
                bad = (f"edge ({c1}, {c2}) goes backwards in the claimed topological order "
                       f"(position {p1} >= {p2})", (c1, c2))
        if bad is not None:
            return _fail(bad[0], layer=li, edge=bad[1], cycle=find_minimal_cycle(edges))
        total_nodes += len(pos)
        total_edges += len(edges)
    return CheckResult(True, layers=num_layers, nodes=total_nodes, edges=total_edges)


FABRICS = {
    "random": lambda: topologies.random_topology(10, 22, 1, seed=5),
    "torus": lambda: topologies.torus((3, 3), terminals_per_switch=1),
    "ring": lambda: topologies.ring(6, terminals_per_switch=1),
}


@lru_cache(maxsize=None)
def _routed(name):
    result = make_engine("dfsssp").route(FABRICS[name]())
    paths = extract_paths(result.tables)
    return result.layered, paths, emit_certificate(result.layered, paths)


def _same(got: CheckResult, want: CheckResult) -> None:
    assert dataclasses.astuple(got) == dataclasses.astuple(want)
    assert got.summary() == want.summary()


def _edged(wire) -> list[int]:
    return [i for i, lw in enumerate(wire["layers"]) if isinstance(lw, dict) and lw["edges"]]


#: a channel id no test fabric has
ABSENT = 10**6
_ODD_VALUES = st.sampled_from([True, False, 1.0, 2.5, "3", None])


def _mutate(wire, data) -> None:
    """Apply one drawn mutation to ``wire`` in place."""
    kind = data.draw(st.sampled_from([
        "reverse_edge", "self_dependency", "absent_channel", "duplicate_topo",
        "odd_topo_entry", "odd_edge_entry", "odd_path_layer", "three_element_edge",
        "non_list_edge", "witness_not_object", "drop_topo_entry", "repeat_topo_entry",
    ]), label="mutation")
    layers = wire["layers"]
    edged = _edged(wire)
    li = data.draw(st.sampled_from(edged or list(range(len(layers)))), label="layer")
    layer = layers[li]
    if not isinstance(layer, dict):
        return
    topo, edges = layer["topo_order"], layer["edges"]
    if kind == "witness_not_object":
        layers[li] = data.draw(st.sampled_from([[], "layer", None]), label="witness")
        return
    if kind == "odd_path_layer" and wire["path_layers"]:
        i = data.draw(st.integers(0, len(wire["path_layers"]) - 1), label="pid")
        wire["path_layers"][i] = data.draw(_ODD_VALUES, label="value")
        return
    if kind in ("duplicate_topo", "odd_topo_entry", "drop_topo_entry",
                "repeat_topo_entry") and topo:
        i = data.draw(st.integers(0, len(topo) - 1), label="topo index")
        if kind == "repeat_topo_entry":  # order unchanged, one channel listed twice
            topo.insert(i + 1, topo[i])
        elif kind == "duplicate_topo":
            topo[i] = topo[data.draw(st.integers(0, len(topo) - 1), label="copy of")]
        elif kind == "odd_topo_entry":
            topo[i] = data.draw(_ODD_VALUES, label="value")
        else:
            del topo[i]
        return
    if not edges:
        return
    k = data.draw(st.integers(0, len(edges) - 1), label="edge")
    edge = edges[k]
    if not isinstance(edge, list) or len(edge) != 2:
        return
    if kind == "reverse_edge":
        edges[k] = edge[::-1]
    elif kind == "self_dependency":
        edges[k] = [edge[0], edge[0]]
    elif kind == "absent_channel":
        edges[k] = [edge[0], ABSENT] if data.draw(st.booleans()) else [ABSENT, edge[1]]
    elif kind == "odd_edge_entry":
        edges[k] = [edge[0], data.draw(_ODD_VALUES, label="value")]
    elif kind == "three_element_edge":
        edges[k] = edge + [edge[0]]
    elif kind == "non_list_edge":
        edges[k] = data.draw(st.sampled_from([edge[0], "a-b", {"c1": edge[0]}]), label="edge")


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(FABRICS)), st.integers(1, 3), st.data())
def test_mutated_wire_certificates_get_the_reference_verdict(name, count, data):
    wire = json.loads(_routed(name)[2].to_json())
    for _ in range(count):
        _mutate(wire, data)
    _same(check_certificate(copy.deepcopy(wire)), _reference_check_certificate(wire))


@pytest.mark.parametrize("name", sorted(FABRICS))
def test_unmutated_certificates_agree_and_pass(name):
    cert = _routed(name)[2]
    wire = json.loads(cert.to_json())
    want = _reference_check_certificate(wire)
    assert want.ok
    _same(check_certificate(wire), want)
    _same(cert.check(), want)


def test_flat_edges_keeps_every_non_pair_as_one_bad_edge():
    assert flat_edges([[1, 2], [3, 4]]) == [1, 2, 3, 4]
    flat = flat_edges([[1, 2], [3, 4, 5], 6])
    assert flat[:2] == [1, 2] and flat[3] == [3, 4, 5] and flat[5] == 6
    assert len(flat) == 6


def test_check_layers_takes_flat_lists():
    ok = check_layers(1, [0, -1], [([5, 7, 9], [5, 7, 7, 9])])
    assert ok.ok and (ok.nodes, ok.edges) == (3, 2)
    back = check_layers(1, [0], [([5, 7, 9], [5, 7, 9, 7])])
    assert not back.ok and back.witness_edge == (9, 7)
    assert check_layers(2, [0], [([], [])]).reason == \
        "certificate carries 1 layer witness(es), expected 2"


def _copy_cert(cert) -> DeadlockFreedomCertificate:
    return DeadlockFreedomCertificate(
        engine=cert.engine, fingerprint=cert.fingerprint, num_layers=cert.num_layers,
        path_layers=cert.path_layers.copy(),
        layers=[LayerWitness(lw.topo_order.copy(), lw.edges.copy()) for lw in cert.layers],
    )


def _mutate_arrays(cert, data) -> None:
    kind = data.draw(st.sampled_from([
        "reverse_edge", "self_dependency", "absent_channel", "swap_topo", "duplicate_topo",
        "path_layer_out_of_range", "float_edges", "bool_topo", "three_column_edges",
        "flat_edges", "num_layers", "drop_layer", "repeat_topo_entry",
    ]), label="array mutation")
    edged = [i for i, lw in enumerate(cert.layers)
             if lw.edges.ndim == 2 and lw.edges.shape[1] == 2 and len(lw.edges)]
    if not edged:
        return
    lw = cert.layers[data.draw(st.sampled_from(edged), label="layer")]
    k = data.draw(st.integers(0, len(lw.edges) - 1), label="edge")
    if kind == "reverse_edge":
        lw.edges[k] = lw.edges[k][::-1].copy()
    elif kind == "self_dependency":
        lw.edges[k, 1] = lw.edges[k, 0]
    elif kind == "absent_channel":
        lw.edges[k, 1] = ABSENT
    elif kind == "swap_topo":
        i, j = data.draw(st.lists(st.integers(0, len(lw.topo_order) - 1), min_size=2,
                                  max_size=2), label="positions")
        lw.topo_order[[i, j]] = lw.topo_order[[j, i]]
    elif kind == "duplicate_topo":
        lw.topo_order[-1] = lw.topo_order[0]
    elif kind == "repeat_topo_entry":
        i = data.draw(st.integers(0, len(lw.topo_order) - 1), label="topo index")
        lw.topo_order = np.insert(lw.topo_order, i + 1, lw.topo_order[i])
    elif kind == "path_layer_out_of_range":
        cert.path_layers[data.draw(st.integers(0, len(cert.path_layers) - 1))] = \
            data.draw(st.sampled_from([cert.num_layers, -2]), label="layer value")
    elif kind == "float_edges":
        lw.edges = lw.edges.astype(np.float64)
    elif kind == "bool_topo":
        lw.topo_order = np.zeros(len(lw.topo_order), dtype=bool)
    elif kind == "three_column_edges":
        lw.edges = np.concatenate([lw.edges, lw.edges[:, :1]], axis=1)
    elif kind == "flat_edges":
        lw.edges = lw.edges.ravel()
    elif kind == "num_layers":
        cert.num_layers = data.draw(st.sampled_from([0, cert.num_layers + 1]), label="count")
    else:
        cert.layers.pop()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(sorted(FABRICS)), st.integers(1, 2), st.data())
def test_flat_entry_agrees_with_the_wire_entry_on_mutated_arrays(name, count, data):
    layered, paths, emitted = _routed(name)
    cert = _copy_cert(emitted)
    for _ in range(count):
        _mutate_arrays(cert, data)
    want = check_certificate(cert.to_dict())
    _same(cert.check(), want)
    if not want.ok:
        _same(check_against_routing(cert, layered, paths), want)
