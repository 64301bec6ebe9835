"""Property-based tests (hypothesis) for deadlock-freedom certificates.

* On arbitrary random fabrics, a certificate can be emitted **iff** the
  full verifier passes — the O(V+E) witness and the O(paths · hops)
  re-verification agree everywhere.
* Corrupted certificates (reversed topological order, one edge's ends
  swapped in the order, dropped layer, dropped edge, path remapped to
  another layer, bound to a sibling routing) are always rejected by the
  pipeline: structurally where the wire format itself breaks, at binding
  time where the certificate no longer describes the routing.
* Whenever the checker returns a counterexample it is a *real* cycle in
  the certified edge set — closed, and every step an actual edge.
* The checker's builtin check of ``path_layers`` accepts exactly what
  the per-entry loop accepts and rejects with the loop's text.
* On arbitrary small digraphs (self-loops and parallel edges included)
  the Kahn peel behind verification and emission agrees with networkx:
  an empty core exactly on a DAG, whose (peel round, id) order puts
  every edge forward; otherwise the minimal cycle is a real one.
"""

from __future__ import annotations

import json

import networkx as nx
import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro import topologies
from repro.deadlock import verify_deadlock_free
from repro.deadlock.certificate import (
    DeadlockFreedomCertificate,
    check_against_routing,
    emit_certificate,
)
from repro.deadlock.checker import FORMAT, KIND, check_certificate, find_minimal_cycle
from repro.deadlock.cycles import kahn_core
from repro.exceptions import CertificateError
from repro.routing import extract_paths, make_engine
from repro.routing.base import LayeredRouting

_slow = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

random_topo_params = st.tuples(
    st.integers(min_value=4, max_value=10),  # switches
    st.integers(min_value=0, max_value=12),  # extra links beyond the tree
    st.integers(min_value=1, max_value=2),  # terminals per switch
    st.integers(min_value=0, max_value=10_000),  # seed
)


def _route(params, engine_name, **opts):
    s, extra, tps, seed = params
    links = min(s - 1 + extra, s * (s - 1) // 2)
    fabric = topologies.random_topology(s, links, tps, seed=seed)
    result = make_engine(engine_name, **opts).route(fabric)
    paths = extract_paths(result.tables)
    layered = result.layered or LayeredRouting.single_layer(result.tables)
    return layered, paths


def _assert_real_cycle(cycle, edges) -> None:
    assert cycle[0] == cycle[-1]
    assert len(cycle) >= 3
    for a, b in zip(cycle, cycle[1:]):
        assert (a, b) in edges


@_slow
@given(random_topo_params, st.sampled_from(["sssp", "dfsssp"]))
def test_certified_iff_verified(params, engine_name):
    layered, paths = _route(params, engine_name)
    verified = verify_deadlock_free(layered, paths).deadlock_free
    try:
        cert = emit_certificate(layered, paths)
    except CertificateError as err:
        assert not verified
        assert err.counterexample is not None
        return
    assert verified
    assert check_certificate(json.loads(cert.to_json())).ok
    assert check_against_routing(cert, layered, paths).ok


@_slow
@given(random_topo_params, st.data())
def test_corrupted_certificates_always_rejected(params, data):
    layered, paths = _route(params, "dfsssp")
    cert = emit_certificate(layered, paths)
    wire = json.loads(cert.to_json())

    corruption = data.draw(
        st.sampled_from([
            "reverse_order", "swap_edge_ends", "drop_layer", "drop_edge",
            "remap_path", "sibling_routing",
        ]),
        label="corruption",
    )
    edged = [i for i, l in enumerate(wire["layers"]) if l["edges"]]
    if corruption == "reverse_order":
        # Reversing a layer's topological order flips *every* certified
        # edge backwards — guaranteed structural rejection for any layer
        # that certifies at least one dependency.
        if not edged:
            return  # nothing to corrupt: no dependencies anywhere
        li = data.draw(st.sampled_from(edged), label="layer")
        wire["layers"][li]["topo_order"].reverse()
        res = check_certificate(wire)
        assert not res.ok and res.layer == li and res.witness_edge is not None
        if res.counterexample is not None:
            edges = {(a, b) for a, b in wire["layers"][li]["edges"]}
            _assert_real_cycle(res.counterexample, edges)
        return

    if corruption == "swap_edge_ends":
        # Swap the ends of the layer's first certified edge in its order:
        # that edge now goes backwards and, checked first, is the witness.
        # The edge set itself is still acyclic, so there is no cycle.
        if not edged:
            return
        li = data.draw(st.sampled_from(edged), label="layer")
        layer = wire["layers"][li]
        a, b = layer["edges"][0]
        order = layer["topo_order"]
        i, j = order.index(a), order.index(b)
        order[i], order[j] = b, a
        res = check_certificate(wire)
        assert not res.ok and res.layer == li
        assert res.witness_edge == (a, b)
        assert res.counterexample is None
        return

    if corruption == "drop_edge":
        # A certificate with one edge fewer is still a valid acyclicity
        # witness of *its* edge set — only binding sees the lost edge.
        if not edged:
            return
        li = data.draw(st.sampled_from(edged), label="layer")
        edges = wire["layers"][li]["edges"]
        edges.pop(data.draw(st.integers(0, len(edges) - 1), label="edge"))
        assert check_certificate(wire).ok
        res = check_against_routing(DeadlockFreedomCertificate.from_dict(wire), layered, paths)
        assert not res.ok and res.layer == li
        return

    if corruption == "sibling_routing":
        # Same fabric, same tables, another DFSSSP layering: a certificate
        # of one must not bind to the other wherever their layers differ.
        opts = data.draw(
            st.sampled_from([{"balance": False}, {"heuristic": "strongest"}]), label="opts"
        )
        sibling, sibling_paths = _route(params, "dfsssp", **opts)
        active = paths.active_mask()
        if np.array_equal(
            sibling.path_layers[active], layered.path_layers[active]
        ) and sibling.num_layers == layered.num_layers:
            return  # the same layering: binding rightly accepts it
        assert not check_against_routing(cert, sibling, sibling_paths).ok
        return

    if corruption == "drop_layer":
        wire["num_layers"] -= 1
        wire["layers"].pop()
        if wire["num_layers"] == 0:
            res = check_certificate(wire)  # wire format itself now invalid
        else:
            res = check_certificate(wire)
            if res.ok:
                # Structurally consistent (no path claimed the dropped
                # layer) — binding must still notice the layer-count lie.
                res = check_against_routing(
                    DeadlockFreedomCertificate.from_dict(wire), layered, paths
                )
        assert not res.ok
        return

    # remap_path: move one active path to a different (valid) layer.
    pids = paths.active_pids()
    pid = int(data.draw(st.sampled_from(list(map(int, pids))), label="pid"))
    old = wire["path_layers"][pid]
    wire["path_layers"][pid] = (old + 1) % wire["num_layers"] if wire["num_layers"] > 1 else -1
    assert check_certificate(wire).ok  # the lie is structurally invisible...
    res = check_against_routing(
        DeadlockFreedomCertificate.from_dict(wire), layered, paths
    )
    assert not res.ok  # ...but never survives binding


@_slow
@given(
    st.lists(
        st.tuples(st.integers(0, 15), st.integers(0, 15)),
        min_size=0,
        max_size=40,
    ),
    st.lists(st.integers(0, 15), min_size=2, max_size=6, unique=True),
)
@example(noise_edges=[], cycle_nodes=[0, 1, 2, 3, 4])  # a bare ring
def test_minimal_cycle_is_real(noise_edges, cycle_nodes):
    # Plant a guaranteed cycle among arbitrary noise edges.
    planted = list(zip(cycle_nodes, cycle_nodes[1:])) + [
        (cycle_nodes[-1], cycle_nodes[0])
    ]
    edges = [e for e in noise_edges if e[0] != e[1]] + planted
    cycle = find_minimal_cycle(edges)
    assert cycle is not None
    _assert_real_cycle(cycle, set(edges))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=20))
@example([])  # no edges: trivially acyclic
@example([(0, 1), (1, 2), (2, 3)])  # an open chain: acyclic, no witness
@example([(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])  # a ring: the witness is real
@example([(3, 3)])  # a self-loop is a cycle
@example([(0, 1), (0, 1), (1, 2)])  # parallel edges
def test_kahn_peel_agrees_with_networkx(edges):
    src = np.array([a for a, _ in edges], dtype=np.int64)
    dst = np.array([b for _, b in edges], dtype=np.int64)
    nodes, rank = kahn_core(src, dst)
    assert nodes.tolist() == sorted({c for e in edges for c in e})
    is_dag = nx.is_directed_acyclic_graph(nx.MultiDiGraph(edges))
    assert bool((rank >= 0).all()) == is_dag
    cycle = find_minimal_cycle(edges)
    if is_dag:
        assert cycle is None
        order = nodes[np.argsort(rank, kind="stable")].tolist()
        pos = {c: i for i, c in enumerate(order)}
        assert all(pos[a] < pos[b] for a, b in edges)
        return
    assert cycle is not None and len(cycle) >= 2 and cycle[0] == cycle[-1]
    assert all(step in set(edges) for step in zip(cycle, cycle[1:]))


def _loop_verdict(path_layers, num_layers):
    """The per-entry loop the checker's builtin fast path stands in for."""
    for i, layer in enumerate(path_layers):
        if not isinstance(layer, int) or not -1 <= layer < num_layers:
            return f"path_layers[{i}] = {layer!r} outside [-1, {num_layers})"
    return None


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4),
    st.lists(st.one_of(st.integers(-2, 5), st.booleans(), st.floats(-2, 5)), max_size=6),
)
@example(2, [])  # nothing to check
@example(2, [0, 1, -1])
@example(2, [0, 2])  # num_layers itself
@example(2, [1, -2])
@example(2, [True, False, 1])  # bools are ints to the loop: accepted
@example(2, [0, 1.0])  # a float is not
def test_path_layers_fast_path_agrees_with_the_loop(num_layers, path_layers):
    wire = {
        "format": FORMAT,
        "kind": KIND,
        "num_layers": num_layers,
        "num_paths": len(path_layers),
        "path_layers": path_layers,
        "layers": [{"topo_order": [], "edges": []} for _ in range(num_layers)],
    }
    res = check_certificate(wire)
    want = _loop_verdict(path_layers, num_layers)
    assert res.ok == (want is None)
    assert res.reason == want
