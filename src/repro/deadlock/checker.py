"""Standalone deadlock-freedom certificate checker: stdlib only, so a bug in the
routing engines cannot vouch for itself. Per layer, a certificate's topological
order witnesses that the channel-dependency graph is acyclic (Dally & Seitz); one
O(V+E) core checks a *flat* edge list ``[c1, c2, c1, c2, ...]`` against it, fed by
:func:`check_certificate` (JSON wire format) and :func:`check_layers` (plain lists).
A rejection names the first bad entry and, when the certified edges contain a
cycle, a shortest one. ``python -m repro.deadlock.checker cert.json [...]`` exits 0
iff every file is accepted.
"""

from __future__ import annotations

import json
import sys
from collections import deque
from dataclasses import dataclass
from itertools import chain
from operator import lt

FORMAT = 1  # certificate schema version this checker understands
KIND = "deadlock-freedom-certificate"
_ABSENT = object()  # num_paths left out of the wire format
_NOT_A_PAIR = object()  # flat_edges: (_NOT_A_PAIR, entry) stands for a malformed edge

@dataclass
class CheckResult:
    """Outcome of one certificate check."""
    ok: bool
    reason: str | None = None
    layer: int | None = None
    witness_edge: tuple[int, int] | None = None
    counterexample: list[int] | None = None
    layers: int = 0
    nodes: int = 0
    edges: int = 0

    def __bool__(self) -> bool:
        return self.ok

    def summary(self) -> str:
        if self.ok:
            return (f"certificate OK: {self.layers} layer(s), {self.nodes} CDG node(s), "
                    f"{self.edges} dependency edge(s), every layer topologically ordered")
        where = f" in layer {self.layer}" if self.layer is not None else ""
        parts = [f"certificate REJECTED{where}: {self.reason}"]
        if self.witness_edge is not None:
            parts.append(f"witness edge {self.witness_edge[0]} -> {self.witness_edge[1]}")
        if self.counterexample:
            parts.append("counterexample cycle " + " -> ".join(map(str, self.counterexample)))
        return "; ".join(parts)

def _fail(reason, layer=None, edge=None, cycle=None) -> CheckResult:
    return CheckResult(False, reason=reason, layer=layer, witness_edge=edge, counterexample=cycle)

def find_minimal_cycle(edges) -> list[int] | None:
    """A shortest simple cycle of ``edges`` as ``[c, ..., c]``, or ``None``."""
    succ, indeg = {}, {}  # Kahn peel first: strip the acyclic fringe
    for c1, c2 in edges:
        succ.setdefault(c1, []).append(c2)
        indeg[c2] = indeg.get(c2, 0) + 1
        indeg.setdefault(c1, 0)
    queue, gone = [n for n, d in indeg.items() if d == 0], set()
    while queue:
        n = queue.pop()
        gone.add(n)
        for w in succ.get(n, ()):
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    core = set(indeg) - gone
    if not core:
        return None
    pred: dict[int, int] = {}  # one in-core predecessor per core node
    for c1, c2 in edges:
        if c1 in core and c2 in core:
            pred.setdefault(c2, c1)
    seen, last, n = set(), None, min(core)
    while n not in seen:  # predecessor chain must revisit a node: cycle edge found
        seen.add(n)
        last, n = n, pred[n]
    u, v = n, last  # edge u -> v lies on a cycle (pred[v] is u)
    prev, dq = {v: None}, deque([v])  # BFS: shortest v -> u path in the core
    while dq:
        n = dq.popleft()
        if n == u:
            break
        for w in sorted(succ.get(n, ())):
            if w in core and w not in prev:
                prev[w] = n
                dq.append(w)
    walk, n = [v], u  # v <- u <- ... <- v, read backwards: the edge (u, v) closes it
    while n is not None:
        walk.append(n)
        n = prev[n]
    return walk[::-1]

def flat_edges(edges) -> list:
    """``[[c1, c2], ...]`` as ``[c1, c2, ...]``; a non-pair entry stays one bad edge."""
    if not (set(map(type, edges)) <= {list} and set(map(len, edges)) <= {2}):
        edges = (e if isinstance(e, list) and len(e) == 2 else (_NOT_A_PAIR, e) for e in edges)
    return list(chain.from_iterable(edges))

def _check_layer(li, topo, flat) -> CheckResult | None:
    """The per-layer core: ``None`` iff every edge of ``flat`` goes forward in ``topo``."""
    if not len(flat) % 2 and set(map(type, topo)) <= {int} and set(map(type, flat)) <= {int}:
        pos = dict(zip(topo, range(len(topo))))  # builtins clear the common case
        p = list(map(pos.get, flat))
        if len(pos) == len(topo) and None not in p and all(map(lt, p[::2], p[1::2])):
            return None
    pos = {}  # the loops below only name the first bad entry
    for i, c in enumerate(topo):
        if not isinstance(c, int):
            return _fail(f"topo_order[{i}] = {c!r} is not a channel id", layer=li)
        if c in pos:
            return _fail(f"channel {c} appears twice in the topological order", layer=li)
        pos[c] = i
    bad = None  # (reason, edge) of the first edge not strictly forward
    for k in range(0, len(flat), 2):
        c1, c2 = flat[k], flat[k + 1]
        if not (isinstance(c1, int) and isinstance(c2, int)):
            edge = c2 if c1 is _NOT_A_PAIR else [c1, c2]
            return _fail(f"malformed dependency edge {edge!r}", layer=li)
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
        cycle = find_minimal_cycle(list(zip(flat[::2], flat[1::2])))
        return _fail(bad[0], layer=li, edge=bad[1], cycle=cycle)
    return None

def check_layers(num_layers, path_layers, layers, num_paths=_ABSENT, unpack=tuple):
    """:func:`check_certificate`'s verdict on lists: ``layers[i]`` is ``(topo, flat_edges)``."""
    if not isinstance(num_layers, int) or num_layers < 1:
        return _fail(f"num_layers must be a positive integer, got {num_layers!r}")
    if not isinstance(layers, list) or len(layers) != num_layers:
        got = len(layers) if isinstance(layers, list) else type(layers).__name__
        return _fail(f"certificate carries {got} layer witness(es), expected {num_layers}")
    if not isinstance(path_layers, list):
        return _fail("path_layers missing or not a list")
    if num_paths is not _ABSENT and num_paths != len(path_layers):
        return _fail(f"path_layers has {len(path_layers)} entries, num_paths says {num_paths}")
    if not (set(map(type, path_layers)) <= {int} and min(path_layers, default=0) >= -1
            and max(path_layers, default=0) < num_layers):  # builtins clear the common case
        for i, layer in enumerate(path_layers):  # only to name the first bad entry
            if not isinstance(layer, int) or not -1 <= layer < num_layers:
                return _fail(f"path_layers[{i}] = {layer!r} outside [-1, {num_layers})")
    nodes = edges = 0
    for li, witness in enumerate(layers):
        layer = unpack(witness)  # (topo_order, flat edges), or why the witness is malformed
        bad = _fail(layer, layer=li) if isinstance(layer, str) else _check_layer(li, *layer)
        if bad is not None:
            return bad
        nodes, edges = nodes + len(layer[0]), edges + len(layer[1]) // 2
    return CheckResult(True, layers=num_layers, nodes=nodes, edges=edges)

def _wire_layer(witness):
    if not isinstance(witness, dict):
        return "layer witness is not an object"
    if isinstance(witness.get("topo_order"), list) and isinstance(witness.get("edges"), list):
        return witness["topo_order"], flat_edges(witness["edges"])
    return "layer witness needs 'topo_order' and 'edges' lists"

def check_certificate(cert) -> CheckResult:
    """Validate one certificate dict (the JSON wire format) in O(V+E)."""
    if not isinstance(cert, dict):
        return _fail("certificate is not a JSON object")
    if cert.get("kind") != KIND:
        return _fail(f"kind is {cert.get('kind')!r}, expected {KIND!r}")
    if cert.get("format") != FORMAT:
        return _fail(f"unsupported certificate format {cert.get('format')!r}")
    return check_layers(cert.get("num_layers"), cert.get("path_layers"), cert.get("layers"),
                        cert.get("num_paths", _ABSENT), _wire_layer)

def check_file(path) -> CheckResult:
    try:
        with open(path, encoding="utf-8") as fp:
            return check_certificate(json.load(fp))
    except (OSError, ValueError) as err:
        return _fail(f"unreadable certificate: {err}")

def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] in ("-h", "--help"):
        print("usage: python -m repro.deadlock.checker CERT.json [MORE.json ...]")
        return 0 if argv else 2
    results = [check_file(path) for path in argv]
    for path, result in zip(argv, results):
        print(f"{path}: {result.summary()}")
    return 0 if all(results) else 1

if __name__ == "__main__":
    sys.exit(main())
