"""Standalone deadlock-freedom certificate checker (stdlib only).

Deliberately tiny and dependency-free — no numpy, no ``repro.core`` or
``repro.deadlock.cdg`` imports — so a bug in the routing engines cannot
vouch for itself. A certificate claims "here is a topological order
witnessing that every layer's channel-dependency graph is acyclic"
(Dally & Seitz); checking it is O(V+E): position-map each order, confirm
every edge goes strictly forward. Rejections name the violating edge
and, when the certified edge set genuinely contains a cycle, a *minimal
counterexample* (shortest simple cycle through one violating dependency).

Run standalone (exit 0 iff every certificate is accepted)::

    python -m repro.deadlock.checker cert.json [more.json ...]
"""

from __future__ import annotations

import json
import sys
from collections import deque
from dataclasses import dataclass

FORMAT = 1  # certificate schema version this checker understands
KIND = "deadlock-freedom-certificate"


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
            return (
                f"certificate OK: {self.layers} layer(s), {self.nodes} CDG node(s), "
                f"{self.edges} dependency edge(s), every layer topologically ordered"
            )
        where = f" in layer {self.layer}" if self.layer is not None else ""
        parts = [f"certificate REJECTED{where}: {self.reason}"]
        if self.witness_edge is not None:
            parts.append(f"witness edge {self.witness_edge[0]} -> {self.witness_edge[1]}")
        if self.counterexample:
            chain = " -> ".join(str(c) for c in self.counterexample)
            parts.append(f"counterexample cycle {chain}")
        return "; ".join(parts)


def _fail(reason, layer=None, edge=None, cycle=None) -> CheckResult:
    return CheckResult(False, reason=reason, layer=layer, witness_edge=edge, counterexample=cycle)


def find_minimal_cycle(edges) -> list[int] | None:
    """A shortest simple cycle of ``edges`` as ``[c, ..., c]``, or ``None``.

    Kahn peel strips the acyclic fringe in O(V+E); a predecessor walk in
    the cyclic core (every surviving node kept an in-core predecessor)
    finds a cycle edge; one BFS minimises the cycle through it.
    """
    succ: dict[int, list[int]] = {}
    indeg: dict[int, int] = {}
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
    seen: set[int] = set()
    last, n = None, min(core)
    while n not in seen:  # predecessor chain must revisit a node: cycle edge found
        seen.add(n)
        last, n = n, pred[n]
    u, v = n, last  # edge u -> v lies on a cycle (pred[v] is u)
    prev: dict[int, int | None] = {v: None}  # BFS: shortest v -> u path in the core
    dq = deque([v])
    while dq:
        n = dq.popleft()
        if n == u:
            break
        for w in sorted(succ.get(n, ())):
            if w in core and w not in prev:
                prev[w] = n
                dq.append(w)
    chain = [u]
    while prev[chain[-1]] is not None:
        chain.append(prev[chain[-1]])
    chain.reverse()  # v ... u; the edge (u, v) closes the cycle
    return chain + [v]


def check_certificate(cert) -> CheckResult:
    """Validate one certificate dict in O(V+E); see the module docstring."""
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
    rc = 0
    for path in argv:
        result = check_file(path)
        print(f"{path}: {result.summary()}")
        rc = rc if result.ok else 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
