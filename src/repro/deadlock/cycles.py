"""Cycle detection over channel dependency graphs.

:func:`kahn_core` is the one whole-layer acyclicity verdict (verify, emit,
multipath, the incremental engine); :func:`tarjan_sccs` and
:func:`drain_cycles` are Algorithm 2's canonical cycle selection on what
the peel leaves behind.
"""

from __future__ import annotations

import numpy as np


def kahn_core(src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized Kahn peel of the edge list ``src[i] -> dst[i]``.

    Repeatedly strips zero-in-degree nodes with whole-array operations
    (O(V+E) per round, one round per level of the acyclic fringe) and
    returns ``(nodes, rank)``: the graph's distinct nodes, ascending, and
    the round in which each was peeled, ``-1`` for the core that can
    still lie on a cycle (a self-loop never peels). No ``-1`` certifies
    the graph acyclic, and then ordering the nodes by (rank, id) — a
    stable argsort of ``rank`` — is a topological order: every
    predecessor of a node was peeled in an earlier round.
    """
    if not len(src):
        return np.zeros(0, dtype=getattr(src, "dtype", np.int64)), np.zeros(0, dtype=np.int64)
    nodes = np.unique(np.concatenate([src, dst]))
    a1 = np.searchsorted(nodes, src)
    a2 = np.searchsorted(nodes, dst)
    indeg = np.bincount(a2, minlength=len(nodes))
    edge_up = np.ones(len(a1), dtype=bool)
    rank = np.full(len(nodes), -1, dtype=np.int64)
    peel = 0
    while True:
        zero = (rank < 0) & (indeg == 0)
        if not zero.any():
            break
        rank[zero] = peel
        peel += 1
        drop = edge_up & zero[a1]
        if drop.any():
            indeg -= np.bincount(a2[drop], minlength=len(nodes))
            edge_up[drop] = False
    return nodes, rank


# ----------------------------------------------------------------------
# Canonical SCC-based cycle selection (shared by the rebuild-based and
# the incremental cycle-breaking engines).
#
# The offline Algorithm 2 only needs *some* cycle each iteration, but two
# engines can only produce bit-identical layer assignments if they agree
# on which one. SCCs are a property of the graph — not of any traversal
# order — so both engines run Tarjan once per layer, order the
# non-trivial components by smallest channel id, and then *drain* each
# component with the deterministic min-successor walk below. Every
# choice is a pure function of the current edge set, never of dict or
# traversal order.
# ----------------------------------------------------------------------


def tarjan_sccs(nodes, successors) -> list[set[int]]:
    """Strongly connected components of the subgraph induced by ``nodes``.

    ``successors(v)`` yields v's successors (they are filtered against
    ``nodes``); the traversal is iterative, so recursion depth never
    limits fabric size. Only *non-trivial* components (≥ 2 nodes) are
    returned — a CDG has no self-loops (a path cannot use the same
    channel twice in a row), so singletons are always cycle-free.
    """
    members = set(nodes)
    index: dict[int, int] = {}
    lowlink: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    sccs: list[set[int]] = []
    counter = 0

    for root in members:
        if root in index:
            continue
        # Each frame: (node, iterator over remaining successors).
        work: list[tuple[int, list[int]]] = [
            (root, [w for w in successors(root) if w in members])
        ]
        index[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, todo = work[-1]
            if todo:
                w = todo.pop()
                if w not in index:
                    index[w] = lowlink[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, [x for x in successors(w) if x in members]))
                elif w in on_stack:
                    if index[w] < lowlink[v]:
                        lowlink[v] = index[w]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if lowlink[v] < lowlink[parent]:
                        lowlink[parent] = lowlink[v]
                if lowlink[v] == index[v]:
                    comp: set[int] = set()
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.add(w)
                        if w == v:
                            break
                    if len(comp) >= 2:
                        sccs.append(comp)
    return sccs


def drain_cycles(members, successors):
    """Yield every cycle inside one SCC's membership, deterministically.

    ``members`` is a non-trivial SCC of the layer's CDG at the last
    condensation; ``successors(v)`` must reflect the *current* (shrinking)
    edge set. After each yielded cycle the caller evicts one of its edges
    (all paths inducing it leave the layer), which is the only mutation
    allowed between yields.

    The walk starts at the smallest member channel and repeatedly steps
    to the smallest in-member successor. A revisit closes the canonical
    cycle; a node with no in-member successor is *stranded* — it cannot
    lie on any cycle within the membership now, and edge deletion keeps
    it that way, so it is removed permanently and the walk backtracks.
    After a yield the walk restarts from the smallest member (evictions
    may delete edges anywhere in the graph).

    Every decision is a function of (membership set, current edge set),
    so two engines that evict identically observe identical cycles —
    the bit-identical contract between the rebuild-based reference and
    :mod:`repro.deadlock.incremental`. When the generator is exhausted
    the subgraph induced by the original membership is acyclic; since
    every cycle of the full graph lives inside a single condensation
    component and later mutations only delete edges, draining each
    component once leaves the whole layer acyclic with no re-search.
    """
    members = set(members)
    while len(members) >= 2:  # no self-loops in a CDG, so <2 is acyclic
        start = min(members)
        pos = {start: 0}
        walk = [start]
        while walk:
            v = walk[-1]
            nxt = None
            for w in successors(v):
                if w in members and (nxt is None or w < nxt):
                    nxt = w
            if nxt is None:
                members.discard(v)
                del pos[v]
                walk.pop()
                continue
            j = pos.get(nxt)
            if j is not None:
                nodes = walk[j:]
                edges = [(nodes[k], nodes[k + 1]) for k in range(len(nodes) - 1)]
                edges.append((v, nxt))
                yield edges
                break  # restart from min(members): edges changed
            pos[nxt] = len(walk)
            walk.append(nxt)
