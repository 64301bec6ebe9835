"""Independent deadlock-freedom verification.

Given a :class:`~repro.routing.base.LayeredRouting`, re-derive each
virtual layer's channel dependency graph from the path set and check it
is acyclic — Dally & Seitz' sufficient condition. This is deliberately
decoupled from the layer-assignment code so tests can catch assignment
bugs.

:func:`verify_deadlock_free` is the report of the witness pass
:func:`repro.deadlock.certificate.layer_witnesses`: per layer, one
derivation of the dependency edges from the :class:`PathSet`, one Kahn
peel, and the checker's minimal cycle as a cyclic layer's witness.
Emitting a certificate walks the same pass. :func:`build_layer_cdgs`
(the dict-CDG reference, also used by repair) and
:func:`verify_with_networkx` serve as test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.deadlock.cdg import ChannelDependencyGraph
from repro.routing.base import LayeredRouting
from repro.routing.paths import PathSet


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a deadlock-freedom check (one witness pass)."""

    deadlock_free: bool
    num_layers: int
    cycles: dict[int, list[tuple[int, int]]]  # layer -> one witness cycle
    edges_per_layer: list[int]
    paths_per_layer: list[int]

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.deadlock_free

    def failure_summary(self) -> str:
        """Human-readable account of *which* layer failed and why.

        Names every cyclic layer and spells out one witness cycle as a
        channel chain (``c1 -> c2 -> ... -> c1``) so an assertion message
        or service log pinpoints the offending buffer loop instead of
        reporting a bare boolean.
        """
        if self.deadlock_free:
            return "deadlock-free: all layer CDGs acyclic"
        parts = []
        for layer in sorted(self.cycles):
            cycle = self.cycles[layer]
            chain = " -> ".join(str(c1) for c1, _ in cycle)
            chain += f" -> {cycle[-1][1]}"
            parts.append(
                f"layer {layer} ({self.edges_per_layer[layer]} edges, "
                f"{self.paths_per_layer[layer]} paths) has witness cycle {chain}"
            )
        return f"cyclic CDG in {len(self.cycles)} layer(s): " + "; ".join(parts)


def build_layer_cdgs(
    layered: LayeredRouting, paths: PathSet, traffic_only: bool = True, pids=None
) -> list[ChannelDependencyGraph]:
    """Rebuild every layer's CDG from the path set and the assignment.

    With ``traffic_only`` (default) only traffic-carrying paths count —
    flows start at terminals, so paths originating at terminal-less
    switches never materialise as buffer dependencies (they are suffixes
    of the real flows' paths, whose own chains are already included).
    An explicit ``pids`` iterable overrides the selection entirely; the
    incremental-repair machinery uses this to rebuild the CDGs of the
    *surviving* paths before re-inserting the repaired ones.
    """
    fabric = layered.fabric
    cdgs = [ChannelDependencyGraph(fabric) for _ in range(layered.num_layers)]
    if pids is None:
        pids = paths.active_pids() if traffic_only else range(paths.num_paths)
    for pid in pids:
        pid = int(pid)
        layer = int(layered.path_layers[pid])
        cdgs[layer].add_path(pid, paths.path(pid))
    return cdgs


def verify_deadlock_free(layered: LayeredRouting, paths: PathSet) -> VerificationReport:
    """Check Dally/Seitz acyclicity for every layer independently.

    Traffic-carrying paths only; every cyclic layer is reported with a
    minimal witness cycle. Polls the compute budget once per layer.
    """
    from repro.deadlock.certificate import layer_witnesses  # it imports this module

    return layer_witnesses(layered, paths)[0]


def verify_with_networkx(
    layered: LayeredRouting, paths: PathSet, traffic_only: bool = True
) -> bool:
    """Slow reference check using :func:`networkx.is_directed_acyclic_graph`.

    Used by the test suite to cross-validate the Kahn-peel verdict.
    """
    import networkx as nx

    fabric = layered.fabric
    graphs = [nx.DiGraph() for _ in range(layered.num_layers)]
    is_sw = fabric.is_switch_channel
    pids = paths.active_pids() if traffic_only else range(paths.num_paths)
    for pid in pids:
        pid = int(pid)
        chans = paths.path(pid)
        g = graphs[int(layered.path_layers[pid])]
        for i in range(len(chans) - 1):
            c1, c2 = int(chans[i]), int(chans[i + 1])
            if is_sw[c1] and is_sw[c2]:
                g.add_edge(c1, c2)
    return all(nx.is_directed_acyclic_graph(g) for g in graphs)
