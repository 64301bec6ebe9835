"""Theoretical bisection bandwidth of a fabric.

The paper contrasts the *effective* bisection bandwidth (which includes
the routing) against the topology's idealized bisection. We compute the
bisection width as

    min over balanced terminal splits (A, B) of
        min-cut(A, B)   [max-flow over cable capacities]

— exactly for small fabrics (enumerating splits), and heuristically for
large ones (Kernighan–Lin proposes balanced splits, max-flow refines each
candidate's cut). Note host links count: a terminal can never receive
more than its own cable, so ``per_pair_bandwidth <= 1`` with unit links.

The ratio eBB / per-pair-bisection then quantifies how much of the wiring
a routing actually exploits — the gap the paper's introduction discusses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import networkx as nx

from repro.network.fabric import Fabric
from repro.utils.prng import make_rng


@dataclass(frozen=True)
class BisectionEstimate:
    """A (possibly heuristic) balanced-cut estimate."""

    cut_capacity: float  # total capacity of cables crossing the cut
    terminals_a: int
    terminals_b: int
    exact: bool = False

    @property
    def per_pair_bandwidth(self) -> float:
        """Idealized bandwidth per communicating pair when all of side A
        talks to side B: cut capacity shared by min(|A|,|B|) pairs."""
        pairs = min(self.terminals_a, self.terminals_b)
        return self.cut_capacity / pairs if pairs else 0.0


def _flow_graph(fabric: Fabric) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(range(fabric.num_nodes))
    for cid in range(fabric.num_channels):
        u = int(fabric.channels.src[cid])
        v = int(fabric.channels.dst[cid])
        w = float(fabric.channels.capacity[cid])
        if g.has_edge(u, v):
            g[u][v]["capacity"] += w
        else:
            g.add_edge(u, v, capacity=w)
    return g


def _min_cut_between(g: nx.DiGraph, side_a, side_b) -> float:
    """Max-flow min-cut separating two terminal groups."""
    src, dst = "_S", "_T"
    g.add_node(src)
    g.add_node(dst)
    for t in side_a:
        g.add_edge(src, t, capacity=float("inf"))
    for t in side_b:
        g.add_edge(t, dst, capacity=float("inf"))
    try:
        value = nx.maximum_flow_value(g, src, dst)
    finally:
        g.remove_node(src)
        g.remove_node(dst)
    return float(value)


def estimate_bisection(
    fabric: Fabric, restarts: int = 4, seed=None, exact_limit: int = 12
) -> BisectionEstimate:
    """Bisection width over balanced terminal splits.

    Exact (all splits enumerated) when the fabric has at most
    ``exact_limit`` terminals; otherwise Kernighan–Lin proposes balanced
    splits whose cuts are refined by max-flow — an upper bound on the
    true width.
    """
    terms = [int(t) for t in fabric.terminals]
    T = len(terms)
    if T < 2:
        return BisectionEstimate(0.0, T, 0, exact=True)
    g = _flow_graph(fabric)
    half = T // 2

    if T <= exact_limit:
        best = None
        anchor = terms[0]  # fix one terminal to side A: halves the splits
        rest = terms[1:]
        for combo in itertools.combinations(rest, half - 1):
            side_a = {anchor, *combo}
            side_b = [t for t in terms if t not in side_a]
            cut = _min_cut_between(g, side_a, side_b)
            if best is None or cut < best[0]:
                best = (cut, len(side_a), len(side_b))
        return BisectionEstimate(best[0], best[1], best[2], exact=True)

    rng = make_rng(seed)
    ug = nx.Graph()
    ug.add_nodes_from(range(fabric.num_nodes))
    for u, v, data in g.edges(data=True):
        if ug.has_edge(u, v):
            continue
        ug.add_edge(u, v, weight=data["capacity"])
    tolerance = max(1, T // 10)
    best = None
    candidates = []
    for _ in range(max(1, restarts)):
        a, _b = nx.algorithms.community.kernighan_lin_bisection(
            ug, weight="weight", seed=int(rng.integers(2**31 - 1))
        )
        side_a = [t for t in terms if t in a]
        candidates.append(side_a)
    # Plus one random balanced split as a baseline proposal.
    shuffled = list(terms)
    rng.shuffle(shuffled)
    candidates.append(shuffled[:half])
    for side_a in candidates:
        # Rebalance the proposal to an exact terminal split.
        side_a = list(side_a)
        others = [t for t in terms if t not in set(side_a)]
        if len(side_a) > half:
            others += side_a[half:]
            side_a = side_a[:half]
        elif len(side_a) < half:
            move = half - len(side_a)
            side_a += others[:move]
            others = others[move:]
        cut = _min_cut_between(g, set(side_a), others)
        if best is None or cut < best[0]:
            best = (cut, len(side_a), len(others))
    return BisectionEstimate(best[0], best[1], best[2], exact=False)


def routing_efficiency(ebb: float, fabric: Fabric, seed=None) -> float:
    """eBB relative to the idealized per-pair bisection bandwidth.

    Values near 1 mean the routing extracts almost everything the wiring
    allows; can exceed 1 slightly because random matchings keep some
    traffic on each side of the cut.
    """
    estimate = estimate_bisection(fabric, seed=seed)
    ideal = min(1.0, estimate.per_pair_bandwidth)
    return ebb / ideal if ideal > 0 else 0.0
