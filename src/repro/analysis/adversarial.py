"""Adversarial traffic search: how bad can a permutation get?

Random bisections (the eBB estimator) measure *average* behaviour; the
worst-case permutation is the classic complementary metric for oblivious
routing (Valiant's lower bounds, ORCS's `worst` patterns). Finding the
true worst case is combinatorial, so we use a greedy adversary:

* destinations are visited in (seeded) random order;
* for each destination, the adversary assigns the unused source whose
  flow pushes the *currently hottest* channel highest (ties: the flow
  with the most total load along its path).

The resulting permutation's minimum flow bandwidth is a (tight-ish)
upper bound on the routing's worst-case throughput. Interestingly, a
better *average*-case oblivious routing is not automatically a better
worst-case one — on some fabrics the adversary hurts DFSSSP more than
Up*/Down* (the classic average/worst-case tension Valiant's randomised
routing was invented to break); :func:`worst_case_gap` quantifies the
spread per routing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import SimulationError
from repro.routing.base import RoutingTables
from repro.routing.paths import PathSet, gather_flows
from repro.simulator.congestion import CongestionSimulator
from repro.simulator.patterns import Pattern
from repro.utils.prng import make_rng


@dataclass(frozen=True)
class AdversarialResult:
    """Outcome of a greedy worst-case search."""

    pattern: Pattern
    worst_flow_bandwidth: float
    mean_flow_bandwidth: float
    max_channel_load: int


def adversarial_permutation(
    tables: RoutingTables,
    paths: PathSet | None = None,
    seed=None,
    restarts: int = 3,
) -> AdversarialResult:
    """Greedy search for a congestion-maximising permutation.

    Multiple restarts with different destination orders; the worst
    (lowest min-bandwidth) pattern wins.
    """
    if restarts < 1:
        raise SimulationError("restarts must be >= 1")
    sim = CongestionSimulator(tables, paths)
    fab = tables.fabric
    terms = [int(t) for t in fab.terminals]
    if len(terms) < 2:
        raise SimulationError("need at least 2 terminals")
    rng = make_rng(seed)

    best: AdversarialResult | None = None
    for _ in range(restarts):
        order = list(terms)
        rng.shuffle(order)
        load = np.zeros(fab.num_channels, dtype=np.int64)
        unused = set(terms)
        pattern: Pattern = []
        for dst in order:
            cands = np.fromiter((s for s in unused if s != dst), dtype=np.int64)
            if not len(cands):
                continue  # only the destination itself is left
            flat, offsets = gather_flows(tables, sim.paths, cands, np.full(len(cands), dst))
            on_path = load[flat]
            hottest = np.maximum.reduceat(on_path, offsets[:-1])
            total = np.add.reduceat(on_path, offsets[:-1])
            # The first candidate, in set order, with the largest (hottest, total).
            top = np.flatnonzero(hottest == hottest.max())
            pick = int(top[np.argmax(total[top])])
            best_src = int(cands[pick])
            unused.discard(best_src)
            np.add.at(load, flat[offsets[pick] : offsets[pick + 1]], 1)
            pattern.append((best_src, dst))
        result = sim.evaluate(pattern)
        candidate = AdversarialResult(
            pattern=pattern,
            worst_flow_bandwidth=result.min_bandwidth,
            mean_flow_bandwidth=result.mean_bandwidth,
            max_channel_load=int(result.channel_load.max()),
        )
        if best is None or candidate.worst_flow_bandwidth < best.worst_flow_bandwidth:
            best = candidate
    return best


def worst_case_gap(tables: RoutingTables, seed=None, num_random: int = 20) -> float:
    """Ratio of average (random-bisection) to adversarial worst-flow
    bandwidth — how much an adversary can hurt this routing."""
    sim = CongestionSimulator(tables)
    avg = sim.effective_bisection_bandwidth(num_random, seed=seed).ebb
    adv = adversarial_permutation(tables, seed=seed).worst_flow_bandwidth
    return avg / adv if adv > 0 else float("inf")
