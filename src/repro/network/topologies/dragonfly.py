"""Dragonfly topology — an extension beyond the paper's evaluation.

Dragonflies (Kim et al., ISCA 2008) are the canonical post-2011
low-diameter topology; they are *not* in the paper but are an obvious
"future work" target for DFSSSP: minimal routing on a dragonfly has
cyclic channel dependencies (local→global→local turns), so the paper's
layer assignment applies directly. We include the canonical balanced
configuration ``dragonfly(a, p, h)``:

* groups of ``a`` switches, fully connected inside a group,
* ``p`` terminals per switch,
* ``h`` global links per switch,
* ``g = a*h + 1`` groups, exactly one global cable between each group
  pair (the balanced maximum).
"""

from __future__ import annotations

from repro.exceptions import FabricError
from repro.network.builder import FabricBuilder
from repro.network.fabric import Fabric


def dragonfly(a: int, p: int, h: int) -> Fabric:
    """Balanced dragonfly with ``g = a*h + 1`` groups.

    The canonical recommendation is ``a = 2p = 2h``; we do not enforce it
    but reject configurations that cannot place one cable per group pair.
    """
    if a < 1 or p < 0 or h < 1:
        raise FabricError(f"invalid dragonfly parameters a={a}, p={p}, h={h}")
    g = a * h + 1
    num_switches = g * a
    if num_switches > 100_000:
        raise FabricError(f"dragonfly would create {num_switches} switches; refusing")
    b = FabricBuilder()
    groups: list[list[int]] = []
    for gi in range(g):
        members = [b.add_switch(name=f"sw_g{gi}_{ai}") for ai in range(a)]
        groups.append(members)
        for i in range(a):
            for j in range(i + 1, a):
                b.add_link(members[i], members[j])
    # Global links: group pair (g1, g2) with g1 < g2 uses consecutive global
    # port slots; slot s of group gi lives on switch s // h, port s % h.
    slot_next = [0] * g
    for g1 in range(g):
        for g2 in range(g1 + 1, g):
            s1, s2 = slot_next[g1], slot_next[g2]
            slot_next[g1] += 1
            slot_next[g2] += 1
            b.add_link(groups[g1][s1 // h], groups[g2][s2 // h])
    for gi in range(g):
        for ai in range(a):
            for pi in range(p):
                t = b.add_terminal(name=f"hca_g{gi}_{ai}_{pi}")
                b.add_link(t, groups[gi][ai])
    b.metadata = {
        "family": "dragonfly",
        "a": a,
        "p": p,
        "h": h,
        "groups": g,
        "num_switches": num_switches,
        "num_terminals": g * a * p,
    }
    return b.build()
