"""Kautz-graph topologies (Figure 6, Table I).

The Kautz graph ``K(b, n)`` has ``(b+1) * b**(n-1)`` vertices — the words
of length ``n`` over an alphabet of ``b+1`` symbols in which adjacent
letters differ — and a directed edge ``u -> v`` whenever ``v`` is ``u``
shifted left by one with any admissible new last letter. It achieves the
smallest possible diameter (``n``) for its degree, which is why it was
used for HPC interconnects (e.g. SiCortex).

Our fabric model uses full-duplex cables, so we take the *underlying
undirected* Kautz graph: one cable per unordered switch pair that is
adjacent in either direction. Endpoints are distributed round-robin over
the switches, as in the paper ("endpoints are connected to them").
"""

from __future__ import annotations

from itertools import product

from repro.exceptions import FabricError
from repro.network.builder import FabricBuilder
from repro.network.fabric import Fabric


def kautz_words(b: int, n: int) -> list[tuple[int, ...]]:
    """All Kautz words: length-``n`` strings over ``b+1`` symbols with no
    two equal adjacent symbols."""
    words = []
    for w in product(range(b + 1), repeat=n):
        if all(w[i] != w[i + 1] for i in range(n - 1)):
            words.append(w)
    return words


def kautz_num_switches(b: int, n: int) -> int:
    return (b + 1) * b ** (n - 1)


def kautz(b: int, n: int, num_terminals: int) -> Fabric:
    """Build a Kautz(b, n) switch fabric with ``num_terminals`` endpoints.

    Endpoints are attached round-robin (switch ``i`` gets terminal ``j``
    with ``j % num_switches == i``), so the per-switch endpoint counts
    differ by at most one.
    """
    if b < 2:
        raise FabricError(f"Kautz graph needs b >= 2, got b={b}")
    if n < 2:
        raise FabricError(f"Kautz graph needs n >= 2, got n={n}")
    if num_terminals < 0:
        raise FabricError("num_terminals must be >= 0")
    words = kautz_words(b, n)
    bld = FabricBuilder()
    ids = {w: bld.add_switch(name="sw" + "".join(map(str, w))) for w in words}

    cables: set[tuple[int, int]] = set()
    for w in words:
        u = ids[w]
        for x in range(b + 1):
            if x == w[-1]:
                continue
            v = ids[w[1:] + (x,)]
            if u == v:
                # K(b, 2) contains 2-cycles like (0,1)->(1,0)->(0,1) but a
                # word can never map to itself (adjacent letters differ).
                continue  # pragma: no cover - defensive
            key = (min(u, v), max(u, v))
            if key not in cables:
                cables.add(key)
                bld.add_link(u, v)

    switches = [ids[w] for w in words]
    for j in range(num_terminals):
        t = bld.add_terminal(name=f"hca{j}")
        bld.add_link(t, switches[j % len(switches)])
    bld.metadata = {
        "family": "kautz",
        "b": b,
        "n": n,
        "num_switches": len(words),
        "num_terminals": num_terminals,
    }
    return bld.build()
