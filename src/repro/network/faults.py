"""Failure injection: derive degraded fabrics from healthy ones.

The paper's introduction motivates DFSSSP with fabrics that are *not*
clean fat trees or tori — systems grow, links die, service nodes are
dual-homed. These helpers remove cables or whole switches from a fabric
and return a new (immutable) fabric, so experiments can measure how each
routing engine copes with degradation (the specialised engines typically
raise :class:`~repro.exceptions.UnsupportedTopologyError`, while DFSSSP
keeps routing).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import FabricError
from repro.network.builder import FabricBuilder
from repro.network.fabric import Fabric
from repro.utils.prng import make_rng


@dataclass(frozen=True)
class DegradedFabric:
    """Result of failure injection.

    ``node_map`` maps old node ids to new ids (-1 for removed nodes), so
    callers can translate endpoint lists and traffic patterns.
    ``channel_map`` does the same for channel ids (-1 for removed
    channels); :mod:`repro.resilience` uses it to splice surviving
    forwarding-table entries onto the degraded fabric.
    """

    fabric: Fabric
    node_map: np.ndarray
    removed_cables: int
    removed_switches: int
    channel_map: np.ndarray | None = None


def _rebuild(fabric: Fabric, dead_nodes: set[int], dead_cables: set[tuple[int, int]]) -> DegradedFabric:
    builder = FabricBuilder()
    node_map = np.full(fabric.num_nodes, -1, dtype=np.int64)
    channel_map = np.full(fabric.num_channels, -1, dtype=np.int64)
    for v in range(fabric.num_nodes):
        if v in dead_nodes:
            continue
        if fabric.is_switch(v):
            node_map[v] = builder.add_switch(name=fabric.names[v])
        else:
            node_map[v] = builder.add_terminal(name=fabric.names[v])
        if v in fabric.coordinates:
            builder.set_coordinates(int(node_map[v]), fabric.coordinates[v])
    removed_cables = 0
    seen = set()
    for cid in range(fabric.num_channels):
        rid = int(fabric.channels.reverse[cid])
        key = (min(cid, rid), max(cid, rid))
        if key in seen:
            continue
        seen.add(key)
        a = int(fabric.channels.src[cid])
        b = int(fabric.channels.dst[cid])
        if a in dead_nodes or b in dead_nodes or key in dead_cables:
            removed_cables += 1
            continue
        new_fwd = builder.add_link(
            int(node_map[a]), int(node_map[b]), capacity=float(fabric.channels.capacity[cid])
        )[0]
        # The builder appends cables as adjacent (forward, backward) pairs.
        channel_map[cid] = new_fwd
        channel_map[rid] = new_fwd + 1
    builder.metadata = dict(fabric.metadata)
    if removed_cables or dead_nodes:
        builder.metadata["degraded"] = True
    levels = fabric.metadata.get("switch_levels")
    if levels:
        builder.metadata["switch_levels"] = {
            int(node_map[int(k)]): int(v)
            for k, v in levels.items()
            if node_map[int(k)] >= 0
        }
    return DegradedFabric(
        fabric=builder.build(),
        node_map=node_map,
        removed_cables=removed_cables,
        removed_switches=len(dead_nodes),
        channel_map=channel_map,
    )


def cable_keys(fabric: Fabric) -> list[tuple[int, int]]:
    """Canonical ``(cid, reverse_cid)`` key per physical cable."""
    keys = []
    for cid in range(fabric.num_channels):
        rid = int(fabric.channels.reverse[cid])
        if cid < rid:
            keys.append((cid, rid))
    return keys


def identity_degradation(fabric: Fabric) -> DegradedFabric:
    """A no-op :class:`DegradedFabric` (the fabric mapped onto itself).

    The resilience event stream uses this as the starting state so every
    subsequent fault composes through the same map algebra.
    """
    return DegradedFabric(
        fabric=fabric,
        node_map=np.arange(fabric.num_nodes, dtype=np.int64),
        removed_cables=0,
        removed_switches=0,
        channel_map=np.arange(fabric.num_channels, dtype=np.int64),
    )


def degrade(
    fabric: Fabric,
    dead_switches=(),
    dead_cables=(),
) -> DegradedFabric:
    """Remove an explicit set of switches and cables.

    ``dead_switches`` are node ids; ``dead_cables`` are cable keys as
    produced by :func:`cable_keys` (either channel id of the pair is
    accepted). Terminals cannot be removed directly — real subnet
    managers drop endpoints too, but our experiments keep the terminal
    population fixed.
    """
    dead_nodes = {int(s) for s in dead_switches}
    for v in dead_nodes:
        if not (0 <= v < fabric.num_nodes) or not fabric.is_switch(v):
            raise FabricError(f"node {v} is not a switch; only switches can fail")
    keys = set()
    for key in dead_cables:
        cid, rid = (int(key[0]), int(key[1])) if isinstance(key, tuple) else (int(key), -1)
        if rid < 0:
            rid = int(fabric.channels.reverse[cid])
        if not (0 <= cid < fabric.num_channels) or int(fabric.channels.reverse[cid]) != rid:
            raise FabricError(f"({cid}, {rid}) is not a cable of this fabric")
        keys.add((min(cid, rid), max(cid, rid)))
    return _rebuild(fabric, dead_nodes, keys)


def fail_links(fabric: Fabric, count: int, seed=None) -> DegradedFabric:
    """Remove ``count`` random switch-to-switch cables.

    Terminal cables are never candidates, so no terminal gets orphaned.
    """
    rng = make_rng(seed)
    candidates = [key for key in cable_keys(fabric) if fabric.is_switch_channel[key[0]]]
    if count > len(candidates):
        raise FabricError(
            f"cannot fail {count} cables; only {len(candidates)} candidates"
        )
    picks = rng.choice(len(candidates), size=count, replace=False)
    dead = {candidates[int(i)] for i in picks}
    return _rebuild(fabric, set(), dead)


def fail_switches(fabric: Fabric, count: int, seed=None) -> DegradedFabric:
    """Remove ``count`` random switches along with all their cables.

    Switches whose removal would orphan a singly-homed terminal are not
    candidates — real subnet managers drop the endpoints too, but our
    experiments want to keep the terminal population fixed.
    """
    rng = make_rng(seed)
    protected = set()
    for t in fabric.terminals:
        attached = fabric.attached_switches(int(t))
        if len(attached) == 1:
            protected.add(int(attached[0]))
    candidates = [int(s) for s in fabric.switches if int(s) not in protected]
    if count > len(candidates):
        raise FabricError(
            f"cannot fail {count} switches; only {len(candidates)} removable"
        )
    picks = rng.choice(len(candidates), size=count, replace=False)
    dead = {candidates[int(i)] for i in picks}
    return _rebuild(fabric, dead, set())


def fail_specific_cable(fabric: Fabric, a: int, b: int) -> DegradedFabric:
    """Remove one (the lowest-id) cable between nodes ``a`` and ``b``."""
    cid = fabric.channel_between(a, b)
    if cid < 0:
        raise FabricError(f"no cable between nodes {a} and {b}")
    rid = int(fabric.channels.reverse[cid])
    return _rebuild(fabric, set(), {(min(cid, rid), max(cid, rid))})
