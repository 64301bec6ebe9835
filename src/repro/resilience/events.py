"""Fault-event stream model layered on :mod:`repro.network.faults`.

Fail-in-place operation is a *sequence*: cables die one at a time,
switches drop with all their cables, technicians occasionally bring a
cable back. :class:`FaultInjector` models that sequence as a seeded
stream of :class:`FaultEvent` steps over one healthy baseline fabric.
Every event is identified by healthy-fabric ids (cable keys / node ids),
so arbitrary histories compose: the cumulative dead sets are re-applied
to the baseline via :func:`repro.network.faults.degrade`, and
:func:`relative_degradation` derives the step-to-step node/channel maps
that :mod:`repro.resilience.repair` needs to splice forwarding tables.

:func:`fold_events` is the one fold of events into dead sets and a
checked degraded fabric (the injector and the supervisor both use it),
and :func:`follow_fault` the one step that routes the fabric after an
event (chaos soaks and DES fault injection use it).

Events that would make the fabric unroutable (disconnect it or orphan a
terminal) are never emitted — a real subnet manager would drop the dead
partition's endpoints, but our experiments keep the terminal population
fixed, matching :func:`repro.network.faults.fail_switches`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import ReproError
from repro.network.fabric import Fabric
from repro.obs.recorder import record_event
from repro.network.faults import (
    DegradedFabric,
    cable_keys,
    degrade,
    identity_degradation,
)
from repro.network.validate import check_routable
from repro.utils.prng import make_rng

#: event kinds in stream order of preference checks
LINK_DOWN = "link_down"
SWITCH_DOWN = "switch_down"
LINK_UP = "link_up"

#: candidates the injector probes per kind and step before declaring the
#: kind unviable (each probe costs one fabric rebuild)
MAX_ATTEMPTS = 16


@dataclass(frozen=True)
class FaultEvent:
    """One step of a fault sequence, in healthy-fabric coordinates.

    ``cable`` is a :func:`repro.network.faults.cable_keys` key for
    link events; ``switch`` a healthy node id for switch events.
    """

    kind: str
    cable: tuple[int, int] | None = None
    switch: int | None = None

    def describe(self, fabric: Fabric) -> str:
        if self.kind == SWITCH_DOWN:
            return f"switch_down {fabric.names[self.switch]}"
        cid = self.cable[0]
        a = int(fabric.channels.src[cid])
        b = int(fabric.channels.dst[cid])
        return f"{self.kind} {fabric.names[a]}<->{fabric.names[b]}"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "cable": list(self.cable) if self.cable is not None else None,
            "switch": self.switch,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultEvent":
        """Inverse of :meth:`to_dict` (checkpoints persist queued events)."""
        if data.get("kind") not in (LINK_DOWN, SWITCH_DOWN, LINK_UP):
            raise ReproError(f"unknown fault-event kind {data.get('kind')!r}")
        cable = data.get("cable")
        return cls(
            kind=data["kind"],
            cable=tuple(int(c) for c in cable) if cable is not None else None,
            switch=int(data["switch"]) if data.get("switch") is not None else None,
        )


def relative_degradation(prev: DegradedFabric, cur: DegradedFabric) -> DegradedFabric:
    """Compose two degradations of the same baseline into a prev→cur map.

    Both arguments must derive from one healthy fabric (as produced by
    :class:`FaultInjector`). The result maps ``prev.fabric`` ids to
    ``cur.fabric`` ids — exactly what incremental repair consumes. A
    resurrected cable (dead in ``prev``, alive in ``cur``) leaves the
    result with more channels than the map's image; repair detects that
    and demands a full reroute.
    """
    if len(prev.node_map) != len(cur.node_map):
        raise ReproError("degradations derive from different baselines")
    node_map = np.full(prev.fabric.num_nodes, -1, dtype=np.int64)
    alive_nodes = prev.node_map >= 0
    node_map[prev.node_map[alive_nodes]] = cur.node_map[alive_nodes]
    channel_map = np.full(prev.fabric.num_channels, -1, dtype=np.int64)
    alive_chans = prev.channel_map >= 0
    channel_map[prev.channel_map[alive_chans]] = cur.channel_map[alive_chans]
    removed_switches = int(np.count_nonzero(node_map[prev.fabric.switches] < 0))
    removed_cables = int(np.count_nonzero(channel_map < 0)) // 2
    return DegradedFabric(
        fabric=cur.fabric,
        node_map=node_map,
        removed_cables=removed_cables,
        removed_switches=removed_switches,
        channel_map=channel_map,
    )


def fold_events(
    baseline: Fabric, dead_cables, dead_switches, events
) -> tuple[DegradedFabric, set, set]:
    """Fold fault events into the dead sets and degrade the baseline.

    Returns ``(degraded, cables, switches)``: new dead sets (the inputs
    are not mutated) and the baseline with them removed. Raises
    :class:`~repro.exceptions.ReproError` when the result is not
    routable (disconnected, or a terminal orphaned).
    """
    cables = set(dead_cables)
    switches = set(dead_switches)
    for event in events:
        if event.kind == LINK_UP:
            cables.discard(event.cable)
        elif event.kind == SWITCH_DOWN:
            switches.add(int(event.switch))
        else:
            cables.add(event.cable)
    degraded = degrade(baseline, switches, cables)
    check_routable(degraded.fabric)
    return degraded, cables, switches


def reroute_action(result) -> str:
    """``"repair"`` when ``result`` came from an incremental repair, else ``"full"``."""
    return "repair" if "repair" in result.stats else "full"


def follow_fault(engine, prior, event: FaultEvent, prev: DegradedFabric, cur: DegradedFabric):
    """Route the fabric after one fault event; returns ``(result, action)``.

    A link-up adds channels, so it is a full route of ``cur``; any other
    event goes through :meth:`~repro.routing.base.RoutingEngine.reroute`
    of ``prior`` along the ``prev`` -> ``cur`` step. ``action`` is
    :func:`reroute_action` of the result.
    """
    if event.kind == LINK_UP:
        result = engine.route(cur.fabric)
    else:
        result = engine.reroute(prior, relative_degradation(prev, cur))
    return result, reroute_action(result)


class FaultInjector:
    """Seeded stream of routability-preserving fault events.

    Cable failures hit switch-to-switch cables only (terminal cables die
    with their switch), like :func:`repro.network.faults.fail_links`.

    Parameters
    ----------
    fabric:
        The healthy baseline. Never mutated.
    seed:
        Stream seed; the same seed replays the same event sequence.
    p_switch_down / p_link_up:
        Per-step probabilities of preferring a switch failure or a cable
        resurrection over the default cable failure. When the preferred
        kind has no viable candidate the injector falls through to the
        other kinds before giving up on the step.
    """

    def __init__(
        self,
        fabric: Fabric,
        seed=None,
        p_switch_down: float = 0.15,
        p_link_up: float = 0.2,
    ):
        check_routable(fabric)
        self.healthy = fabric
        self.rng = make_rng(seed)
        self.p_switch_down = p_switch_down
        self.p_link_up = p_link_up
        self.dead_cables: set[tuple[int, int]] = set()
        self.dead_switches: set[int] = set()
        self.state = identity_degradation(fabric)
        self.history: list[FaultEvent] = []
        self._switch_cables = [
            key for key in cable_keys(fabric) if fabric.is_switch_channel[key[0]]
        ]

    # ------------------------------------------------------------------
    @property
    def current(self) -> DegradedFabric:
        """Cumulative degradation (healthy → now)."""
        return self.state

    def _cable_alive(self, key: tuple[int, int]) -> bool:
        if key in self.dead_cables:
            return False
        a = int(self.healthy.channels.src[key[0]])
        b = int(self.healthy.channels.dst[key[0]])
        return a not in self.dead_switches and b not in self.dead_switches

    def _candidates(self, kind: str) -> list:
        if kind == LINK_DOWN:
            return [key for key in self._switch_cables if self._cable_alive(key)]
        if kind == LINK_UP:
            out = []
            for key in self.dead_cables:
                a = int(self.healthy.channels.src[key[0]])
                b = int(self.healthy.channels.dst[key[0]])
                if a not in self.dead_switches and b not in self.dead_switches:
                    out.append(key)
            return sorted(out)
        return [int(s) for s in self.healthy.switches if int(s) not in self.dead_switches]

    def _try_kind(self, kind: str) -> tuple[FaultEvent, DegradedFabric] | None:
        candidates = self._candidates(kind)
        if not candidates:
            return None
        order = self.rng.permutation(len(candidates))[:MAX_ATTEMPTS]
        for i in order:
            pick = candidates[int(i)]
            if kind == SWITCH_DOWN:
                event = FaultEvent(kind, switch=pick)
            else:
                event = FaultEvent(kind, cable=pick)
            try:
                tentative, cables, switches = fold_events(
                    self.healthy, self.dead_cables, self.dead_switches, [event]
                )
            except ReproError:
                continue  # would disconnect or orphan a terminal
            self.dead_cables = cables
            self.dead_switches = switches
            self.state = tentative
            self.history.append(event)
            record_event(
                "fault_injected", fault=kind, detail=event.describe(self.healthy),
                dead_cables=len(cables), dead_switches=len(switches),
            )
            return event, tentative
        return None

    def step(self) -> tuple[FaultEvent, DegradedFabric] | None:
        """Advance the stream by one event.

        Returns ``(event, cumulative_degradation)`` or ``None`` when no
        viable event remains (fully degraded down to a tree with every
        remaining element load-bearing).
        """
        r = float(self.rng.random())
        if r < self.p_switch_down:
            preference = SWITCH_DOWN
        elif r < self.p_switch_down + self.p_link_up:
            preference = LINK_UP
        else:
            preference = LINK_DOWN
        kinds = [preference] + [k for k in (LINK_DOWN, LINK_UP, SWITCH_DOWN) if k != preference]
        for kind in kinds:
            stepped = self._try_kind(kind)
            if stepped is not None:
                return stepped
        return None


def random_fault_sequence(
    fabric: Fabric,
    count: int,
    seed=None,
    **injector_kwargs,
) -> list[tuple[FaultEvent, DegradedFabric]]:
    """Materialise up to ``count`` events of a seeded fault stream."""
    injector = FaultInjector(fabric, seed=seed, **injector_kwargs)
    out = []
    for _ in range(count):
        stepped = injector.step()
        if stepped is None:
            break
        out.append(stepped)
    return out
