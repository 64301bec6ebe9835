"""Routing-engine interface and forwarding-table containers.

All engines produce **destination-based** forwarding tables, mirroring
InfiniBand's linear forwarding tables: ``next_channel[node, dest]`` is the
outgoing channel a packet takes at ``node`` when headed for destination
terminal index ``dest``. A consequence the whole library exploits: the
switch-level path from a switch to a terminal is *unique*, so the global
path population has ``num_switches * num_terminals`` members (the CA-level
paths of the paper collapse onto them).

Deadlock-free engines additionally return a layer (virtual lane)
assignment per path — see :class:`LayeredRouting`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.exceptions import InsufficientLayersError, RepairError, RoutingError
from repro.network.fabric import Fabric
from repro.network.validate import check_routable
from repro.service.budget import check_budget


class RoutingTables:
    """Destination-based forwarding tables.

    ``next_channel`` has shape ``(num_nodes, num_terminals)`` with channel
    ids, or -1 for "no entry" (only legal on the destination terminal's
    own row/column intersection). Fill the array before constructing the
    tables: :func:`repro.routing.paths.extract_paths` makes it read-only.
    """

    def __init__(self, fabric: Fabric, next_channel: np.ndarray, engine: str = "?"):
        self.fabric = fabric
        self.next_channel = np.asarray(next_channel, dtype=np.int32)
        self.engine = engine
        self._paths = None  # repro.routing.paths.extract_paths keeps its PathSet here
        expected = (fabric.num_nodes, fabric.num_terminals)
        if self.next_channel.shape != expected:
            raise RoutingError(
                f"tables shape {self.next_channel.shape} != expected {expected}"
            )

    @classmethod
    def empty(cls, fabric: Fabric, engine: str = "?") -> "RoutingTables":
        return cls(
            fabric,
            np.full((fabric.num_nodes, fabric.num_terminals), -1, dtype=np.int32),
            engine=engine,
        )

    def next_hop(self, node: int, dest_terminal: int) -> int:
        """Outgoing channel at ``node`` toward terminal node id
        ``dest_terminal`` (-1 if none/self)."""
        t_idx = self.fabric.term_index[dest_terminal]
        if t_idx < 0:
            raise RoutingError(f"node {dest_terminal} is not a terminal")
        return int(self.next_channel[node, t_idx])

    def path_channels(self, src: int, dest_terminal: int) -> list[int]:
        """Full channel sequence from node ``src`` to ``dest_terminal``.

        Raises :class:`RoutingError` on incomplete tables or forwarding
        loops.
        """
        fab = self.fabric
        t_idx = int(fab.term_index[dest_terminal])
        if t_idx < 0:
            raise RoutingError(f"node {dest_terminal} is not a terminal")
        node = src
        out: list[int] = []
        while node != dest_terminal:
            c = int(self.next_channel[node, t_idx])
            if c < 0:
                raise RoutingError(
                    f"{self.engine}: no table entry at node {node} for terminal "
                    f"{dest_terminal}"
                )
            out.append(c)
            node = int(fab.channels.dst[c])
            if len(out) > fab.num_nodes:
                raise RoutingError(
                    f"{self.engine}: forwarding loop toward terminal {dest_terminal} "
                    f"(via node {src})"
                )
        return out

    def hops(self, src: int, dest_terminal: int) -> int:
        return len(self.path_channels(src, dest_terminal))


class LayeredRouting:
    """Forwarding tables plus a per-path virtual-layer (SL/VL) assignment.

    ``path_layers`` is indexed by ``pid = t_idx * num_switches + s_idx``
    (destination-major, matching :class:`repro.routing.paths.PathSet`).
    A source *terminal* inherits the layer of its first-hop switch's path.
    Write ``path_layers`` before the assignment is verified:
    :func:`repro.deadlock.certificate.layer_witnesses` keeps a passing
    witness pass here and makes the array read-only.
    """

    def __init__(self, tables: RoutingTables, path_layers: np.ndarray, num_layers: int):
        self.tables = tables
        self.fabric = tables.fabric
        self.path_layers = np.asarray(path_layers, dtype=np.int16)
        self.num_layers = int(num_layers)
        self._witness = None  # repro.deadlock.certificate.layer_witnesses keeps a passing pass here
        expected = self.fabric.num_switches * self.fabric.num_terminals
        if self.path_layers.shape != (expected,):
            raise RoutingError(
                f"path_layers shape {self.path_layers.shape} != ({expected},)"
            )
        if num_layers < 1:
            raise RoutingError("num_layers must be >= 1")
        if len(self.path_layers) and (
            self.path_layers.min() < 0 or self.path_layers.max() >= num_layers
        ):
            raise RoutingError(
                f"path layer out of range [0, {num_layers}): "
                f"[{self.path_layers.min()}, {self.path_layers.max()}]"
            )

    @classmethod
    def single_layer(cls, tables: RoutingTables) -> "LayeredRouting":
        """Wrap plain tables as a one-layer assignment (not necessarily
        deadlock-free!)."""
        n = tables.fabric.num_switches * tables.fabric.num_terminals
        return cls(tables, np.zeros(n, dtype=np.int16), 1)

    def pid(self, switch_node: int, dest_terminal: int) -> int:
        fab = self.fabric
        s_idx = int(fab.switch_index[switch_node])
        t_idx = int(fab.term_index[dest_terminal])
        if s_idx < 0 or t_idx < 0:
            raise RoutingError(
                f"pid requires (switch, terminal), got nodes ({switch_node}, {dest_terminal})"
            )
        return t_idx * fab.num_switches + s_idx

    def layer_for(self, src: int, dest_terminal: int) -> int:
        """Virtual layer used by traffic from ``src`` to ``dest_terminal``.

        ``src`` may be a terminal (the paper's SL is chosen at the source
        CA); it then uses its first-hop switch's path layer.
        """
        fab = self.fabric
        if src == dest_terminal:
            raise RoutingError("no layer for a self-path")
        node = src
        if fab.is_terminal(src):
            c = self.tables.next_hop(src, dest_terminal)
            if c < 0:
                raise RoutingError(f"no route from terminal {src} to {dest_terminal}")
            node = int(fab.channels.dst[c])
            if node == dest_terminal:
                # Same-switch... actually direct terminal-terminal is
                # impossible (builder rejects such cables).
                return 0  # pragma: no cover - defensive
        return int(self.path_layers[self.pid(node, dest_terminal)])

    def layer_histogram(self) -> np.ndarray:
        """Number of paths per layer, shape (num_layers,)."""
        return np.bincount(self.path_layers, minlength=self.num_layers)

    @property
    def layers_used(self) -> int:
        """Number of non-empty layers."""
        return int(np.count_nonzero(self.layer_histogram()))


@dataclass
class RoutingResult:
    """What a routing engine returns.

    ``layered`` is present for deadlock-free engines (DFSSSP, LASH,
    Up*/Down* wraps its single layer); ``deadlock_free`` records the
    engine's own claim, which tests independently verify via
    :mod:`repro.deadlock.verify`. ``channel_weights`` carries the final
    per-channel balancing weights of weight-based engines (SSSP/DFSSSP)
    so :mod:`repro.resilience` can continue balancing across incremental
    repairs instead of restarting from uniform weights.

    ``certificate`` (a
    :class:`repro.deadlock.certificate.DeadlockFreedomCertificate`, typed
    loosely to keep this module import-light) is attached by the
    supervisor's verification, the checkpoint store and ``certify`` CLI
    so consumers can re-check deadlock freedom in O(V+E) without
    re-running the layer assignment.
    Engines themselves leave it ``None``.
    """

    tables: RoutingTables
    layered: LayeredRouting | None = None
    deadlock_free: bool = False
    stats: dict = field(default_factory=dict)
    channel_weights: np.ndarray | None = None
    certificate: object | None = None

    @property
    def num_layers(self) -> int:
        return self.layered.num_layers if self.layered is not None else 1

    @property
    def layers_used(self) -> int:
        return self.layered.layers_used if self.layered is not None else 1


class RoutingEngine(ABC):
    """Base class for all routing engines.

    Subclasses implement :meth:`_route`; the public :meth:`route` performs
    the shared fabric validation first.
    """

    #: short identifier used by the registry, CLI and benchmark tables
    name: str = "abstract"

    #: whether :meth:`reroute` can splice a prior result instead of
    #: recomputing from scratch (SSSP, DFSSSP); such an engine has a
    #: ``kernel`` that the repair re-routes its broken columns with
    supports_incremental_reroute: bool = False

    #: whether a repaired result must keep virtual layers (DFSSSP): a
    #: prior without them is routed from scratch instead
    repair_needs_layers: bool = False

    def route(self, fabric: Fabric) -> RoutingResult:
        # Engines honour the active compute budget (repro.service): SSSP/
        # DFSSSP poll it in their inner loops; this entry check makes even
        # single-pass engines fail fast once the deadline has passed.
        check_budget()
        check_routable(fabric)
        return self._route(fabric)

    def reroute(self, prior: RoutingResult | None, degraded) -> RoutingResult:
        """Recompute routing after failure injection: the one repair-or-rebuild rule.

        ``degraded`` is a :class:`repro.network.faults.DegradedFabric`
        derived from the fabric that produced ``prior``. An engine that
        supports incremental reroute splices only the broken forwarding
        columns (:func:`repro.resilience.repair.repair_routing`). Every
        other engine, a missing prior and a prior without the layers the
        engine must keep get a full route. So does a repair that is
        impossible (:class:`~repro.exceptions.RepairError`: link-up,
        foreign degradation) or that exhausts the virtual layers
        (:class:`~repro.exceptions.InsufficientLayersError`); those two
        are counted in ``repair_full_fallbacks{engine, reason}``.
        """
        if (
            not self.supports_incremental_reroute
            or prior is None
            or (self.repair_needs_layers and prior.layered is None)
        ):
            return self.route(degraded.fabric)
        # Imported here: repro.resilience.repair builds on this module.
        from repro.resilience.repair import count_fallback, repair_routing

        try:
            return repair_routing(prior, degraded, engine_name=self.name, kernel=self.kernel)
        except (RepairError, InsufficientLayersError) as err:
            count_fallback(self.name, reason=type(err).__name__)
            return self.route(degraded.fabric)

    @abstractmethod
    def _route(self, fabric: Fabric) -> RoutingResult:
        """Produce forwarding tables for a validated fabric."""

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(name={self.name!r})"
