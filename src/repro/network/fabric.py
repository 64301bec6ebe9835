"""The :class:`Fabric` — an immutable directed multigraph network model.

Nodes are either **switches** (forwarding elements with a port radix) or
**terminals** (InfiniBand channel adapters / compute endpoints). Channels
are directed; every physical cable is a pair of opposed channels (see
:mod:`repro.network.channels`). Parallel cables between the same node pair
are first-class citizens.

The fabric is built once by :class:`repro.network.builder.FabricBuilder`
and then frozen: routing engines and simulators only ever read it, which
lets us expose raw NumPy arrays (CSR adjacency, channel endpoint columns)
without defensive copies.
"""

from __future__ import annotations

from enum import IntEnum

import numpy as np

from repro.exceptions import FabricError
from repro.network.channels import ChannelVector


class NodeKind(IntEnum):
    SWITCH = 0
    TERMINAL = 1


# Plain ints for the per-node accessors: resolving ``NodeKind.SWITCH``
# goes through the enum metaclass on every call, which dominated the
# reference heap Dijkstra's relaxation loop.
_SWITCH = int(NodeKind.SWITCH)
_TERMINAL = int(NodeKind.TERMINAL)


def csr_gather(ptr: np.ndarray, rows: np.ndarray):
    """``(owner, flat)``: the CSR slices ``ptr[r]:ptr[r + 1]`` of ``rows``
    concatenated; ``owner`` is each entry's index into ``rows``."""
    starts = ptr[rows]
    lens = ptr[rows + 1] - starts
    owner = np.repeat(np.arange(len(rows)), lens)
    offset = np.cumsum(lens) - lens
    return owner, np.arange(len(owner)) + (starts - offset)[owner]


class Fabric:
    """Immutable network description.

    Parameters are normally supplied by :class:`FabricBuilder`; direct
    construction is supported for tests.

    Attributes
    ----------
    kinds:
        ``int8`` array, :class:`NodeKind` per node.
    channels:
        :class:`ChannelVector` with per-channel ``src``/``dst``/``reverse``.
    out_ptr / out_chan:
        CSR layout of outgoing channels: channels leaving node ``v`` are
        ``out_chan[out_ptr[v]:out_ptr[v+1]]`` (sorted by channel id).
    terminals / switches:
        Sorted node-id arrays by kind.
    term_index:
        Dense map node id -> terminal index (or -1), used to index
        forwarding-table columns.
    coordinates:
        Optional per-node coordinate tuples (tori/meshes/hypercubes) used
        by dimension-ordered routing.
    metadata:
        Free-form topology info (family name, generator parameters).
    """

    def __init__(
        self,
        kinds: np.ndarray,
        channels: ChannelVector,
        names: list[str] | None = None,
        coordinates: dict[int, tuple[int, ...]] | None = None,
        metadata: dict | None = None,
    ):
        self.kinds = np.asarray(kinds, dtype=np.int8)
        self.num_nodes = len(self.kinds)
        self.channels = channels
        self.num_channels = len(channels)
        self.names = list(names) if names is not None else [f"n{i}" for i in range(self.num_nodes)]
        if len(self.names) != self.num_nodes:
            raise FabricError("names length does not match node count")
        self.coordinates = dict(coordinates) if coordinates else {}
        self.metadata = dict(metadata) if metadata else {}

        if self.num_channels:
            lo = int(min(channels.src.min(), channels.dst.min()))
            hi = int(max(channels.src.max(), channels.dst.max()))
            if lo < 0 or hi >= self.num_nodes:
                raise FabricError(
                    f"channel endpoint out of range: nodes [0,{self.num_nodes}) "
                    f"but channels reference [{lo},{hi}]"
                )
        if not channels.pairs_consistent():
            raise FabricError("channel reverse pairing is inconsistent")

        # CSR of outgoing channels.
        order = np.argsort(channels.src, kind="stable")
        counts = np.bincount(channels.src, minlength=self.num_nodes)
        self.out_ptr = np.zeros(self.num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=self.out_ptr[1:])
        self.out_chan = order.astype(np.int32)

        # Node partitions.
        self.switches = np.flatnonzero(self.kinds == NodeKind.SWITCH).astype(np.int32)
        self.terminals = np.flatnonzero(self.kinds == NodeKind.TERMINAL).astype(np.int32)
        self.term_index = np.full(self.num_nodes, -1, dtype=np.int32)
        self.term_index[self.terminals] = np.arange(len(self.terminals), dtype=np.int32)
        self.switch_index = np.full(self.num_nodes, -1, dtype=np.int32)
        self.switch_index[self.switches] = np.arange(len(self.switches), dtype=np.int32)

        # Channel classification: a channel is a *switch channel* iff both
        # endpoints are switches. Only switch channels can appear in channel
        # dependency cycles (terminal channels have no CDG predecessor or
        # successor respectively).
        if self.num_channels:
            src_sw = self.kinds[channels.src] == NodeKind.SWITCH
            dst_sw = self.kinds[channels.dst] == NodeKind.SWITCH
            self.is_switch_channel = np.logical_and(src_sw, dst_sw)
        else:
            self.is_switch_channel = np.zeros(0, dtype=bool)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_terminals(self) -> int:
        return len(self.terminals)

    @property
    def num_switches(self) -> int:
        return len(self.switches)

    def is_switch(self, node: int) -> bool:
        return self.kinds[node] == _SWITCH

    def is_terminal(self, node: int) -> bool:
        return self.kinds[node] == _TERMINAL

    def out_channels(self, node: int) -> np.ndarray:
        """Channel ids leaving ``node`` (NumPy view; do not mutate)."""
        return self.out_chan[self.out_ptr[node] : self.out_ptr[node + 1]]

    def in_channels(self, node: int) -> np.ndarray:
        """Channel ids entering ``node`` (reverse of outgoing cables)."""
        return self.channels.reverse[self.out_channels(node)]

    def neighbors(self, node: int) -> np.ndarray:
        """Unique neighbor node ids of ``node``."""
        return np.unique(self.channels.dst[self.out_channels(node)])

    def degree(self, node: int) -> int:
        """Number of outgoing channels (= attached cables) of ``node``."""
        return int(self.out_ptr[node + 1] - self.out_ptr[node])

    def channel_between(self, u: int, v: int) -> int:
        """Id of one channel u->v (the lowest if trunked); -1 if none."""
        for c in self.out_channels(u):
            if self.channels.dst[c] == v:
                return int(c)
        return -1

    def channels_between(self, u: int, v: int) -> list[int]:
        """All parallel channel ids u->v."""
        return [int(c) for c in self.out_channels(u) if self.channels.dst[c] == v]

    def attached_switches(self, terminal: int) -> np.ndarray:
        """Switches a terminal connects to (usually one; service nodes in
        real systems are sometimes dual-homed)."""
        if not self.is_terminal(terminal):
            raise FabricError(f"node {terminal} is not a terminal")
        return self.neighbors(terminal)

    def terminal_of_index(self, idx: int) -> int:
        """Node id of the terminal with dense index ``idx``."""
        return int(self.terminals[idx])

    # ------------------------------------------------------------------
    # Derived structure
    # ------------------------------------------------------------------
    def switch_channel_ids(self) -> np.ndarray:
        """Ids of all switch<->switch channels."""
        return np.flatnonzero(self.is_switch_channel).astype(np.int32)

    def to_networkx(self):
        """Export as a :class:`networkx.MultiDiGraph` (for analysis/tests)."""
        import networkx as nx

        g = nx.MultiDiGraph()
        for v in range(self.num_nodes):
            g.add_node(
                v,
                kind="switch" if self.is_switch(v) else "terminal",
                name=self.names[v],
            )
        for cid in range(self.num_channels):
            ch = self.channels[cid]
            g.add_edge(ch.src, ch.dst, key=cid, cid=cid, capacity=ch.capacity)
        return g

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        fam = self.metadata.get("family", "fabric")
        return (
            f"Fabric({fam}: {self.num_switches} switches, "
            f"{self.num_terminals} terminals, {self.num_channels // 2} cables)"
        )
