"""Path extraction and the :class:`PathSet` container.

A :class:`PathSet` materialises, for every (source switch, destination
terminal) pair, the unique channel sequence the forwarding tables induce.
It is the shared input of

* the channel-dependency-graph builder (:mod:`repro.deadlock.cdg`),
* the congestion simulator (flows concatenate an injection channel with a
  switch-level path), and
* path statistics (hop histograms, minimality checks).

Storage is flat and destination-major: path ``pid = t_idx * S + s_idx``
occupies ``chans[offsets[pid]:offsets[pid+1]]``. Extraction is vectorised
per destination — all switches walk their next-hop chain simultaneously —
so the Python-level loop count is ``O(num_terminals * diameter)`` instead
of ``O(S * T * diameter)``.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import RoutingError
from repro.network.fabric import Fabric
from repro.routing.base import RoutingTables

#: a dependency edge ``(c1, c2)`` packs into one int64 as ``c1 << 32 | c2``
EDGE_KEY_SHIFT = 32
EDGE_KEY_MASK = (1 << EDGE_KEY_SHIFT) - 1


class PathSet:
    """Flat storage of all switch-to-terminal paths of a routing."""

    def __init__(self, fabric: Fabric, offsets: np.ndarray, chans: np.ndarray):
        self.fabric = fabric
        self.offsets = np.asarray(offsets, dtype=np.int64)
        self.chans = np.asarray(chans, dtype=np.int32)
        expected = fabric.num_switches * fabric.num_terminals + 1
        if self.offsets.shape != (expected,):
            raise RoutingError(f"offsets shape {self.offsets.shape} != ({expected},)")
        self._active_mask: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def num_paths(self) -> int:
        return len(self.offsets) - 1

    def pid(self, switch_node: int, dest_terminal: int) -> int:
        fab = self.fabric
        s_idx = int(fab.switch_index[switch_node])
        t_idx = int(fab.term_index[dest_terminal])
        if s_idx < 0 or t_idx < 0:
            raise RoutingError(
                f"pid requires (switch, terminal) node ids, got ({switch_node}, {dest_terminal})"
            )
        return t_idx * fab.num_switches + s_idx

    def path(self, pid: int) -> np.ndarray:
        """Channel-id sequence of path ``pid`` (NumPy view)."""
        return self.chans[self.offsets[pid] : self.offsets[pid + 1]]

    def path_between(self, switch_node: int, dest_terminal: int) -> np.ndarray:
        return self.path(self.pid(switch_node, dest_terminal))

    def lengths(self) -> np.ndarray:
        return np.diff(self.offsets)

    def hop_histogram(self) -> np.ndarray:
        """Histogram of path hop counts (index = hops)."""
        lengths = self.lengths()
        return np.bincount(lengths) if len(lengths) else np.zeros(1, dtype=np.int64)

    def mean_hops(self) -> float:
        lengths = self.lengths()
        return float(lengths.mean()) if len(lengths) else 0.0

    def endpoints_of(self, pid: int) -> tuple[int, int]:
        """(source switch node id, destination terminal node id) of ``pid``."""
        fab = self.fabric
        s_idx = pid % fab.num_switches
        t_idx = pid // fab.num_switches
        return int(fab.switches[s_idx]), int(fab.terminals[t_idx])

    def active_mask(self) -> np.ndarray:
        """Which paths can actually carry traffic (bool per pid).

        Flows start at terminals, so only paths whose *source switch
        hosts at least one terminal* ever materialise as buffer
        dependencies. OpenSM's DFSSSP likewise only considers CA-to-CA
        paths — layering the spine-originated suffixes separately would
        pin their edges in lower layers and inflate the lane count.

        Computed once per path set (read-only array): the engine, the
        verifier, the certificate and the repair all ask for it.
        """
        if self._active_mask is None:
            fab = self.fabric
            attached = fab.channels.dst[fab.kinds[fab.channels.src] == 1]  # terminal uplinks
            leaf = np.zeros(fab.num_switches, dtype=bool)
            leaf[fab.switch_index[attached[fab.kinds[attached] == 0]]] = True
            mask = np.tile(leaf, fab.num_terminals)
            mask.flags.writeable = False
            self._active_mask = mask
        return self._active_mask

    def active_pids(self) -> np.ndarray:
        """Ids of the traffic-carrying paths (see :meth:`active_mask`)."""
        return np.flatnonzero(self.active_mask())

    def dependency_pairs(self, pids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Channel-dependency occurrences of the paths ``pids``.

        Every consecutive channel pair ``(c1, c2)`` of every listed path
        where both are switch-to-switch channels (terminal channels
        cannot lie on a dependency cycle), in path-major order. Returns
        ``(keys, rows)``: the pair packed as ``c1 << 32 | c2`` (int64)
        and the index into ``pids`` of the path inducing it. The one
        extraction behind the CDG engine, the verifier and the
        certificate.
        """
        pids = np.asarray(pids, dtype=np.int64)
        starts = self.offsets[pids]
        pair_counts = np.maximum(self.offsets[pids + 1] - starts - 1, 0)
        total = int(pair_counts.sum())
        if not total:
            return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        rows = np.repeat(np.arange(len(pids)), pair_counts)
        first = np.cumsum(pair_counts) - pair_counts
        pos = starts[rows] + (np.arange(total) - first[rows])
        c1 = self.chans[pos].astype(np.int64)
        c2 = self.chans[pos + 1].astype(np.int64)
        is_sw = self.fabric.is_switch_channel
        keep = is_sw[c1] & is_sw[c2]
        return (c1[keep] << EDGE_KEY_SHIFT) | c2[keep], rows[keep]

    def dependency_edges(self, pids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distinct dependency edges of ``pids`` as ``(c1, c2)`` int64
        columns, sorted lexicographically."""
        keys = np.unique(self.dependency_pairs(pids)[0])
        return keys >> EDGE_KEY_SHIFT, keys & EDGE_KEY_MASK


def extract_paths(tables: RoutingTables) -> PathSet:
    """Walk the forwarding tables into a :class:`PathSet`.

    Raises :class:`RoutingError` on missing entries or forwarding loops —
    this doubles as the completeness validator for routing engines.
    """
    fab = tables.fabric
    S, T = fab.num_switches, fab.num_terminals
    nc = tables.next_channel
    chan_dst = fab.channels.dst
    switches = fab.switches.astype(np.int64)
    max_steps = fab.num_nodes + 1

    all_lengths = np.empty(S * T, dtype=np.int64)
    chunks: list[np.ndarray] = []

    for t_idx in range(T):
        term = int(fab.terminals[t_idx])
        cur = switches.copy()
        alive = cur != term
        lengths = np.zeros(S, dtype=np.int64)
        steps: list[np.ndarray] = []
        while alive.any():
            c = nc[cur, t_idx]
            bad = alive & (c < 0)
            if bad.any():
                node = int(fab.switches[int(np.flatnonzero(bad)[0])])
                raise RoutingError(
                    f"{tables.engine}: missing table entry at node {node} "
                    f"for terminal {term}"
                )
            step = np.where(alive, c, -1).astype(np.int32)
            steps.append(step)
            lengths[alive] += 1
            cur = np.where(alive, chan_dst[np.maximum(c, 0)].astype(np.int64), cur)
            alive = cur != term
            if len(steps) > max_steps:
                raise RoutingError(
                    f"{tables.engine}: forwarding loop toward terminal {term}"
                )
        if steps:
            m = np.vstack(steps)  # (depth, S)
            mask = (m >= 0).T  # (S, depth)
            chunks.append(m.T[mask])  # per-switch channel runs, s order
        all_lengths[t_idx * S : (t_idx + 1) * S] = lengths

    offsets = np.zeros(S * T + 1, dtype=np.int64)
    np.cumsum(all_lengths, out=offsets[1:])
    chans = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int32)
    if offsets[-1] != len(chans):  # pragma: no cover - internal invariant
        raise RoutingError("path extraction bookkeeping mismatch")
    return PathSet(fab, offsets, chans)


def flow_channels(tables: RoutingTables, paths: PathSet, src_terminal: int, dst_terminal: int) -> np.ndarray:
    """Channel sequence of a terminal-to-terminal flow.

    Concatenates the injection channel chosen by the source terminal's
    table row with the switch-level path from the first-hop switch.
    """
    fab = tables.fabric
    if src_terminal == dst_terminal:
        raise RoutingError("flow requires distinct endpoints")
    t_idx = int(fab.term_index[dst_terminal])
    inject = int(tables.next_channel[src_terminal, t_idx])
    if inject < 0:
        raise RoutingError(
            f"no injection channel from terminal {src_terminal} to {dst_terminal}"
        )
    first = int(fab.channels.dst[inject])
    if first == dst_terminal:  # pragma: no cover - builder forbids T-T cables
        return np.array([inject], dtype=np.int32)
    rest = paths.path_between(first, dst_terminal)
    out = np.empty(len(rest) + 1, dtype=np.int32)
    out[0] = inject
    out[1:] = rest
    return out


def path_minimality_violations(tables: RoutingTables, paths: PathSet) -> int:
    """Count paths longer than the hop distance of an unweighted BFS.

    SSSP's large initial edge weight guarantees zero violations (the §II
    argument); MinHop trivially has zero as well. Used by tests and the
    analysis module.
    """
    from collections import deque

    fab = tables.fabric
    S, T = fab.num_switches, fab.num_terminals
    violations = 0
    lengths = paths.lengths()
    for t_idx in range(T):
        term = int(fab.terminals[t_idx])
        dist = np.full(fab.num_nodes, -1, dtype=np.int64)
        dist[term] = 0
        queue = deque([term])
        while queue:
            v = queue.popleft()
            for c in fab.out_channels(v):
                w = int(fab.channels.dst[c])
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        sw_dist = dist[fab.switches]
        got = lengths[t_idx * S : (t_idx + 1) * S]
        violations += int(np.count_nonzero(got != sw_dist))
    return violations
