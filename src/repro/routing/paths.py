"""Path extraction and the :class:`PathSet` container.

A :class:`PathSet` materialises, for every (source switch, destination
terminal) pair, the unique channel sequence the forwarding tables induce.
It is the shared input of

* the channel-dependency-graph builders (:mod:`repro.deadlock`), through
  its dependency index (:class:`TurnIndex`),
* the congestion simulators (:func:`gather_flows`: an injection channel
  followed by a switch-level path), and
* path statistics (hop histograms, minimality checks).

Storage is flat and destination-major: path ``pid = t_idx * S + s_idx``
occupies ``chans[offsets[pid]:offsets[pid+1]]``. Each array is allocated
at the narrowest width that holds its values exactly (:func:`chan_dtype`,
:func:`offset_dtype`): uint16 channel ids up to 65 536 channels and int32
offsets below 2**31 channels on all paths. Extraction is vectorised
over blocks of destinations — all switches walk their next-hop chains
toward every destination of a block simultaneously — so the Python-level
loop count is ``O(blocks * diameter)`` instead of ``O(S * T * diameter)``.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.exceptions import RoutingError
from repro.network.fabric import Fabric
from repro.obs import get_registry, span
from repro.parallel.kernel import hops_to_dest
from repro.routing.base import RoutingTables

#: (switch, destination) walkers :func:`extract_paths` advances together
MAX_WALKERS = 1 << 18
#: (walker, step) entries one block may hold before it is narrowed
MAX_HELD = 16 * MAX_WALKERS
#: channels (or turn occurrences) one block of a per-occurrence pass spans
MAX_BLOCK = 1 << 16
#: the most channels a fabric may have for its path sets to store uint16 ids
CHANNEL_ID_LIMIT = 1 << 16
#: the totals an int32 CSR pointer (path offsets, turn occurrences) stays below
OFFSET_LIMIT = 1 << 31


def chan_dtype(num_channels: int) -> np.dtype:
    """Width of a path set's channel ids: uint16 while the fabric has at
    most :data:`CHANNEL_ID_LIMIT` channels, int32 beyond."""
    return np.dtype(np.uint16 if num_channels <= CHANNEL_ID_LIMIT else np.int32)


def offset_dtype(total: int) -> np.dtype:
    """Width of a CSR pointer ending at ``total``: int32 while ``total`` is
    below :data:`OFFSET_LIMIT`, int64 from there."""
    return np.dtype(np.int32 if total < OFFSET_LIMIT else np.int64)


def _at_width(values, dtype: np.dtype, what: str) -> np.ndarray:
    """``values`` as a ``dtype`` array: itself when it already is one (every
    array :func:`extract_paths` allocates), else a copy that must hold the
    same values."""
    arr = np.asarray(values)
    if arr.dtype == dtype:
        return arr
    out = arr.astype(dtype)
    if not np.array_equal(out, arr):
        raise RoutingError(f"{what} do not fit {dtype}")
    return out


class PathSet:
    """Flat storage of all switch-to-terminal paths of a routing.

    ``chans`` are :func:`chan_dtype` channel ids and ``offsets`` an
    :func:`offset_dtype` pointer; arrays of another integer type are
    copied to those widths, and a value they cannot hold is a
    :class:`RoutingError`.
    """

    def __init__(self, fabric: Fabric, offsets: np.ndarray, chans: np.ndarray):
        self.fabric = fabric
        offsets = np.asarray(offsets)
        expected = fabric.num_switches * fabric.num_terminals + 1
        if offsets.shape != (expected,):
            raise RoutingError(f"offsets shape {offsets.shape} != ({expected},)")
        self.offsets = _at_width(offsets, offset_dtype(int(offsets[-1])), "offsets")
        self.chans = _at_width(chans, chan_dtype(fabric.num_channels), "channel ids")
        self._active_mask: np.ndarray | None = None
        self._turns: TurnIndex | None = None

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

    def turn_index(self) -> TurnIndex:
        """The dependency index (:class:`TurnIndex`), built on first use.

        Building it makes ``offsets`` and ``chans`` read-only, so an
        in-place write raises ``ValueError`` instead of leaving the index
        stale. The CDG engine, the witness pass and the binding check
        all read this one index.
        """
        if self._turns is None:
            self._turns = TurnIndex(self)
            self.offsets.flags.writeable = False
            self.chans.flags.writeable = False
        return self._turns

    def dependency_edges(self, pids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Distinct dependency edges of the paths ``pids`` as ``(c1, c2)``
        int32 columns, sorted lexicographically."""
        layer = np.full(self.num_paths, -1, dtype=np.int8)
        layer[np.asarray(pids, dtype=np.int64)] = 0
        return self.layer_edges(layer, 1)[0]

    def layer_edges(
        self, path_layers: np.ndarray, num_layers: int
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """Distinct dependency edges of every layer, in one pass.

        Path ``pid`` belongs to layer ``path_layers[pid]``; a value
        outside ``[0, num_layers)`` (``-1``: a traffic-free path) leaves
        it out. Returns, per layer, ``(c1, c2)`` int32 columns sorted
        lexicographically. The work is, per :func:`blocks` range, one
        repeat of every path's mask row over its occurrences and one
        scatter into a layers × turns presence mask: turn ids order like
        their pairs, so nothing is sorted.
        """
        index = self.turn_index()
        path_layers = np.asarray(path_layers)
        if path_layers.shape != (self.num_paths,):
            raise RoutingError(
                f"path_layers shape {path_layers.shape} != ({self.num_paths},)"
            )
        turns = len(index.src)
        occ_ptr, occ_turn = index.occ_ptr, index.occ_turn
        present = np.zeros((num_layers + 1) * turns, dtype=bool)
        for p0, p1 in blocks(occ_ptr):
            row = path_layers[p0:p1].astype(np.int64)
            row[(row < 0) | (row >= num_layers)] = num_layers  # a spare row: left-out paths
            row *= turns
            at = np.repeat(row, np.diff(occ_ptr[p0 : p1 + 1]))
            at += occ_turn[occ_ptr[p0] : occ_ptr[p1]]
            present[at] = True
        present = present.reshape(num_layers + 1, turns)
        edges = []
        for layer in range(num_layers):
            t = np.flatnonzero(present[layer])
            edges.append((index.src[t], index.dst[t]))
        return edges


class TurnIndex:
    """A path set's channel-dependency index (:meth:`PathSet.turn_index`).

    A *turn* is a pair of switch channels ``(c1, c2)`` with
    ``dst(c1) == src(c2)``: every dependency a path can induce is one
    (terminal channels cannot lie on a dependency cycle). The fabric's
    turns are numbered in ``(c1, c2)`` order — those out of ``c1`` are
    ``ptr[c1]:ptr[c1 + 1]``, and ``(c1, c2)`` is turn
    ``ptr[c1] + rank[c2]``, ``rank[c2]`` being ``c2``'s place among the
    switch channels leaving its source (``-1`` for a terminal channel) —
    so ascending turn ids are a lexicographically sorted edge list and
    deduplicating edges is a presence mask or a count, not a sort.
    ``src`` / ``dst`` are each turn's ``(c1, c2)``.

    ``occ_turn`` lists every path's turns, path-major and in hop order —
    ``occ_turn[occ_ptr[pid]:occ_ptr[pid + 1]]`` are path ``pid``'s — as
    uint16 while the fabric has at most 65 536 turns (the index lives as
    long as its path set). ``occ_ptr`` takes the path offsets' width
    (a path has fewer turns than channels); ``src``, ``dst``, ``ptr`` and
    ``rank`` are int32, as the fabric's channel ids are. Every array is
    read-only. What the index keeps is 2 B per occurrence (``occ_turn``)
    and 4 B per path (``occ_ptr``); its build, like every pass over it,
    walks :func:`blocks` ranges, so the scratch is O(block), not
    O(paths × hops).
    """

    def __init__(self, paths: PathSet):
        fab = paths.fabric
        chan_src, chan_dst = fab.channels.src, fab.channels.dst
        n_ch = fab.num_channels
        # Switch channels by source node, ascending id (the fabric CSR's order).
        sw_out = fab.out_chan[fab.is_switch_channel[fab.out_chan]]
        sw_ptr = np.zeros(fab.num_nodes + 1, dtype=np.int64)
        np.cumsum(np.bincount(chan_src[sw_out], minlength=fab.num_nodes), out=sw_ptr[1:])
        self.rank = np.full(n_ch, -1, dtype=np.int32)
        self.rank[sw_out] = np.arange(len(sw_out)) - sw_ptr[chan_src[sw_out]]
        fan = np.where(fab.is_switch_channel, np.diff(sw_ptr)[chan_dst], 0)
        # A turn id is below len(src), far below 2**31: int32 arithmetic.
        self.ptr = np.zeros(n_ch + 1, dtype=np.int32)
        np.cumsum(fan, out=self.ptr[1:])
        self.src = np.repeat(np.arange(n_ch, dtype=np.int32), fan)
        first = sw_ptr[chan_dst[self.src]] - self.ptr[self.src]
        self.dst = sw_out[first + np.arange(len(self.src))]

        self.occ_turn, self.occ_ptr = self._occurrences(paths)
        for arr in (self.rank, self.ptr, self.src, self.dst, self.occ_turn, self.occ_ptr):
            arr.flags.writeable = False

    def _occurrences(self, paths: PathSet) -> tuple[np.ndarray, np.ndarray]:
        """``(occ_turn, occ_ptr)`` of every consecutive switch-channel pair,
        one :func:`blocks` range of paths at a time."""
        chans, offsets = paths.chans, paths.offsets
        fab = paths.fabric
        is_sw, chan_src, chan_dst = fab.is_switch_channel, fab.channels.src, fab.channels.dst
        ptr, rank = self.ptr, self.rank
        dtype = np.uint16 if len(self.src) <= 1 << 16 else np.int32
        occ_ptr = np.zeros(len(offsets), dtype=offsets.dtype)
        chunks = []
        for p0, p1 in blocks(offsets):
            lo = offsets[p0]
            c = chans[lo : offsets[p1]]
            sw = is_sw[c]
            pair = sw[:-1] & sw[1:]
            seam = offsets[p0 + 1 : p1] - lo - 1  # the pair across two neighbouring paths
            pair[seam[(seam >= 0) & (seam < len(pair))]] = False
            at = np.flatnonzero(pair)
            a, b = c[at], c[at + 1]
            loose = np.flatnonzero(chan_dst[a] != chan_src[b])
            if len(loose):
                i = loose[0]
                pid = int(np.searchsorted(offsets, lo + at[i], side="right")) - 1
                raise RoutingError(
                    f"path {pid} is not a channel chain: channel {int(a[i])} "
                    f"does not end where channel {int(b[i])} starts"
                )
            chunks.append((ptr[a] + rank[b]).astype(dtype, copy=False))
            ends = offsets[p0 + 1 : p1 + 1] - lo
            occ_ptr[p0 + 1 : p1 + 1] = occ_ptr[p0] + np.searchsorted(at, ends)
        return np.concatenate(chunks), occ_ptr

    def turn(self, c1: int, c2: int) -> int:
        """Id of the turn ``(c1, c2)``, ``-1`` if the pair is none."""
        if not (0 <= c1 < len(self.rank) and 0 <= c2 < len(self.rank)) or self.rank[c2] < 0:
            return -1
        t = int(self.ptr[c1] + self.rank[c2])
        return t if t < self.ptr[c1 + 1] and self.dst[t] == c2 else -1


def blocks(ptr: np.ndarray) -> Iterator[tuple[int, int]]:
    """Path ranges ``[p0, p1)``, in order and at least one, that each span
    at most :data:`MAX_BLOCK` entries of the CSR pointer ``ptr`` (a longer
    path is a range of its own).

    Every per-occurrence pass walks its path set through these ranges —
    ``ptr`` is ``offsets`` while the turn index is built and ``occ_ptr``
    after — so its scratch is O(block), not O(paths × hops).
    """
    n = len(ptr) - 1
    p0 = 0
    while True:
        # Clamped to ``ptr[-1]``, the bound fits ``ptr``'s dtype, and a
        # scalar of that dtype spares searchsorted a copy of ``ptr``.
        end = ptr.dtype.type(min(int(ptr[p0]) + MAX_BLOCK, int(ptr[-1])))
        p1 = int(np.searchsorted(ptr, end, side="right")) - 1
        p1 = min(max(p1, p0 + 1), n)
        yield p0, p1
        if p1 == n:
            return
        p0 = p1


def extract_paths(tables: RoutingTables) -> PathSet:
    """Walk the forwarding tables into a :class:`PathSet`, once per tables.

    The result is kept on ``tables`` and ``tables.next_channel`` becomes
    read-only, so every later call returns the same object and an
    in-place write raises ``ValueError`` instead of leaving it stale.

    Raises :class:`RoutingError` on missing entries or forwarding loops —
    this doubles as the completeness validator for routing engines.
    """
    if tables._paths is None:
        tables._paths = _walk(tables)
        tables.next_channel.flags.writeable = False
    return tables._paths


def _walk(tables: RoutingTables) -> PathSet:
    """Advance the ``(switch, destination)`` walkers of a block of
    destinations together, carrying only those still under way.

    Each block's channels are written at :func:`chan_dtype` width and the
    offsets, once the channel total is known, at :func:`offset_dtype`
    width: nothing is narrowed by a copy afterwards."""
    fab = tables.fabric
    S, T = fab.num_switches, fab.num_terminals
    nc = tables.next_channel
    chan_dst = fab.channels.dst
    terminals = fab.terminals
    max_steps = fab.num_nodes + 1
    block = max(1, MAX_WALKERS // max(S, 1))  # destinations per block

    chan_type = chan_dtype(fab.num_channels)
    all_lengths = np.zeros(S * T, dtype=np.int32)  # at most max_steps each
    chunks: list[np.ndarray] = []
    with span("paths.extract", paths=S * T) as sp:
        t0 = 0
        while t0 < T:
            t1 = min(t0 + block, T)
            dest = np.repeat(np.arange(t0, t1), S)  # t_idx of each walker
            lengths = all_lengths[t0 * S : t1 * S]
            live = np.arange(len(dest))
            cur = np.tile(fab.switches, t1 - t0)
            steps: list[tuple[np.ndarray, np.ndarray]] = []
            held = 0
            while len(live):
                t_idx = dest[live]
                if len(steps) > max_steps:
                    raise RoutingError(
                        f"{tables.engine}: forwarding loop toward terminal "
                        f"{int(terminals[t_idx[0]])}"
                    )
                held += len(live)
                if held > MAX_HELD and block > 1:
                    # Long paths or a forwarding loop: a narrower block keeps
                    # the steps held until the loop limit within memory.
                    block //= 2
                    break
                c = nc[cur, t_idx]
                bad = np.flatnonzero(c < 0)
                if len(bad):
                    raise RoutingError(
                        f"{tables.engine}: missing table entry at node {int(cur[bad[0]])} "
                        f"for terminal {int(terminals[t_idx[bad[0]]])}"
                    )
                steps.append((live, c))
                cur = chan_dst[c]
                going = cur != terminals[t_idx]
                lengths[live[~going]] = len(steps)
                live, cur = live[going], cur[going]
            else:
                first = np.cumsum(lengths) - lengths
                out = np.empty(int(lengths.sum()), dtype=chan_type)
                for k, (walkers, c) in enumerate(steps):
                    out[first[walkers] + k] = c
                chunks.append(out)
                t0 = t1

        total = sum(map(len, chunks))
        offsets = np.zeros(S * T + 1, dtype=offset_dtype(total))
        np.cumsum(all_lengths, out=offsets[1:], dtype=offsets.dtype)
        chans = np.concatenate(chunks) if chunks else np.zeros(0, dtype=chan_type)
        sp.set_attr("chans", len(chans))
        sp.set_attr("blocks", len(chunks))
    get_registry().counter(
        "paths_extracted_total", "forwarding tables walked into a PathSet"
    ).inc()
    return PathSet(fab, offsets, chans)


def gather_flows(
    tables: RoutingTables, paths: PathSet, src: np.ndarray, dst: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Channel sequences of the terminal-to-terminal flows ``src[i] -> dst[i]``.

    Flow ``i`` is the injection channel of ``src[i]``'s table row followed
    by the switch-level path from its first-hop switch; it occupies
    ``flat[offsets[i]:offsets[i + 1]]`` (channel ids at the path set's
    width, int64 offsets). Every consumer of flows (the
    congestion simulators, the adversary, :func:`flow_channels`) gathers
    them here, so they all see the same channels.
    """
    fab = tables.fabric
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    t_idx = fab.term_index[dst].astype(np.int64)
    inject = tables.next_channel[src, t_idx]
    bad = np.flatnonzero((src == dst) | (fab.term_index[src] < 0) | (t_idx < 0) | (inject < 0))
    if len(bad):
        s, d = int(src[bad[0]]), int(dst[bad[0]])
        if s == d:
            raise RoutingError(f"flow ({s}, {d}) requires distinct endpoints")
        if fab.term_index[s] < 0 or fab.term_index[d] < 0:
            raise RoutingError(f"flow ({s}, {d}) references a non-terminal")
        raise RoutingError(f"no injection channel from terminal {s} to {d}")
    pid = t_idx * fab.num_switches + fab.switch_index[fab.channels.dst[inject]]
    start = paths.offsets[pid]
    length = paths.offsets[pid + 1] - start + 1  # + the injection channel
    offsets = np.zeros(len(src) + 1, dtype=np.int64)
    np.cumsum(length, out=offsets[1:])
    # Position k of flow i reads chans[start[i] + k - 1]; k = 0 (the entry
    # before the path) is then overwritten with the injection channel.
    at = np.arange(offsets[-1]) + np.repeat(start - offsets[:-1] - 1, length)
    flat = paths.chans[at]
    flat[offsets[:-1]] = inject
    return flat, offsets


def flow_channels(tables: RoutingTables, paths: PathSet, src_terminal: int, dst_terminal: int) -> np.ndarray:
    """Channel sequence of one terminal-to-terminal flow (:func:`gather_flows`)."""
    return gather_flows(tables, paths, [src_terminal], [dst_terminal])[0]


def path_minimality_violations(tables: RoutingTables, paths: PathSet) -> int:
    """Count paths longer than the hop distance to their destination.

    SSSP's large initial edge weight guarantees zero violations (the §II
    argument); MinHop trivially has zero as well. Used by tests and the
    analysis module.
    """
    fab = tables.fabric
    S = fab.num_switches
    lengths = paths.lengths()
    violations = 0
    for t_idx, term in enumerate(fab.terminals.tolist()):
        sw_dist = hops_to_dest(fab, term)[fab.switches]
        got = lengths[t_idx * S : (t_idx + 1) * S]
        violations += int(np.count_nonzero(got != sw_dist))
    return violations
