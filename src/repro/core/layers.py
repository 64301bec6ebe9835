"""Virtual-layer assignment: the offline and online variants of the
paper's Algorithm 2, plus the final layer-balancing step.

Both variants take a :class:`~repro.routing.paths.PathSet` (any routing's
paths, though DFSSSP feeds it SSSP paths) and return

* ``path_layers`` — layer index per path id,
* ``layers_needed`` — layers containing paths *before* balancing (the
  number reported in Figures 9/10), and
* diagnostic counters.

Offline (the paper's contribution): build the complete CDG of layer 0,
repeatedly find a cycle, move all paths inducing one chosen edge to the
next layer, and recurse per layer. Cycle selection is *canonical* —
Tarjan SCC condensation picks the component containing the smallest
channel id and a minimum-successor-first walk inside it yields the
witness cycle — so the rebuild-based implementation here and the
vectorized engine in :mod:`repro.deadlock.incremental` produce
bit-identical assignments (the latter is what :class:`DFSSSPEngine`
runs by default; this one is the differential/benchmark reference).
Online (the LASH-inspired baseline): insert each path into the lowest
layer that stays acyclic — one cycle check per path, which is the
O(|N|² · (|C|+|E|)) cost §IV calls impractical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.heuristics import get_heuristic
from repro.deadlock.cdg import ChannelDependencyGraph, first_fit
from repro.deadlock.cycles import drain_cycles, tarjan_sccs
from repro.exceptions import InsufficientLayersError, RoutingError
from repro.obs import get_hooks, get_registry, span
from repro.routing.paths import PathSet
from repro.service.budget import check_budget

#: InfiniBand hardware limit the paper works against (spec allows 16).
DEFAULT_MAX_LAYERS = 8


@dataclass
class LayerAssignment:
    """Result of a layer-assignment run."""

    path_layers: np.ndarray
    layers_needed: int  # non-empty layers before balancing
    num_layers: int  # layers available (= max_layers)
    cycles_broken: int
    paths_moved: int
    balanced: bool

    def histogram(self) -> np.ndarray:
        return np.bincount(self.path_layers, minlength=self.num_layers)


def assign_layers_offline(
    paths: PathSet,
    max_layers: int = DEFAULT_MAX_LAYERS,
    heuristic: str = "weakest",
    balance: bool = True,
    pids=None,
) -> LayerAssignment:
    """Offline Algorithm 2.

    ``pids`` selects the paths to layer (default: all). DFSSSP passes the
    traffic-carrying subset (:meth:`PathSet.active_pids`) — OpenSM's
    CA-to-CA granularity; paths outside the subset stay on layer 0 and
    never constrain cycle breaking.

    Raises :class:`InsufficientLayersError` if cycles remain in the last
    layer — "no deadlock-free assignment possible" with this budget.
    """
    if max_layers < 1:
        raise ValueError(f"max_layers must be >= 1, got {max_layers}")
    pick = get_heuristic(heuristic)
    fabric = paths.fabric
    path_layers = np.zeros(paths.num_paths, dtype=np.int16)
    if pids is None:
        pids = range(paths.num_paths)
    pids = [int(p) for p in pids]

    reg = get_registry()
    hooks = get_hooks()
    m_cycles = reg.counter(
        "dfsssp_cycles_broken", "CDG cycles broken during offline layer assignment"
    )
    m_moved = reg.counter("dfsssp_paths_moved", "paths relocated to a higher virtual layer")
    m_evicted = reg.counter(
        "dfsssp_edges_evicted", "cycle edges evicted from a layer's CDG",
        heuristic=str(heuristic),
    )

    cdgs = [ChannelDependencyGraph(fabric)]
    for pid in pids:
        cdgs[0].add_path(pid, paths.path(pid))

    cycles_broken = 0
    paths_moved = 0
    layer = 0
    with span("layers.assign_offline", heuristic=str(heuristic), max_layers=max_layers,
              cdg="rebuild"):
        while layer < len(cdgs):
            cdg = cdgs[layer]
            with span("layers.layer", layer=layer) as sp:
                # Condense once per layer, then drain each component in
                # canonical (smallest-channel-first) order. Draining a
                # membership visits every cycle it will ever contain —
                # deletions cannot create cycles or merge components —
                # so the remainder needs no re-search. The incremental
                # engine runs the identical drain over CSR arrays; this
                # dict-backed loop is the foil its benchmark measures
                # against (full rebuild of every structure per layer).
                sccs = tarjan_sccs(cdg.nodes(), cdg.successors)
                for membership in sorted(sccs, key=min):
                    for cycle in drain_cycles(membership, cdg.successors):
                        check_budget()  # cooperative deadline (repro.service)
                        if layer + 1 >= max_layers:
                            raise InsufficientLayersError(
                                f"cycles remain after filling all {max_layers} layers",
                                layers_available=max_layers,
                                layers_needed_at_least=max_layers + 1,
                            )
                        if layer + 1 >= len(cdgs):
                            cdgs.append(ChannelDependencyGraph(fabric))
                        edge = pick(cdg, cycle)
                        movers = sorted(cdg.pids_of_edge(*edge))
                        if not movers:
                            raise RoutingError(f"layer {layer}: no path induces cycle edge {edge}")
                        nxt = cdgs[layer + 1]
                        for pid in movers:
                            chans = paths.path(pid)
                            cdg.remove_path(pid, chans)
                            nxt.add_path(pid, chans)
                            path_layers[pid] = layer + 1
                        cycles_broken += 1
                        paths_moved += len(movers)
                        m_cycles.inc()
                        m_evicted.inc()
                        m_moved.inc(len(movers))
                        hooks.cycle_broken(
                            layer=layer,
                            edge=edge,
                            paths_moved=len(movers),
                            heuristic=str(heuristic),
                        )
                sp.set_attr("paths", cdg.num_paths)
                sp.set_attr("edges", cdg.num_edges)
            hooks.layer_closed(layer=layer, paths=cdg.num_paths, edges=cdg.num_edges)
            layer += 1

    layers_needed = _compact(path_layers)
    if balance and layers_needed < max_layers:
        _balance_layers(path_layers, layers_needed, max_layers, pids=np.asarray(pids))
    return LayerAssignment(
        path_layers=path_layers,
        layers_needed=layers_needed,
        num_layers=max_layers,
        cycles_broken=cycles_broken,
        paths_moved=paths_moved,
        balanced=balance,
    )


def _compact(path_layers: np.ndarray) -> int:
    """Renumber layers densely (a middle layer can end up empty when all
    of its paths moved onward); returns the number of layers in use."""
    used = np.flatnonzero(np.bincount(path_layers))
    remap = np.zeros(int(used.max()) + 1 if len(used) else 1, dtype=np.int16)
    remap[used] = np.arange(len(used), dtype=np.int16)
    path_layers[:] = remap[path_layers]
    return len(used)


def assign_layers_online(
    paths: PathSet,
    max_layers: int = DEFAULT_MAX_LAYERS,
    balance: bool = False,
    pids=None,
) -> LayerAssignment:
    """Online variant: lowest acyclic layer per path, LASH-style.

    Functionally equivalent to the offline algorithm (both produce *some*
    acyclic cover) but much slower on large fabrics; kept for the §IV
    offline-vs-online comparison and as a cross-check in tests.
    """
    if max_layers < 1:
        raise ValueError(f"max_layers must be >= 1, got {max_layers}")
    fabric = paths.fabric
    path_layers = np.zeros(paths.num_paths, dtype=np.int16)
    if pids is None:
        pids = range(paths.num_paths)
    pids = [int(p) for p in pids]
    m_checks = get_registry().counter(
        "layers_online_cycle_checks", "per-path acyclicity probes of the online variant"
    )
    cdgs = [ChannelDependencyGraph(fabric)]
    with span("layers.assign_online", max_layers=max_layers):
        for pid in pids:
            check_budget()  # cooperative deadline (repro.service)
            tried = len(cdgs)
            layer = first_fit(cdgs, pid, paths.path(pid), f"path {pid}", max_layers=max_layers)
            m_checks.inc(min(layer + 1, tried))  # the existing layers probed
            path_layers[pid] = layer

    layers_needed = _compact(path_layers)
    if balance and layers_needed < max_layers:
        _balance_layers(path_layers, layers_needed, max_layers, pids=np.asarray(pids))
    return LayerAssignment(
        path_layers=path_layers,
        layers_needed=layers_needed,
        num_layers=max_layers,
        cycles_broken=0,
        paths_moved=0,
        balanced=balance,
    )


def _balance_layers(
    path_layers: np.ndarray, layers_needed: int, max_layers: int, pids: np.ndarray | None = None
) -> None:
    """Spread paths over unused layers (Algorithm 2's final step).

    Any subset of an acyclic layer is acyclic, so we repeatedly split the
    currently heaviest layer in half into the next empty layer — no
    additional cycle searches required, exactly as the paper notes.
    Only ``pids`` (the traffic-carrying paths) participate.
    """
    view = path_layers if pids is None else path_layers[pids]
    used = layers_needed
    while used < max_layers:
        hist = np.bincount(view, minlength=max_layers)
        heaviest = int(hist.argmax())
        if hist[heaviest] < 2:
            break  # nothing left worth splitting
        members = np.flatnonzero(view == heaviest)
        movers = members[len(members) // 2 :]
        view[movers] = used
        used += 1
    if pids is not None:
        path_layers[pids] = view
