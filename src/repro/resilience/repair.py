"""Incremental repair: splice a prior routing onto a degraded fabric.

A full DFSSSP recompute after every dead cable is the scaling wall of
fail-in-place operation — the subnet stalls for the whole reroute even
though one link failure typically invalidates a handful of destination
columns. :func:`repair_routing` instead

1. translates the surviving forwarding entries onto the degraded fabric
   (node and channel ids are renumbered by the rebuild; the
   :class:`~repro.network.faults.DegradedFabric` maps drive the splice),
2. re-routes *only* the destinations whose columns lost an entry — with
   the engine's own ``kernel``, so the default pays the fused, validated
   step of :mod:`repro.parallel.reduction` per column (the hop plans of
   all affected attachment switches built in one block) instead of a
   heap Dijkstra — reusing the surviving
   balancing weights so the repaired routes stay globally balanced and
   hop-minimal (the §II weight argument is unaffected: total accumulated
   weight stays below ``W0``),
3. re-verifies deadlock-freedom incrementally: the untouched paths keep
   their virtual layers (any subset of an acyclic CDG is acyclic), and
   each repaired path goes back into its old layer first. One array
   check of all layers settles the common case where every path fits
   there; only when some layer comes out cyclic are the repaired paths
   re-inserted one at a time, escalating to another layer where staying
   put would re-introduce a cycle.

If the repaired paths exhaust the layer budget the
:class:`~repro.exceptions.InsufficientLayersError` propagates and the
engines fall back to a full DFSSSP run — correctness never depends on the
repair succeeding.
"""

from __future__ import annotations

import numpy as np

from repro.core.sssp import DEFAULT_KERNEL
from repro.deadlock.cdg import first_fit
from repro.deadlock.verify import build_layer_cdgs, verify_deadlock_free
from repro.exceptions import RepairError, RoutingError
from repro.network.faults import DegradedFabric
from repro.network.validate import check_routable
from repro.obs import DURATION_BUCKETS, RATIO_BUCKETS, get_registry, span
from repro.parallel.reduction import column_routine
from repro.routing.base import LayeredRouting, RoutingResult, RoutingTables
from repro.routing.paths import extract_paths
from repro.service.budget import check_budget


def count_fallback(engine: str, reason: str = "") -> None:
    """Record that an engine abandoned incremental repair for a full run."""
    get_registry().counter(
        "repair_full_fallbacks",
        "incremental repairs abandoned in favour of a full reroute",
        engine=engine,
        reason=reason,
    ).inc()


def _check_degradation(prior: RoutingResult, degraded: DegradedFabric) -> None:
    old = prior.tables.fabric
    new = degraded.fabric
    if degraded.channel_map is None:
        raise RepairError("degradation carries no channel map; rebuild it via repro.network.faults")
    if len(degraded.node_map) != old.num_nodes or len(degraded.channel_map) != old.num_channels:
        raise RepairError("degradation does not derive from the routed fabric")
    if new.num_terminals != old.num_terminals:
        raise RepairError(
            f"terminal population changed ({old.num_terminals} -> {new.num_terminals}); "
            "incremental repair keeps destinations fixed"
        )
    if int(np.count_nonzero(degraded.channel_map >= 0)) != new.num_channels:
        raise RepairError("fabric gained channels (link-up); a full reroute is required")
    if not np.array_equal(degraded.node_map[old.terminals], new.terminals):
        raise RepairError("terminal renumbering is not order-preserving")


def translate_tables(prior: RoutingResult, degraded: DegradedFabric):
    """Map the prior forwarding tables onto the degraded fabric.

    Returns ``(next_channel, affected)`` where ``next_channel`` has the
    degraded fabric's shape with dead entries as -1, and ``affected`` is
    the sorted array of destination terminal indices whose column lost at
    least one entry (these must be re-routed; all other columns are
    complete, loop-free and still hop-minimal — removing edges can only
    grow the BFS distance, and the surviving path's length bounds it from
    above).
    """
    old = prior.tables.fabric
    new = degraded.fabric
    nmap = degraded.node_map
    surviving = np.flatnonzero(nmap >= 0)
    old_rows = prior.tables.next_channel[surviving]
    # Old channel id -> new id, with -1 (no entry) indexing the appended -1.
    lookup = np.append(degraded.channel_map, -1).astype(np.int32)
    mapped = lookup[old_rows]
    next_channel = np.full((new.num_nodes, old.num_terminals), -1, dtype=np.int32)
    next_channel[nmap[surviving]] = mapped
    entry_died = (old_rows >= 0) & (mapped < 0)
    affected = np.flatnonzero(entry_died.any(axis=0))
    return next_channel, affected


def _translate_weights(prior: RoutingResult, degraded: DegradedFabric) -> np.ndarray:
    new = degraded.fabric
    w0 = new.num_terminals * new.num_terminals + 1
    weights = np.full(new.num_channels, w0, dtype=np.int64)
    if prior.channel_weights is not None:
        cmap = degraded.channel_map
        alive = np.flatnonzero(cmap >= 0)
        weights[cmap[alive]] = prior.channel_weights[alive]
    return weights


def _translate_layers(
    prior: RoutingResult, degraded: DegradedFabric
) -> np.ndarray:
    """Old path-layer assignment reshaped onto the surviving switches.

    The pid layout is destination-major (``t_idx * S + s_idx``) and the
    rebuild preserves node order, so surviving switches keep their rank.
    Layers of repaired columns remain as a first-choice guess for the
    re-insertion step.
    """
    old = prior.tables.fabric
    new = degraded.fabric
    T = old.num_terminals
    alive_sw = degraded.node_map[old.switches] >= 0
    old_mat = prior.layered.path_layers.reshape(T, old.num_switches)
    new_mat = old_mat[:, alive_sw]
    if new_mat.shape[1] != new.num_switches:  # pragma: no cover - map invariant
        raise RepairError("switch survivor count does not match the degraded fabric")
    return np.ascontiguousarray(new_mat).reshape(-1).astype(np.int16)


def repair_routing(
    prior: RoutingResult,
    degraded: DegradedFabric,
    *,
    engine_name: str | None = None,
    kernel: str = DEFAULT_KERNEL,
) -> RoutingResult:
    """Incrementally repair ``prior`` for ``degraded.fabric``.

    ``kernel`` is the engine's per-destination kernel
    (:data:`repro.core.sssp.KERNELS`); every kernel yields the same
    columns and weights.

    Raises :class:`~repro.exceptions.RepairError` when the degradation
    cannot be spliced (foreign fabric, link-up, terminals lost) and
    :class:`~repro.exceptions.InsufficientLayersError` when the repaired
    paths fit no virtual layer; both make the engines fall back to a full
    reroute. On success the result mirrors a full engine run: complete
    tables, a verified layer assignment (if ``prior`` had one) and the
    carried-forward balancing weights.
    """
    _check_degradation(prior, degraded)
    new = degraded.fabric
    check_routable(new)
    engine = engine_name or prior.tables.engine
    T = new.num_terminals

    reg = get_registry()
    m_repaired = reg.counter(
        "repair_destinations_recomputed", "destination columns re-routed by incremental repair"
    )
    m_total = reg.counter(
        "repair_destinations_total", "destination columns examined by incremental repair"
    )
    m_escal = reg.counter(
        "repair_escalations", "repaired paths moved off their old virtual layer"
    )
    h_seconds = reg.histogram(
        "repair_seconds", "wall time per incremental repair", buckets=DURATION_BUCKETS
    )
    h_fraction = reg.histogram(
        "repair_fraction", "share of destinations recomputed per repair", buckets=RATIO_BUCKETS
    )

    with span("repair.incremental", engine=engine) as sp:
        with span("repair.translate"):
            next_channel, affected = translate_tables(prior, degraded)
            weights = _translate_weights(prior, degraded)

        step, _ = column_routine(new, kernel, engine, new.terminals[affected])
        with span("repair.dijkstra", destinations=len(affected)):
            for t_idx in affected:
                check_budget()  # cooperative deadline (repro.service)
                dest = int(new.terminals[t_idx])
                next_channel[:, t_idx] = step(dest, weights)

        tables = RoutingTables(new, next_channel, engine=engine)
        # Doubles as the reachability check: raises on any missing entry.
        paths = extract_paths(tables)

        layered = None
        escalations = 0
        if prior.layered is not None:
            with span("repair.layers"):
                layered, escalations = _repair_layers(prior, degraded, tables, paths, affected)

        m_repaired.inc(len(affected))
        m_total.inc(T)
        m_escal.inc(escalations)
        h_fraction.observe(len(affected) / T if T else 0.0)
        sp.set_attr("destinations_repaired", int(len(affected)))
        sp.set_attr("escalations", escalations)
    h_seconds.observe(sp.duration)

    stats = {
        "engine": engine,
        "repair": {
            "destinations_repaired": int(len(affected)),
            "destinations_total": int(T),
            "escalations": int(escalations),
            "fraction": float(len(affected) / T) if T else 0.0,
            "time_repair_s": sp.duration,
        },
    }
    if layered is not None:
        stats["layers_used"] = layered.layers_used
    return RoutingResult(
        tables=tables,
        layered=layered,
        deadlock_free=layered is not None,
        stats=stats,
        channel_weights=weights,
    )


def _repair_layers(
    prior: RoutingResult,
    degraded: DegradedFabric,
    tables: RoutingTables,
    paths,
    affected: np.ndarray,
) -> tuple[LayeredRouting, int]:
    """Re-verify the virtual layers after splicing repaired columns.

    Surviving paths keep their layers (subsets of acyclic CDGs stay
    acyclic) and every repaired path is first tried in its old layer, all
    at once: if one full acyclicity check of that assignment passes, the
    one-at-a-time insertion would have placed every path exactly there
    (each of its intermediate CDGs is a subset of an acyclic one), so the
    check is both the insertion and the final verification. Only when
    some layer is cyclic does :func:`_insert_sequentially` run.
    """
    L = prior.layered.num_layers
    layered = LayeredRouting(tables, _translate_layers(prior, degraded), L)
    if verify_deadlock_free(layered, paths).deadlock_free:
        return layered, 0
    escalations = _insert_sequentially(layered, paths, affected)
    report = verify_deadlock_free(layered, paths)
    if not report.deadlock_free:  # pragma: no cover - insertion guarantees this
        raise RoutingError(
            f"incremental repair produced a cyclic layer: {sorted(report.cycles)}"
        )
    return layered, escalations


def _insert_sequentially(layered: LayeredRouting, paths, affected: np.ndarray) -> int:
    """Re-insert the repaired paths one at a time; returns the escalations.

    Each repaired traffic-carrying path starts at its old layer and
    escalates — old layer upward, then the remaining lower layers — only
    when an insertion would close a cycle. ``layered.path_layers`` is
    updated in place.
    """
    new = layered.fabric
    L = layered.num_layers
    path_layers = layered.path_layers

    affected_col = np.zeros(new.num_terminals, dtype=bool)
    affected_col[affected] = True
    active = paths.active_pids()
    is_repaired = affected_col[active // new.num_switches]
    kept = active[~is_repaired]
    repaired = active[is_repaired]

    cdgs = build_layer_cdgs(layered, paths, pids=kept)

    escalations = 0
    for pid in map(int, repaired):
        check_budget()  # cooperative deadline (repro.service)
        guess = int(path_layers[pid])
        order = (guess, *range(guess + 1, L), *range(guess))
        placed = first_fit(cdgs, pid, paths.path(pid), f"repaired path {pid}", order)
        if placed != guess:
            escalations += 1
            path_layers[pid] = placed
    return escalations
