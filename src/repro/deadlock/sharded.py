"""Sharded CDG engine: Algorithm 2 eviction batched across independent SCCs.

The incremental engine (:mod:`repro.deadlock.incremental`) already makes
every per-layer step vectorized or delta-applied, but it still drains the
layer's strongly connected components strictly one after another. On
interconnect-scale fabrics a layer routinely condenses into *many*
non-trivial SCCs, and most of them share nothing: an eviction only
mutates state reachable from the paths it moves, so two components whose
inducing-path sets are disjoint can be drained in any order — or at the
same time — without observing each other.

This module makes that independence explicit and exploits it:

* **Sharding.** After the per-layer condensation, SCCs are merged into
  *shards* with a union–find over shared inducing paths: one occurrence
  scan over the layer's intra-SCC edges links every component touching a
  common path row. By construction, evicting any intra-shard edge moves
  only that shard's paths and therefore decrements only edges induced by
  them — never another shard's intra-SCC edges (their inducing paths are
  disjoint) — and the heuristics only read intra-cycle edge weights, so
  shards are mutually invisible.
* **Restricted replays.** Each shard is drained against a CDG built from
  just its own path rows. Intra-shard edges have identical weights there
  (all their inducing paths are in the shard), adjacency scans skip
  out-of-membership destinations regardless of liveness, and the drain
  walk, heuristic picks and evictions therefore replay the incremental
  engine's sequence for that shard *exactly*.
* **Optional process fan-out** (``workers >= 1``). Shards are
  embarrassingly parallel, so they can be dispatched to a fork pool —
  each worker builds its shard's restricted CDG and returns
  ``(movers, cycles broken)``; compute budgets are snapshotted into the
  tasks and re-armed worker-side like the SSSP executor does. With
  ``workers=0`` everything runs inline on the full layer CDG (then the
  restricted build is skipped — the full CDG *is* the restriction).

Bit-identity: per shard the eviction sequence equals the serial one, and
the engine only ever publishes order-insensitive aggregates — the union
of movers is sorted before becoming the next layer's membership, and
``cycles_broken``/``paths_moved`` are sums — so ``path_layers``,
``layers_needed``, ``cycles_broken`` and ``paths_moved`` all match
:func:`repro.deadlock.incremental.assign_layers_incremental` and the
rebuild reference exactly (``tests/deadlock/test_sharded.py`` proves it
across topology families, heuristics and worker counts). A layer
overflow (`InsufficientLayersError`) is equally deterministic: whichever
shard still holds a cycle when ``layer + 1 == max_layers`` raises the
same exception the serial engine would.
"""

from __future__ import annotations

import numpy as np

from repro.core.heuristics import get_heuristic
from repro.core.layers import (
    DEFAULT_MAX_LAYERS,
    LayerAssignment,
    _balance_layers,
    _compact,
)
from repro.deadlock.incremental import LayerCDG, eviction_counters
from repro.exceptions import InsufficientLayersError
from repro.obs import COUNT_BUCKETS, get_hooks, get_registry, span
from repro.routing.paths import PathSet
from repro.service.budget import compute_budget


def _shard_sccs(cdg: LayerCDG, sccs: list[set[int]]):
    """Partition ``sccs`` into shards with disjoint inducing-path sets.

    Returns ``[(sccs_of_shard, pid_rows_of_shard), ...]`` where the
    shard's SCCs keep the serial engine's ascending-min order and
    ``pid_rows`` indexes ``cdg.pids`` (sorted, unique: every path row
    inducing at least one intra-shard edge). Shards are ordered by their
    first SCC's minimum channel, i.e. the order the serial engine would
    first touch them.
    """
    n_ch = int(max(cdg.edge_src.max(), cdg.edge_dst.max())) + 1
    scc_of = np.full(n_ch, -1, dtype=np.int64)
    for si, comp in enumerate(sccs):
        scc_of[list(comp)] = si

    s_src = scc_of[cdg.edge_src]
    intra = cdg.alive & (s_src >= 0) & (s_src == scc_of[cdg.edge_dst])
    eids = np.flatnonzero(intra)
    counts = cdg.e_off[eids + 1] - cdg.e_off[eids]
    total = int(counts.sum())
    first = np.cumsum(counts) - counts
    rep = np.repeat(np.arange(len(eids)), counts)
    occ = np.repeat(cdg.e_off[eids], counts) + (np.arange(total) - first[rep])
    rows = cdg.e_rows[occ]  # inducing path row per intra-edge occurrence
    occ_scc = s_src[eids][rep]

    # Union-find over SCC ids: occurrences of the same path row link
    # every SCC that row induces an intra edge in.
    parent = list(range(len(sccs)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    order = np.argsort(rows, kind="stable")
    rows_s = rows[order]
    scc_s = occ_scc[order]
    run_start = 0
    for i in range(1, total + 1):
        if i == total or rows_s[i] != rows_s[run_start]:
            root = find(int(scc_s[run_start]))
            for j in range(run_start + 1, i):
                other = find(int(scc_s[j]))
                if other != root:
                    parent[other] = root
            run_start = i

    shard_sccs: dict[int, list[set[int]]] = {}
    for si in range(len(sccs)):
        shard_sccs.setdefault(find(si), []).append(sccs[si])
    shard_rows: dict[int, list[np.ndarray]] = {r: [] for r in shard_sccs}
    roots = np.fromiter((find(int(s)) for s in scc_s), dtype=np.int64, count=total)
    for root in shard_rows:
        shard_rows[root] = np.unique(rows_s[roots == root])

    shards = [
        (comps, shard_rows[root]) for root, comps in shard_sccs.items()
    ]
    shards.sort(key=lambda s: min(min(c) for c in s[0]))
    for comps, _ in shards:
        comps.sort(key=min)
    return shards


# ----------------------------------------------------------------------
# process fan-out
# ----------------------------------------------------------------------
_shard_ctx: dict = {}


def _init_shard_worker(paths: PathSet, heuristic: str, max_layers: int) -> None:
    _shard_ctx["paths"] = paths
    _shard_ctx["heuristic"] = heuristic
    _shard_ctx["max_layers"] = max_layers


def _drain_shard_task(comps, rows, layer: int, budget_s, budget_label: str):
    """Worker: restricted-CDG drain of one shard, under a deadline.

    Ships results (or the overflow/timeout) as plain data, like the SSSP
    executor's tasks.
    """
    from repro.exceptions import ComputeTimeoutError

    paths = _shard_ctx["paths"]

    def run():
        shard = LayerCDG(paths, np.asarray(rows, dtype=np.int64))
        cycles, _moved = shard.drain(
            comps, layer, _shard_ctx["max_layers"], _shard_ctx["heuristic"]
        )
        return shard.moved_pids(), cycles

    try:
        if budget_s is not None:
            with compute_budget(budget_s, label=budget_label):
                moved, cycles = run()
        else:
            moved, cycles = run()
        return ("ok", (moved, cycles))
    except InsufficientLayersError as err:
        return ("insufficient", (err.layers_available, err.layers_needed_at_least))
    except ComputeTimeoutError as err:
        return ("timeout", (str(err), err.label, err.limit_s, err.elapsed_s))


def assign_layers_sharded(
    paths: PathSet,
    max_layers: int = DEFAULT_MAX_LAYERS,
    heuristic: str = "weakest",
    balance: bool = True,
    pids=None,
    debug: bool = False,
    workers: int = 0,
) -> LayerAssignment:
    """Offline Algorithm 2, draining independent SCC shards per layer.

    Bit-identical to :func:`~repro.deadlock.incremental
    .assign_layers_incremental` (and hence the rebuild reference) for
    every heuristic and ``workers`` value; ``workers >= 1`` fans shard
    drains out over a process pool.
    """
    if max_layers < 1:
        raise ValueError(f"max_layers must be >= 1, got {max_layers}")
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    get_heuristic(heuristic)  # validate the name; LayerCDG.drain picks on edge ids
    path_layers = np.zeros(paths.num_paths, dtype=np.int16)
    if pids is None:
        pids = np.arange(paths.num_paths, dtype=np.int64)
    elif not isinstance(pids, np.ndarray):
        pids = np.fromiter(pids, dtype=np.int64)
    pids = np.unique(pids.astype(np.int64, copy=False))

    reg = get_registry()
    hooks = get_hooks()
    counters = eviction_counters(heuristic)  # registered (at 0) even when nothing cycles
    m_shards = reg.counter(
        "cdg_shards_drained", "independent SCC shards drained (sharded engine)"
    )
    h_edges = reg.histogram(
        "cdg_edges", "CDG edge count at cycle-search start", buckets=COUNT_BUCKETS
    )
    h_nodes = reg.histogram(
        "cdg_nodes", "CDG node (channel) count at cycle-search start",
        buckets=COUNT_BUCKETS,
    )

    cycles_broken = 0
    paths_moved = 0
    layer = 0
    members = pids
    with span("layers.assign_offline", heuristic=str(heuristic), max_layers=max_layers,
              cdg="sharded", workers=workers):
        while len(members):
            with span("layers.layer", layer=layer) as sp:
                with span("cdg.build", layer=layer, paths=len(members)):
                    cdg = LayerCDG(paths, members)
                h_edges.observe(cdg.num_edges)

                with span("cdg.certify", layer=layer):
                    sccs = cdg.condense()
                h_nodes.observe(cdg._num_nodes)

                pooled = None  # movers of a pool drain; inline ones stay in cdg
                if sccs:
                    shards = _shard_sccs(cdg, sccs)
                    sp.set_attr("shards", len(shards))
                    m_shards.inc(len(shards))
                    if workers >= 1 and len(shards) > 1:
                        pooled, broken = _drain_shards_pool(
                            paths, cdg, shards, heuristic, layer, max_layers, workers
                        )
                        cycles_broken += broken
                        paths_moved += len(pooled)
                        # workers drain on their own registries; edges_removed
                        # (the fourth counter) is not shipped back
                        for counter, n in zip(counters, (broken, broken, len(pooled))):
                            counter.inc(n)
                    else:
                        for comps, _rows in shards:
                            broken, moved = cdg.drain(
                                comps, layer, max_layers, heuristic, hooks=hooks, debug=debug
                            )
                            cycles_broken += broken
                            paths_moved += moved

                sp.set_attr("paths", cdg.num_paths)
                sp.set_attr("edges", cdg.num_edges)
            hooks.layer_closed(layer=layer, paths=cdg.num_paths, edges=cdg.num_edges)
            members = cdg.moved_pids() if pooled is None else pooled
            path_layers[members] = layer + 1
            layer += 1

    layers_needed = _compact(path_layers)
    if balance and layers_needed < max_layers:
        _balance_layers(path_layers, layers_needed, max_layers, pids=pids)
    return LayerAssignment(
        path_layers=path_layers,
        layers_needed=layers_needed,
        num_layers=max_layers,
        cycles_broken=cycles_broken,
        paths_moved=paths_moved,
        balanced=balance,
    )


def _drain_shards_pool(
    paths: PathSet,
    cdg: LayerCDG,
    shards,
    heuristic: str,
    layer: int,
    max_layers: int,
    workers: int,
):
    """Fan shard drains out over a fork pool; returns the movers
    (ascending pids) and the cycles broken.

    Restricted CDGs are built worker-side from the shard's path rows
    (mapped back to real pids so the worker's ``LayerCDG`` indexes the
    same paths). Overflows and timeouts ship back as data and re-raise
    here, preserving serial semantics.
    """
    from repro.exceptions import ComputeTimeoutError
    from repro.parallel.executor import _budget_snapshot, _mp_context

    ctx = _mp_context()
    budget_s, label = _budget_snapshot()
    moved_out: list[np.ndarray] = []
    broken = 0
    with ctx.Pool(
        min(workers, len(shards)),
        initializer=_init_shard_worker,
        initargs=(paths, heuristic, max_layers),
    ) as pool:
        handles = [
            pool.apply_async(
                _drain_shard_task,
                (
                    [sorted(c) for c in comps],
                    cdg.pids[rows].tolist(),  # rows -> real pids
                    layer,
                    budget_s,
                    label,
                ),
            )
            for comps, rows in shards
        ]
        for handle in handles:
            status, payload = handle.get()
            if status == "insufficient":
                available, needed = payload
                raise InsufficientLayersError(
                    f"cycles remain after filling all {max_layers} layers",
                    layers_available=available,
                    layers_needed_at_least=needed,
                )
            if status == "timeout":
                message, tlabel, limit_s, elapsed_s = payload
                raise ComputeTimeoutError(
                    f"shard worker: {message}",
                    label=tlabel, limit_s=limit_s, elapsed_s=elapsed_s,
                )
            moved, cycles = payload
            moved_out.append(moved)
            broken += cycles
    return np.sort(np.concatenate(moved_out)), broken
