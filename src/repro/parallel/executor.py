"""Process-pool execution layer for SSSP/DFSSSP routing.

The fan-out/reduce split mirrors how per-destination routing
parallelizes in practice (cf. the Angara graph-routing work): what can
run concurrently is exactly the *weight-independent* part of each
destination's column. Workers therefore compute **hop columns** —
minimum hop counts toward a destination, which no balancing update
can invalidate — while the parent performs the weight-dependent
step (refine, validate, weight update) serially, in the engine's fixed
destination order, through
:meth:`repro.parallel.reduction.ExactReduction.step`. One hop column
opens one *hop plan*, and single-homed terminals on one switch share
theirs, so a sweep is fanned out only for the first destination of each
such switch and for every destination that shares nothing — not one per
destination. Validation with Dijkstra fallback makes the combined
result bit-identical to the serial engine on every fabric, which
``tests/parallel`` asserts property-based and per topology family.

Scheduling is deterministic: the ordered destination list is cut into
fixed-size batches, each batch's sweeps into per-worker contiguous
chunks, and results are consumed in submission order — worker count and OS
scheduling can change timing only, never output. Batch ``b+1`` is
dispatched before batch ``b`` is reduced, so workers stay busy while the
parent reduces.

Workers get the fabric once, as the pool initializer's argument, and
return their hop columns as the task result. One int32 column per plan
opened is a few megabytes per route (168 columns, 1.7 MB, on the
2 352-terminal ``xgft(3,(14,14,12),(1,4,4))``).

Compute budgets (:mod:`repro.service.budget`) are context-local and do
not cross process boundaries, so the parent snapshots the active
budget's remaining seconds into every task; workers re-arm an equivalent
deadline and poll it from the kernels' inner loops. A worker-side
:class:`~repro.exceptions.ComputeTimeoutError` is shipped back as a
plain tuple and re-raised in the parent, preserving the supervisor's
escalation semantics end to end.

Observability: one ``parallel.run`` span per engine run, one
``parallel.batch`` span per batch — and, when a sink is live, one
``parallel.hop_column`` span per sweep *inside each worker
process*, captured there and replayed re-parented under the consuming
batch span (see :mod:`repro.obs.telemetry`; the shipped carrier's
``capture`` flag keeps workers span-free when nobody is tracing) —
plus ``routing_parallel_*`` metrics
(workers, batches, columns, validation fallbacks, worker timeouts,
per-batch wall time) — see ``docs/observability.md``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from collections.abc import Sequence
from contextlib import nullcontext

import numpy as np

from repro.core.sssp import DEFAULT_KERNEL
from repro.exceptions import ComputeTimeoutError
from repro.network.fabric import Fabric
from repro.obs import DURATION_BUCKETS, get_registry, span
from repro.obs.telemetry import capture_spans, export_context, replay_spans
from repro.parallel.kernel import hops_to_dest
from repro.parallel.reduction import ExactReduction
from repro.service.budget import active_budget, check_budget, compute_budget

#: default destinations per batch, per worker (batches of ``4 * workers``).
BATCH_COLUMNS_PER_WORKER = 4

# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
_worker_fabric: Fabric | None = None


def _init_worker(fabric: Fabric) -> None:
    """Pool initializer: keep the fabric for this worker's tasks (``fork``
    inherits it, ``spawn`` unpickles it once per worker)."""
    global _worker_fabric
    _worker_fabric = fabric


def _hop_columns_task(dests: Sequence[int], budget_s, budget_label: str,
                      carrier: dict | None = None):
    """Sweep a chunk of destinations' hop columns, under a deadline.

    Returns ``("ok", columns, records)`` — ``columns`` holds one
    :func:`~repro.parallel.kernel.hops_to_dest` array per destination, in
    ``dests`` order — or ``("timeout", info, records)``: shipping the
    timeout as data keeps the payload picklable regardless of how the
    exception type evolves. ``records`` are the worker's captured span
    dicts (one ``parallel.hop_column`` per column, stamped with the
    shipped request id and this worker's pid) when the ``carrier`` asks
    for capture, else empty; the parent replays them re-parented under
    its ``parallel.batch`` span. A timed-out chunk still ships what it
    captured — the aborted column's span arrives with ``status="error"``
    and explains the timeout.
    """
    capture = bool(carrier and carrier.get("capture"))
    ctx = capture_spans(carrier) if capture else nullcontext()
    records: list[dict] = []

    def sweep() -> list[np.ndarray]:
        columns = []
        for dest in dests:
            if capture:
                with span("parallel.hop_column", dest=int(dest), pid=os.getpid()):
                    columns.append(hops_to_dest(_worker_fabric, int(dest)))
            else:
                columns.append(hops_to_dest(_worker_fabric, int(dest)))
        return columns

    with ctx as sink:
        if capture:
            records = sink.records
        try:
            if budget_s is not None:
                with compute_budget(budget_s, label=budget_label):
                    return ("ok", sweep(), records)
            return ("ok", sweep(), records)
        except ComputeTimeoutError as err:
            return ("timeout", (str(err), err.label, err.limit_s, err.elapsed_s), records)


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
def _mp_context():
    """Fork when the platform has it (workers inherit the fabric), spawn
    otherwise (each worker unpickles it once)."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context("spawn")


def _chunks(items: list, n: int) -> list[list]:
    """Split ``items`` into at most ``n`` contiguous, near-equal chunks."""
    n = max(1, min(n, len(items)))
    size, extra = divmod(len(items), n)
    out, start = [], 0
    for i in range(n):
        end = start + size + (1 if i < extra else 0)
        out.append(items[start:end])
        start = end
    return out


def _budget_snapshot():
    """(remaining seconds, label) of the active budget, for worker re-arm."""
    budget = active_budget()
    if budget is None or budget.deadline is None:
        return None, "compute"
    return budget.remaining(), budget.label


def run_parallel_sssp(
    fabric: Fabric,
    *,
    workers: int,
    kernel: str = DEFAULT_KERNEL,
    batch: int | None = None,
    engine_name: str = "sssp",
):
    """Parallel SSSP: fan out hop sweeps, reduce exactly in terminal order.

    Returns ``(next_channel, weights)`` bit-identical to
    :meth:`repro.core.sssp.SSSPEngine._run` on the same fabric.
    ``kernel`` names the Dijkstra a column falls back to when its
    validation fails — workers always sweep BFS hops, which no kernel
    choice can change. ``batch`` (destinations per batch, default
    ``4 * workers``) affects scheduling and span granularity only.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    T = fabric.num_terminals
    w0 = T * T + 1
    weights = np.full(fabric.num_channels, w0, dtype=np.int64)
    next_channel = np.full((fabric.num_nodes, T), -1, dtype=np.int32)

    reg = get_registry()
    reg.gauge(
        "routing_parallel_workers", "process-pool size of the last parallel run",
        engine=engine_name,
    ).set(workers)
    m_batches = reg.counter(
        "routing_parallel_batches", "destination batches reduced", engine=engine_name
    )
    m_columns = reg.counter(
        "routing_parallel_columns",
        "hop columns swept by workers (one per hop plan opened)", engine=engine_name,
    )
    m_timeouts = reg.counter(
        "routing_parallel_worker_timeouts",
        "worker tasks aborted by the polled compute deadline",
        engine=engine_name,
    )
    m_seconds = reg.histogram(
        "routing_parallel_batch_seconds", "wall time per fan-out/reduce batch",
        buckets=DURATION_BUCKETS,
    )
    m_sources = reg.counter(
        "sssp_sources_routed", "destination terminals routed (one Dijkstra each)"
    )
    m_updates = reg.counter(
        "sssp_edge_weight_updates", "per-channel weight increments applied after Dijkstras"
    )
    m_dijkstra = reg.histogram(
        "sssp_dijkstra_seconds", "wall time per single-destination Dijkstra",
        buckets=DURATION_BUCKETS,
    )

    jobs = list(enumerate(fabric.terminals.tolist()))
    batch_size = batch or workers * BATCH_COLUMNS_PER_WORKER
    if batch_size < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    batches = [jobs[i : i + batch_size] for i in range(0, len(jobs), batch_size)]
    reduction = ExactReduction(fabric, kernel, engine_name)
    opened: set[int] = set()  # switches whose shared plan has a sweep under way

    def sweeps_needed(batch_jobs: list) -> list[tuple[int, int]]:
        """``(dest, row)`` of the batch's destinations that need a hop
        sweep (:meth:`ExactReduction.needs_plan`)."""
        candidates = ((row, dest) for row, (_, dest) in enumerate(batch_jobs))
        return [(dest, row) for row, dest in reduction.needs_plan(candidates, opened)]

    with span(
        "parallel.run",
        engine=engine_name,
        workers=workers,
        kernel=kernel,
        destinations=int(T),
        batches=len(batches),
    ) as run_sp:
        if not batches:
            return next_channel, weights
        ctx = _mp_context()
        with ctx.Pool(workers, initializer=_init_worker, initargs=(fabric,)) as pool:
            handles: list = [None] * len(batches)

            def dispatch(index: int) -> None:
                """Fan out the sweeps of batch ``index`` as
                ``(chunk, result)`` pairs; a batch served entirely from
                cached plans sends the workers nothing."""
                if index >= len(batches):
                    return
                budget_s, label = _budget_snapshot()
                carrier = export_context()
                handles[index] = []
                for chunk in _chunks(sweeps_needed(batches[index]), workers):
                    if not chunk:
                        continue
                    handles[index].append((chunk, pool.apply_async(
                        _hop_columns_task,
                        ([dest for dest, _ in chunk], budget_s, label, carrier),
                    )))

            dispatch(0)
            for index, batch_jobs in enumerate(batches):
                dispatch(index + 1)  # keep workers busy while reducing
                with span(
                    "parallel.batch", engine=engine_name, batch=index,
                    columns=len(batch_jobs),
                ) as sp:
                    hops_of: dict[int, np.ndarray] = {}  # batch row -> hop column
                    for chunk, handle in handles[index]:
                        status, payload, records = handle.get()
                        # Re-parent the worker's captured spans under this
                        # batch span (even for a timed-out chunk — its
                        # error span is the explanation).
                        replay_spans(records)
                        if status == "timeout":
                            message, label, limit_s, elapsed_s = payload
                            m_timeouts.inc()
                            raise ComputeTimeoutError(
                                f"parallel worker: {message}",
                                label=label, limit_s=limit_s, elapsed_s=elapsed_s,
                            )
                        hops_of.update(zip([row for _, row in chunk], payload))
                    handles[index] = None  # free the batch's column memory
                    sp.set_attr("sweeps", len(hops_of))
                    plan_of = {}  # batch row -> hop plan, bucketed in one pass
                    if hops_of:
                        rows = list(hops_of)
                        plan_of = dict(zip(rows, reduction.build_plans(
                            [batch_jobs[row][1] for row in rows],
                            np.stack([hops_of[row] for row in rows]))))
                    for row, (t_idx, dest) in enumerate(batch_jobs):
                        check_budget()  # parent-side deadline between columns
                        t0 = time.perf_counter()
                        parent = reduction.step(dest, weights, plan_of.get(row))
                        next_channel[:, t_idx] = parent
                        m_sources.inc()
                        m_updates.inc(int(np.count_nonzero(parent >= 0)))
                        m_dijkstra.observe(time.perf_counter() - t0)
                m_batches.inc()
                m_columns.inc(len(hops_of))
                reduction.counts["sweeps"] += len(hops_of)
                m_seconds.observe(sp.duration)
            for key, value in reduction.counts.items():
                run_sp.set_attr(key, value)
    return next_channel, weights
