"""Process-pool execution layer: a parallel :func:`~repro.parallel.kernel.hop_rows`.

Algorithm 1 is serial in its weights: destination *t*'s column depends
on every weight update before it. What can run concurrently is exactly
the *weight-independent* part — the hop levels toward a plan's root
(cf. the Angara graph-routing work). So the pool does one thing: it
sweeps the hop rows of one block of roots. ``SSSPEngine(workers=N)``
opens one pool for its route (:func:`pool_sweep`) and hands it to
:class:`~repro.parallel.reduction.ExactReduction` in place of
``hop_rows``; which roots form a block, plan building and caching,
refine / validate / advance, the metrics and the budget poll between
columns are the serial engine's own loop, unchanged.

Scheduling is deterministic: a block's roots are cut into at most
``workers`` contiguous chunks, one task each, and the rows come back
concatenated in root order — worker count and OS scheduling can change
timing only, never output.

Workers get the fabric once, as the pool initializer's argument, and
return their hop rows as the task result. The pool starts with the
first sweep (a route whose budget is already spent never starts it) and
is torn down when the route ends, however it ends.

Compute budgets (:mod:`repro.service.budget`) are context-local and do
not cross process boundaries, so the parent snapshots the active
budget's remaining seconds into every task; workers re-arm an equivalent
deadline and poll it from ``hop_rows``' level loop. A worker-side
:class:`~repro.exceptions.ComputeTimeoutError` is shipped back as a
plain tuple and re-raised in the parent, preserving the supervisor's
escalation semantics end to end.

Observability: one ``parallel.sweep`` span per block and, when a sink is
live, one ``parallel.hop_rows`` span per chunk *inside each worker
process*, captured there and replayed re-parented under the block's
``parallel.sweep`` span (see :mod:`repro.obs.telemetry`; the shipped
carrier's ``capture`` flag keeps workers span-free when nobody is
tracing) — plus ``routing_parallel_{workers,columns,worker_timeouts}``
(see ``docs/observability.md``).
"""

from __future__ import annotations

import multiprocessing
import os
from contextlib import contextmanager, nullcontext

import numpy as np

from repro.exceptions import ComputeTimeoutError
from repro.network.fabric import Fabric
from repro.obs import get_registry, span
from repro.obs.telemetry import capture_spans, export_context, replay_spans
from repro.parallel.kernel import hop_rows
from repro.service.budget import active_budget, compute_budget

# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
_worker_fabric: Fabric | None = None


def _init_worker(fabric: Fabric) -> None:
    """Pool initializer: keep the fabric for this worker's tasks (``fork``
    inherits it, ``spawn`` unpickles it once per worker)."""
    global _worker_fabric
    _worker_fabric = fabric


def _hop_rows_task(roots: np.ndarray, budget_s, budget_label: str,
                   carrier: dict | None = None):
    """Sweep one chunk of roots' hop rows, under a deadline.

    Returns ``("ok", rows, records)`` — ``rows`` is :func:`hop_rows` of
    ``roots``, in ``roots`` order — or ``("timeout", info, records)``:
    shipping the timeout as data keeps the payload picklable regardless
    of how the exception type evolves. ``records`` are the worker's
    captured span dicts (one ``parallel.hop_rows``, stamped with the
    shipped request id and this worker's pid) when the ``carrier`` asks
    for capture, else empty; the parent replays them re-parented under
    its ``parallel.sweep`` span. A timed-out chunk still ships what it
    captured — its span arrives with ``status="error"`` and explains the
    timeout.
    """
    capture = bool(carrier and carrier.get("capture"))
    with capture_spans(carrier) if capture else nullcontext() as sink:
        records = sink.records if capture else []
        budget = (compute_budget(budget_s, label=budget_label)
                  if budget_s is not None else nullcontext())
        traced = (span("parallel.hop_rows", roots=roots.tolist(), pid=os.getpid())
                  if capture else nullcontext())
        try:
            with budget, traced:
                return ("ok", hop_rows(_worker_fabric, roots), records)
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


def _budget_snapshot():
    """(remaining seconds, label) of the active budget, for worker re-arm."""
    budget = active_budget()
    if budget is None or budget.deadline is None:
        return None, "compute"
    return budget.remaining(), budget.label


@contextmanager
def pool_sweep(fabric: Fabric, workers: int, engine_name: str = "sssp"):
    """An ``N``-process :func:`hop_rows` over ``fabric``, for one route.

    Yields ``sweep(fabric, roots)``, a drop-in for ``hop_rows`` on this
    fabric: the roots are cut into at most ``workers`` contiguous chunks,
    each worker sweeps one, and the rows are concatenated in order. The
    pool starts with the first call and no worker outlives the ``with``.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    reg = get_registry()
    reg.gauge(
        "routing_parallel_workers", "process-pool size of the last parallel run",
        engine=engine_name,
    ).set(workers)
    m_rows = reg.counter(
        "routing_parallel_columns",
        "hop rows swept by workers (one per hop plan opened)", engine=engine_name,
    )
    m_timeouts = reg.counter(
        "routing_parallel_worker_timeouts",
        "worker tasks aborted by the polled compute deadline",
        engine=engine_name,
    )
    pool = None
    blocks = 0

    def sweep(_fabric: Fabric, roots) -> np.ndarray:
        nonlocal pool, blocks
        if pool is None:
            pool = _mp_context().Pool(workers, initializer=_init_worker, initargs=(fabric,))
        roots = np.asarray(roots, dtype=np.int64).reshape(-1)
        chunks = np.array_split(roots, max(1, min(workers, len(roots))))
        with span("parallel.sweep", engine=engine_name, block=blocks, rows=len(roots),
                  chunks=len(chunks)):
            budget_s, label = _budget_snapshot()
            carrier = export_context()
            tasks = [pool.apply_async(_hop_rows_task, (chunk, budget_s, label, carrier))
                     for chunk in chunks]
            rows = []
            for task in tasks:
                status, payload, records = task.get()
                # Re-parent the worker's captured span under this sweep
                # (even for a timed-out chunk: its error span explains it).
                replay_spans(records)
                if status == "timeout":
                    message, label, limit_s, elapsed_s = payload
                    m_timeouts.inc()
                    raise ComputeTimeoutError(
                        f"parallel worker: {message}",
                        label=label, limit_s=limit_s, elapsed_s=elapsed_s,
                    )
                rows.append(payload)
        blocks += 1
        m_rows.inc(len(roots))
        return np.concatenate(rows)

    try:
        yield sweep
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()
