"""Thread-pool execution layer: a parallel :func:`~repro.parallel.kernel.hop_rows`.

Algorithm 1 is serial in its weights: destination *t*'s column depends
on every weight update before it. What can run concurrently is exactly
the *weight-independent* part — the hop levels toward a plan's root
(cf. the Angara graph-routing work). So the pool does one thing: it
sweeps the hop rows of one block of roots. ``SSSPEngine(workers=N)``
opens one pool for its route (:func:`pool_sweep`) and hands it to
:class:`~repro.parallel.reduction.ExactReduction` in place of
``hop_rows``; which roots form a block, plan building and caching,
refine / validate / advance, the metrics, the ``sssp.hop_block`` span
and the budget poll between columns are the serial engine's own loop,
unchanged.

Scheduling is deterministic: a block's roots are cut into at most
``workers`` contiguous chunks, one task each, and the rows come back
concatenated in root order — worker count and OS scheduling can change
timing only, never output.

The workers are threads of the routing process: they read the fabric
and its switch graph (built before the first fan-out) and write only
the rows they return. Each chunk runs in a copy of the calling
context, so the route's compute budget (:mod:`repro.service.budget`)
is polled from ``hop_rows``' level loop and a timeout surfaces through
``Future.result()`` as the route's own
:class:`~repro.exceptions.ComputeTimeoutError`; and each chunk's
``parallel.hop_rows`` span is an ordinary span parented under the
block's ``sssp.hop_block`` span. The pool's threads are joined when the
route ends, however it ends.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from contextvars import copy_context

import numpy as np

from repro.network.fabric import Fabric
from repro.obs import get_registry, span
from repro.parallel.kernel import _switch_graph, hop_rows


def _chunk_rows(fabric: Fabric, roots: np.ndarray) -> np.ndarray:
    with span("parallel.hop_rows", roots=roots.tolist(),
              thread=threading.current_thread().name):
        return hop_rows(fabric, roots)


@contextmanager
def pool_sweep(fabric: Fabric, workers: int, engine_name: str = "sssp"):
    """An ``N``-thread :func:`hop_rows` over ``fabric``, for one route.

    Yields ``sweep(fabric, roots)``, a drop-in for ``hop_rows`` on this
    fabric: the roots are cut into at most ``workers`` contiguous chunks,
    each thread sweeps one, and the rows are concatenated in order. No
    thread outlives the ``with``.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    get_registry().gauge(
        "routing_parallel_workers", "thread-pool size of the last parallel run",
        engine=engine_name,
    ).set(workers)
    _switch_graph(fabric)  # built once here: the threads only read it

    with ThreadPoolExecutor(workers, thread_name_prefix="hop_rows") as pool:
        def sweep(_fabric: Fabric, roots) -> np.ndarray:
            roots = np.asarray(roots, dtype=np.int64).reshape(-1)
            chunks = np.array_split(roots, max(1, min(workers, len(roots))))
            tasks = [pool.submit(copy_context().run, _chunk_rows, fabric, chunk)
                     for chunk in chunks]
            return np.concatenate([task.result() for task in tasks])

        yield sweep
