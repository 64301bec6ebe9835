"""Parallel routing kernels and the process-pool execution layer.

``repro.parallel`` makes the SSSP/DFSSSP hot path scale without changing
a single output bit:

* :mod:`repro.parallel.kernel` — the vectorized (numpy) Dijkstra and BFS
  kernels;
* :mod:`repro.parallel.executor` — the process pool that sweeps one hop
  column per hop plan opened, in deterministic batches, only on request
  (``SSSPEngine(workers=N)`` / ``DFSSSPEngine(workers=N)``);
* :mod:`repro.parallel.reduction` — the exact reduction that replays the
  serial weight-update order and *proves* every column equal to the
  heap-Dijkstra reference's, falling back to a full Dijkstra otherwise:
  the engines' default step (``kernel="numpy"``).

The determinism contract and the worker model are documented in
``docs/parallel.md``; the differential suite in ``tests/parallel``
certifies every parallel path against the serial oracle on every
topology family.
"""

from repro.parallel.kernel import (
    KERNELS,
    dijkstra_to_dest_numpy,
    hops_to_dest,
    resolve_kernel,
)
from repro.parallel.reduction import ExactReduction


def __getattr__(name: str):
    # The pool (and with it multiprocessing) loads only when asked for:
    # the serial engines never import it.
    if name == "run_parallel_sssp":
        from repro.parallel.executor import run_parallel_sssp

        return run_parallel_sssp
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "KERNELS",
    "dijkstra_to_dest_numpy",
    "hops_to_dest",
    "resolve_kernel",
    "ExactReduction",
    "run_parallel_sssp",
]
