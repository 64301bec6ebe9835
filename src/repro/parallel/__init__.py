"""Parallel routing kernels and the thread-pool execution layer.

``repro.parallel`` makes the SSSP/DFSSSP hot path scale without changing
a single output bit:

* :mod:`repro.parallel.kernel` — the vectorized (numpy) Dijkstra and BFS
  kernels;
* :mod:`repro.parallel.reduction` — the exact reduction that replays the
  serial weight-update order and *proves* every column equal to the
  heap-Dijkstra reference's, falling back to a full Dijkstra otherwise:
  the engines' default step (``kernel="numpy"``);
* :mod:`repro.parallel.executor` — the thread pool that sweeps each
  block's hop rows for that step, only on request
  (``SSSPEngine(workers=N)`` / ``DFSSSPEngine(workers=N)``) and only
  then imported.

The determinism contract and the worker model are documented in
``docs/parallel.md``; the differential suite in ``tests/parallel``
certifies every parallel path against the serial oracle on every
topology family.
"""

from repro.parallel.kernel import dijkstra_to_dest_numpy, hops_to_dest
from repro.parallel.reduction import ExactReduction

__all__ = [
    "dijkstra_to_dest_numpy",
    "hops_to_dest",
    "ExactReduction",
]
