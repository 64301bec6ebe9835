"""The vectorized routing kernels and the exact Algorithm-1 step.

* :mod:`repro.parallel.kernel` — the vectorized (numpy) Dijkstra and BFS
  kernels, exported here;
* :mod:`repro.parallel.reduction` — the exact reduction that replays the
  serial weight-update order and *proves* every column equal to the
  heap-Dijkstra reference's, falling back to a full Dijkstra otherwise:
  the engines' default step (``kernel="numpy"``). Import it from its
  module: it depends on :mod:`repro.core.sssp`, which depends on
  :mod:`repro.routing`, whose engines import the kernels from here.

Every route is serial; the determinism contract is documented in
``docs/parallel.md``, and the differential suite in ``tests/parallel``
certifies the production step against the heap reference on every
topology family.
"""

from repro.parallel.kernel import dijkstra_to_dest_numpy, hops_to_dest

__all__ = [
    "dijkstra_to_dest_numpy",
    "hops_to_dest",
]
