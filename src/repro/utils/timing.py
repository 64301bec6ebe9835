"""Wall-clock timing helpers for the routing-runtime figures (Figs. 7/8).

The paper reports the wall time of each routing engine on a workstation.
:class:`Timer` is a tiny context manager around ``time.perf_counter`` that
also supports accumulating repeated sections, which the benchmark harness
uses to time the route + layer-assignment phases separately.

Since the ``repro.obs`` layer landed, ``Timer`` is a thin wrapper over
it: pass ``metric="routing_runtime_seconds"`` (plus optional labels) and
every timed section is also observed into a histogram of that name in
the default metrics registry, so benchmark wall times and ``--metrics``
dumps report the same numbers.
"""

from __future__ import annotations

import time

from repro.exceptions import UsageError
from repro.obs import get_registry
from repro.obs.metrics import MetricsRegistry


class Timer:
    """Accumulating wall-clock timer.

    >>> t = Timer()
    >>> with t:
    ...     _ = sum(range(1000))
    >>> t.elapsed > 0
    True

    With ``metric`` set, each section is additionally recorded into the
    metrics registry as a histogram observation (labels become metric
    labels): ``Timer(metric="routing_runtime_seconds", engine="dfsssp")``.
    """

    def __init__(
        self,
        metric: str | None = None,
        registry: MetricsRegistry | None = None,
        **labels,
    ) -> None:
        self.elapsed: float = 0.0
        self.calls: int = 0
        self._t0: float | None = None
        self._metric = metric
        self._registry = registry
        self._labels = labels

    def __enter__(self) -> "Timer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self._t0 is None:
            raise UsageError("Timer.__exit__ without __enter__")
        dt = time.perf_counter() - self._t0
        self.elapsed += dt
        self.calls += 1
        self._t0 = None
        if self._metric is not None:
            reg = self._registry if self._registry is not None else get_registry()
            reg.histogram(self._metric, **self._labels).observe(dt)

    def reset(self) -> None:
        self.elapsed = 0.0
        self.calls = 0
        self._t0 = None

    @property
    def mean(self) -> float:
        """Mean seconds per timed section (0.0 before any call)."""
        return self.elapsed / self.calls if self.calls else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Timer(elapsed={self.elapsed:.6f}s, calls={self.calls})"


def time_callable(fn, *args, repeats: int = 1, **kwargs) -> tuple[float, object]:
    """Run ``fn`` ``repeats`` times; return (best wall time, last result)."""
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best, result
