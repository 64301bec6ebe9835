"""Cooperative compute budgets (deadlines) for routing work.

A long-running routing service must bound how long any single recompute
may take: a repair that stalls for minutes is worse than serving slightly
stale last-known-good tables, because the fabric keeps changing
underneath it. OpenSM solves this with worker threads and signals; we use
*cooperative* deadlines instead — the SSSP/DFSSSP/repair inner loops
periodically call :func:`check_budget`, which raises
:class:`~repro.exceptions.ComputeTimeoutError` once the active
:class:`Budget` is exhausted. Abandoning work this way is always safe:
engines build fresh arrays and only publish complete results, so a
timeout can never corrupt the routing currently being served.

Budgets nest through a :mod:`contextvars` context variable (so they are
thread- and async-safe like tracing spans): entering an inner budget can
only *tighten* the effective deadline, never extend an outer one. Code
that never activates a budget pays one context-variable read per
check — cheap enough for per-destination granularity.

>>> with compute_budget(None) as b:          # unlimited
...     check_budget()
>>> b.checks
1
"""

from __future__ import annotations

import threading
import time
from contextvars import ContextVar

from repro.exceptions import ComputeTimeoutError

_active: ContextVar["Budget | None"] = ContextVar("repro_service_budget", default=None)


class Budget:
    """A deadline measured on a monotonic clock.

    Parameters
    ----------
    seconds:
        Allowed wall time from construction; ``None`` means unlimited
        (checks never raise — useful to keep call sites unconditional).
    label:
        Name carried into :class:`ComputeTimeoutError` and metrics, e.g.
        ``"repair"`` or ``"full_reroute"``.
    clock:
        Monotonic time source. Tests inject a fake counter to expire a
        budget after a deterministic number of checks; production uses
        :func:`time.perf_counter` so wall-clock adjustments (NTP steps)
        cannot fire or defer deadlines.
    """

    __slots__ = ("label", "seconds", "clock", "started", "deadline", "checks", "_lock")

    def __init__(self, seconds: float | None, *, label: str = "compute", clock=time.perf_counter):
        if seconds is not None and seconds < 0:
            raise ValueError(f"budget seconds must be >= 0 or None, got {seconds}")
        self.label = label
        self.seconds = seconds
        self.clock = clock
        self.started = clock()
        self.deadline = None if seconds is None else self.started + seconds
        self.checks = 0
        self._lock = threading.Lock()  # the hop-row pool's threads poll it too

    def elapsed(self) -> float:
        return self.clock() - self.started

    def remaining(self) -> float | None:
        """Seconds left, clamped at 0 (``None`` when unlimited)."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - self.clock())

    @property
    def expired(self) -> bool:
        return self.deadline is not None and self.clock() >= self.deadline

    def check(self) -> None:
        """Count a checkpoint; raise if the deadline has passed."""
        with self._lock:
            self.checks += 1
        if self.deadline is not None and self.clock() >= self.deadline:
            raise ComputeTimeoutError(
                f"{self.label} budget of {self.seconds:g}s exhausted "
                f"after {self.elapsed():.3f}s ({self.checks} checks)",
                label=self.label,
                limit_s=self.seconds,
                elapsed_s=self.elapsed(),
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        left = self.remaining()
        state = "unlimited" if left is None else f"{left:.3f}s left"
        return f"Budget({self.label!r}, {state})"


def active_budget() -> Budget | None:
    """The innermost active budget in this context, if any."""
    return _active.get()


def check_budget() -> None:
    """Engine-side checkpoint: no-op without an active budget.

    This is the function the SSSP/DFSSSP/repair inner loops call; it must
    stay cheap when nobody set a deadline (one context-variable read).
    """
    b = _active.get()
    if b is not None:
        b.check()


class compute_budget:
    """Context manager activating a :class:`Budget` for the enclosed work.

    Nested budgets never extend an enclosing deadline: when an outer
    budget (on the same clock) expires earlier, the inner budget inherits
    the outer deadline.
    """

    __slots__ = ("_budget", "_token")

    def __init__(self, seconds: float | None, *, label: str = "compute",
                 clock=time.perf_counter):
        self._budget = Budget(seconds, label=label, clock=clock)

    def __enter__(self) -> Budget:
        b = self._budget
        outer = _active.get()
        if (
            outer is not None
            and outer.deadline is not None
            and outer.clock is b.clock
            and (b.deadline is None or outer.deadline < b.deadline)
        ):
            b.deadline = outer.deadline
            b.seconds = b.deadline - b.started
        self._token = _active.set(b)
        return b

    def __exit__(self, exc_type, exc, tb) -> None:
        _active.reset(self._token)
