"""Nestable structured spans with pluggable sinks.

``with span("dfsssp.layers", heuristic="weakest") as sp:`` measures a
phase, links it to the enclosing span, and emits structured start/stop
events to the active sink:

* :class:`NullSink` (default) — events are dropped; the only cost of an
  instrumented region is one small object and two ``perf_counter``
  calls, so engines stay fast when nobody is watching.
* :class:`InMemorySink` — collects events and finished spans; used by
  tests and interactive inspection.
* :class:`JsonlSink` — one JSON object per line per event, the format
  behind the CLI's ``--trace FILE`` flag.

Spans always measure elapsed time regardless of sink (callers such as
DFSSSP read ``sp.duration`` for their stats dict). Durations come from
``time.perf_counter`` — monotonic, so NTP steps or daylight-saving
jumps mid-phase cannot produce negative or wildly wrong timings.
``Span.start_wall`` (``time.time``) anchors the span on the human
calendar and is stamped *together with* ``start_perf`` (one adjacent
pair of clock reads), so exported records carry a coherent
(wall, monotonic) pair. The monotonic side is authoritative: ordering
and arithmetic use ``perf``/``duration_s``; ``ts`` exists to correlate
traces with external logs. Nesting is tracked per-context via
:mod:`contextvars`, so spans stay correctly parented under threads or
async tasks.

When a request id is active (see :mod:`repro.obs.telemetry`), every
span created in that context is stamped with a ``request_id``
attribute, so one grep over a JSONL trace recovers a request's whole
causal tree.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar

from repro.exceptions import UsageError

_ids = itertools.count(1)

#: Ambient request id — set by :func:`repro.obs.telemetry.request_scope`
#: (or :func:`set_request_id` directly); every span created while it is
#: set carries a ``request_id`` attribute. Lives here rather than in
#: :mod:`repro.obs.telemetry` so ``Span.__init__`` needs no imports.
_request_id: ContextVar[str | None] = ContextVar("repro_obs_request_id", default=None)


def current_request_id() -> str | None:
    """The ambient request id in this context, if any."""
    return _request_id.get()


def set_request_id(request_id: str | None):
    """Set the ambient request id; returns a token for :func:`reset_request_id`."""
    return _request_id.set(request_id)


def reset_request_id(token) -> None:
    _request_id.reset(token)


class Span:
    """One timed phase. ``duration`` is None until the span closes.

    ``start_perf`` (``perf_counter``) is the monotonic anchor the
    duration is measured from and is **authoritative** for ordering and
    arithmetic; ``start_wall`` (``time.time``) is the wall-clock
    annotation stamped in the same instant, used only to correlate
    traces with external logs — stepped system clocks cannot skew
    durations.
    """

    __slots__ = (
        "name", "attrs", "span_id", "parent", "start_wall", "start_perf",
        "duration", "status",
    )

    def __init__(self, name: str, attrs: dict, parent: "Span | None"):
        self.name = name
        rid = _request_id.get()
        if rid is not None and "request_id" not in attrs:
            attrs["request_id"] = rid
        self.attrs = attrs
        self.span_id = next(_ids)
        self.parent = parent
        # One adjacent pair of clock reads — keep wall and perf coherent.
        self.start_wall = time.time()
        self.start_perf = time.perf_counter()
        self.duration: float | None = None
        self.status = "ok"

    @property
    def parent_id(self) -> int | None:
        return self.parent.span_id if self.parent is not None else None

    def set_attr(self, key: str, value) -> None:
        """Attach/overwrite an attribute mid-span (appears in the stop event)."""
        self.attrs[key] = value

    def effective_attrs(self) -> dict:
        """Own attributes merged over every ancestor's (child wins) —
        the "inherited context" view of attribute propagation."""
        chain: list[Span] = []
        node: Span | None = self
        while node is not None:
            chain.append(node)
            node = node.parent
        merged: dict = {}
        for s in reversed(chain):
            merged.update(s.attrs)
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = f"{self.duration:.6f}s" if self.duration is not None else "open"
        return f"Span({self.name!r}, id={self.span_id}, {state})"


# ----------------------------------------------------------------------
class NullSink:
    """Discards everything (the near-zero-overhead default)."""

    enabled = False

    def start(self, span: Span) -> None:
        pass

    def stop(self, span: Span) -> None:
        pass

    def close(self) -> None:
        pass


class InMemorySink:
    """Keeps events and finished spans in lists (tests, notebooks)."""

    enabled = True

    def __init__(self) -> None:
        self.events: list[tuple[str, Span]] = []
        self.spans: list[Span] = []

    def start(self, span: Span) -> None:
        self.events.append(("start", span))

    def stop(self, span: Span) -> None:
        self.events.append(("stop", span))
        self.spans.append(span)

    def close(self) -> None:
        pass

    def find(self, name: str) -> list[Span]:
        """Finished spans with the given name."""
        return [s for s in self.spans if s.name == name]


class JsonlSink:
    """Writes one JSON object per event line (the ``--trace`` format).

    ``target`` is a path (opened/closed by the sink) or an open
    file-like object (left open on :meth:`close` — e.g. stdout).

    Every record stamps both clocks: ``ts`` is the span's wall-clock
    start (correlates traces with external logs) and ``perf`` the
    matching monotonic (``perf_counter``) anchor. The monotonic side is
    authoritative — ``duration_s`` is measured on it, and *stop*
    records carry the re-anchored pair taken right before the span body
    ran (start records carry the provisional pair from span creation,
    so ``stop.ts >= start.ts`` by a hair). Tools that order or compare
    spans must use ``perf``/``duration_s``, never ``ts``.
    """

    enabled = True

    def __init__(self, target) -> None:
        if hasattr(target, "write"):
            self._fp = target
            self._owns = False
        else:
            self._fp = open(target, "w", encoding="utf-8")
            self._owns = True
        self._lock = threading.Lock()  # text files are not thread-safe

    def _emit(self, record: dict) -> None:
        line = json.dumps(record, default=str) + "\n"
        with self._lock:
            self._fp.write(line)

    def start(self, span: Span) -> None:
        self._emit(
            {
                "event": "start",
                "span": span.span_id,
                "parent": span.parent_id,
                "name": span.name,
                "ts": span.start_wall,
                "perf": span.start_perf,
                "attrs": span.attrs,
            }
        )

    def stop(self, span: Span) -> None:
        self._emit(
            {
                "event": "stop",
                "span": span.span_id,
                "parent": span.parent_id,
                "name": span.name,
                "ts": span.start_wall,
                "perf": span.start_perf,
                "duration_s": span.duration,
                "status": span.status,
                "attrs": span.attrs,
            }
        )

    def close(self) -> None:
        self._fp.flush()
        if self._owns:
            self._fp.close()


NULL_SINK = NullSink()

_sink: NullSink | InMemorySink | JsonlSink = NULL_SINK
_current: ContextVar[Span | None] = ContextVar("repro_obs_current_span", default=None)


def get_sink():
    return _sink


def set_sink(sink) -> object:
    """Install a sink; returns the previous one. ``None`` → NullSink."""
    global _sink
    old = _sink
    _sink = sink if sink is not None else NULL_SINK
    return old


@contextmanager
def use_sink(sink):
    """Temporarily install ``sink`` (tests)."""
    old = set_sink(sink)
    try:
        yield sink
    finally:
        set_sink(old)


def current_span() -> Span | None:
    """The innermost open span in this context, if any."""
    return _current.get()


class span:
    """Context manager: time a named phase and emit start/stop events.

    >>> with span("phase", size=3) as sp:
    ...     pass
    >>> sp.duration is not None
    True
    """

    __slots__ = ("_name", "_attrs", "_span", "_token")

    def __init__(self, name: str, **attrs):
        self._name = name
        self._attrs = attrs
        self._span: Span | None = None

    def __enter__(self) -> Span:
        s = Span(self._name, self._attrs, _current.get())
        self._span = s
        self._token = _current.set(s)
        sink = _sink
        if sink.enabled:
            sink.start(s)
        # Re-anchor after the sink call so its I/O never counts as phase
        # time. Both clocks move together so the (wall, perf) pair in
        # stop records stays coherent; stop records are authoritative.
        s.start_wall = time.time()
        s.start_perf = time.perf_counter()
        return s

    def __exit__(self, exc_type, exc, tb) -> None:
        s = self._span
        if s is None:
            raise UsageError(f"span {self._name!r}: __exit__ without __enter__")
        s.duration = time.perf_counter() - s.start_perf
        _current.reset(self._token)
        if exc_type is not None:
            s.status = "error"
            s.attrs.setdefault("exception", exc_type.__name__)
        sink = _sink
        if sink.enabled:
            sink.stop(s)
