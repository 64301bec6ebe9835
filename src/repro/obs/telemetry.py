"""Request-scoped trace correlation, across threads *and* processes.

The supervisor (``repro.service``), the parallel executor
(``repro.parallel``) and the engines each emit spans, but until a
request id ties them together a JSONL trace is a bag of fragments. This
module provides:

* :func:`request_scope` — open a *request root span* and make its
  ``request_id`` ambient: every span created inside the scope (in this
  context) is stamped with a ``request_id`` attribute, so one query over
  the trace sink reconstructs the request's full causal tree.
* :func:`export_context` / :func:`capture_spans` / :func:`replay_spans`
  — carry the request context over a process-pool boundary. The parent
  serializes a small *carrier* dict into each task; the worker captures
  its spans locally (under the shipped request id) and returns them as
  plain dicts with the task result; the parent replays them into its own
  sink, **re-parented** under the live span that consumed the result.
  Worker span records are pure data (no live ``Span`` objects cross the
  boundary), so this works under both fork and spawn start methods.

Request ids are free-form strings. :func:`new_request_id` makes an
unguessable one; the routing supervisor instead derives sequential ids
from a persisted ``(service_id, request_seq)`` pair so ids stay unique
across checkpoint/restore.
"""

from __future__ import annotations

import secrets
from contextlib import contextmanager

from repro.obs import tracing
from repro.obs.tracing import Span, current_span

__all__ = [
    "new_request_id",
    "request_scope",
    "current_request_id",
    "export_context",
    "capture_spans",
    "replay_spans",
]

current_request_id = tracing.current_request_id


def new_request_id(prefix: str = "req") -> str:
    """A fresh request id: ``<prefix>-<8 hex chars>``."""
    return f"{prefix}-{secrets.token_hex(4)}"


class request_scope:
    """Context manager: a request root span with an ambient request id.

    >>> from repro.obs import InMemorySink, span, use_sink
    >>> with use_sink(InMemorySink()) as sink:
    ...     with request_scope("req-1234", kind="demo") as req:
    ...         with span("inner") as sp:
    ...             pass
    >>> req.attrs["request_id"], sp.attrs["request_id"]
    ('req-1234', 'req-1234')

    ``request_id=None`` generates one via :func:`new_request_id`. The
    yielded object is the root :class:`~repro.obs.tracing.Span`; read
    ``.attrs["request_id"]`` for the effective id. Scopes nest: an inner
    scope's id shadows the outer one until it exits.
    """

    __slots__ = ("_request_id", "_name", "_attrs", "_span_cm", "_token")

    def __init__(self, request_id: str | None = None, name: str = "request", **attrs):
        self._request_id = request_id or new_request_id()
        self._name = name
        self._attrs = attrs

    def __enter__(self) -> Span:
        self._token = tracing.set_request_id(self._request_id)
        self._span_cm = tracing.span(self._name, **self._attrs)
        return self._span_cm.__enter__()

    def __exit__(self, exc_type, exc, tb) -> None:
        try:
            self._span_cm.__exit__(exc_type, exc, tb)
        finally:
            tracing.reset_request_id(self._token)


# ----------------------------------------------------------------------
# cross-process propagation
# ----------------------------------------------------------------------
def export_context() -> dict:
    """Serializable trace context for shipping into a worker process.

    ``capture`` tells the worker whether span capture is worth the
    bookkeeping at all — when the parent's sink is disabled nobody will
    ever see the records, so workers skip span creation entirely and
    the parallel hot path stays unchanged.
    """
    sp = current_span()
    return {
        "request_id": tracing.current_request_id(),
        "parent_span": sp.span_id if sp is not None else None,
        "capture": tracing.get_sink().enabled,
    }


class _CaptureSink:
    """Worker-side sink: serialize finished spans to plain dicts.

    ``local_id``/``local_parent`` are the worker's own span ids — valid
    only for reconstructing the *shape* of the tree; :func:`replay_spans`
    assigns fresh ids in the parent.
    """

    enabled = True

    def __init__(self) -> None:
        self.records: list[dict] = []

    def start(self, span: Span) -> None:
        pass

    def stop(self, span: Span) -> None:
        self.records.append(
            {
                "local_id": span.span_id,
                "local_parent": span.parent_id,
                "name": span.name,
                "ts": span.start_wall,
                "perf": span.start_perf,
                "duration_s": span.duration,
                "status": span.status,
                "attrs": dict(span.attrs),
            }
        )

    def close(self) -> None:
        pass


@contextmanager
def capture_spans(carrier: dict | None = None):
    """Worker side: record spans locally under the shipped request context.

    Replaces the worker's sink for the duration (under fork the worker
    inherits the parent's sink — possibly a ``JsonlSink`` sharing a file
    descriptor; capturing instead of writing avoids interleaved output).
    Yields the capture sink; ship ``sink.records`` back with the result.
    """
    carrier = carrier or {}
    sink = _CaptureSink()
    old = tracing.set_sink(sink)
    token = tracing.set_request_id(carrier.get("request_id"))
    # The forked/inherited "current span" (if any) belongs to the parent
    # process; isolate so captured roots have local_parent outside the
    # captured set and re-parent cleanly.
    span_token = tracing._current.set(None)
    try:
        yield sink
    finally:
        tracing._current.reset(span_token)
        tracing.reset_request_id(token)
        tracing.set_sink(old)


def replay_spans(records: list[dict], parent: Span | None = None) -> list[Span]:
    """Parent side: re-emit captured worker spans, re-parented.

    Fresh span ids are assigned from the parent's counter; the captured
    tree shape (``local_parent`` links within ``records``) is preserved,
    and any captured root — or orphan whose parent record was lost to a
    timeout — hangs off ``parent`` (default: the current span). Start
    and stop events are emitted parents-before-children / reverse, so
    in-memory sinks see a well-nested bracket sequence. Returns the
    replayed spans in start order.
    """
    if not records:
        return []
    if parent is None:
        parent = current_span()
    by_id = {rec["local_id"]: rec for rec in records}
    spans: dict[int, Span] = {}

    def materialise(rec: dict) -> Span:
        sid = rec["local_id"]
        got = spans.get(sid)
        if got is not None:
            return got
        parent_rec = by_id.get(rec["local_parent"])
        up = materialise(parent_rec) if parent_rec is not None else parent
        sp = Span(rec["name"], dict(rec["attrs"]), up)
        sp.start_wall = rec["ts"]
        sp.start_perf = rec["perf"]
        sp.duration = rec["duration_s"]
        sp.status = rec["status"]
        spans[sid] = sp
        return sp

    ordered = [
        materialise(rec)
        for rec in sorted(records, key=lambda r: (r["perf"], r["local_id"]))
    ]
    sink = tracing.get_sink()
    if sink.enabled:
        for sp in ordered:
            sink.start(sp)
        for sp in reversed(ordered):
            sink.stop(sp)
    return ordered
