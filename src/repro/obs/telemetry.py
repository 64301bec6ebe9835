"""Request-scoped trace correlation.

The supervisor (``repro.service``), the parallel executor
(``repro.parallel``) and the engines each emit spans, but until a
request id ties them together a JSONL trace is a bag of fragments. This
module provides :func:`request_scope`: open a *request root span* and
make its ``request_id`` ambient — every span created inside the scope
(in this context, and in any thread that runs a copy of it, as the
hop-row pool's do) is stamped with a ``request_id`` attribute, so one
query over the trace sink reconstructs the request's full causal tree.

Request ids are free-form strings. :func:`new_request_id` makes an
unguessable one; the routing supervisor instead derives sequential ids
from a persisted ``(service_id, request_seq)`` pair so ids stay unique
across checkpoint/restore.
"""

from __future__ import annotations

import secrets

from repro.obs import tracing
from repro.obs.tracing import Span

__all__ = [
    "new_request_id",
    "request_scope",
    "current_request_id",
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
