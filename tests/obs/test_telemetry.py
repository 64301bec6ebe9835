"""Request scopes: one ambient request id over a span tree."""

from __future__ import annotations

import pytest

from repro.obs import (
    InMemorySink,
    current_request_id,
    new_request_id,
    request_scope,
    span,
    use_sink,
)


def test_new_request_id_format_and_uniqueness():
    a, b = new_request_id(), new_request_id()
    assert a.startswith("req-") and len(a) == len("req-") + 8
    assert a != b
    assert new_request_id("svc").startswith("svc-")


def test_request_scope_stamps_every_span():
    sink = InMemorySink()
    with use_sink(sink):
        with request_scope("req-abcd", kind="demo") as root:
            with span("inner") as inner:
                with span("leaf") as leaf:
                    pass
    assert root.attrs["request_id"] == "req-abcd"
    assert inner.attrs["request_id"] == "req-abcd"
    assert leaf.attrs["request_id"] == "req-abcd"
    assert root.attrs["kind"] == "demo"
    assert leaf.parent is inner and inner.parent is root


def test_request_scope_generates_id_when_none():
    with use_sink(InMemorySink()):
        with request_scope() as root:
            assert current_request_id() == root.attrs["request_id"]
            assert root.attrs["request_id"].startswith("req-")
    assert current_request_id() is None


def test_request_scope_nesting_shadows_and_restores():
    with use_sink(InMemorySink()):
        with request_scope("outer-id"):
            assert current_request_id() == "outer-id"
            with request_scope("inner-id"):
                assert current_request_id() == "inner-id"
                with span("x") as sp:
                    pass
            assert current_request_id() == "outer-id"
    assert sp.attrs["request_id"] == "inner-id"
    assert current_request_id() is None


def test_request_scope_id_cleared_on_exception():
    with use_sink(InMemorySink()):
        with pytest.raises(RuntimeError):
            with request_scope("req-doomed"):
                raise RuntimeError("boom")
    assert current_request_id() is None
