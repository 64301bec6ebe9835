"""Span nesting, attribute propagation and sink formats."""

import json

import pytest

from repro.exceptions import UsageError
from repro.obs import (
    InMemorySink,
    JsonlSink,
    NullSink,
    current_span,
    get_sink,
    set_sink,
    span,
    use_sink,
)


def test_null_sink_is_default_and_spans_still_time():
    assert isinstance(get_sink(), NullSink) or get_sink().enabled is False
    with span("phase") as sp:
        pass
    assert sp.duration is not None
    assert sp.duration >= 0


def test_span_nesting_parent_links():
    sink = InMemorySink()
    with use_sink(sink):
        with span("outer") as outer:
            with span("inner") as inner:
                assert current_span() is inner
            assert current_span() is outer
        assert current_span() is None
    assert inner.parent is outer
    assert inner.parent_id == outer.span_id
    assert outer.parent is None
    # stop order: inner closes before outer
    assert [s.name for s in sink.spans] == ["inner", "outer"]


def test_event_stream_order():
    sink = InMemorySink()
    with use_sink(sink):
        with span("a"):
            with span("b"):
                pass
    kinds = [(kind, s.name) for kind, s in sink.events]
    assert kinds == [("start", "a"), ("start", "b"), ("stop", "b"), ("stop", "a")]


def test_attribute_propagation():
    with use_sink(InMemorySink()):
        with span("outer", engine="dfsssp", run=1):
            with span("inner", layer=3, run=2) as inner:
                merged = inner.effective_attrs()
    assert merged == {"engine": "dfsssp", "run": 2, "layer": 3}  # child wins
    assert inner.attrs == {"layer": 3, "run": 2}  # own attrs untouched


def test_set_attr_mid_span():
    sink = InMemorySink()
    with use_sink(sink):
        with span("phase") as sp:
            sp.set_attr("cycles", 42)
    assert sink.spans[0].attrs["cycles"] == 42


def test_exception_marks_span_error():
    sink = InMemorySink()
    with use_sink(sink):
        with pytest.raises(RuntimeError):
            with span("doomed"):
                raise RuntimeError("boom")
    sp = sink.spans[0]
    assert sp.status == "error"
    assert sp.attrs["exception"] == "RuntimeError"
    assert current_span() is None  # stack unwound


def test_use_sink_restores_previous():
    before = get_sink()
    with use_sink(InMemorySink()) as tmp:
        assert get_sink() is tmp
    assert get_sink() is before


def test_set_sink_none_means_null():
    old = set_sink(None)
    try:
        assert get_sink().enabled is False
    finally:
        set_sink(old)


def test_jsonl_sink_format(tmp_path):
    path = tmp_path / "trace.jsonl"
    sink = JsonlSink(str(path))
    with use_sink(sink):
        with span("outer", engine="sssp"):
            with span("inner"):
                pass
    sink.close()
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [rec["event"] for rec in lines] == ["start", "start", "stop", "stop"]
    start_outer, start_inner, stop_inner, stop_outer = lines
    assert start_outer["name"] == "outer"
    assert start_outer["parent"] is None
    assert start_outer["attrs"] == {"engine": "sssp"}
    assert start_inner["parent"] == start_outer["span"]
    assert stop_inner["duration_s"] >= 0
    assert stop_outer["status"] == "ok"
    # Both clocks are stamped together; stop records carry the pair
    # re-anchored just before the body ran, so they trail the start
    # record's provisional stamp by a hair and never precede it.
    for rec in lines:
        assert "ts" in rec and "perf" in rec
    assert stop_outer["ts"] >= start_outer["ts"]
    assert stop_outer["perf"] >= start_outer["perf"]
    # perf is the authoritative ordering clock: inner started after outer
    assert stop_inner["perf"] >= stop_outer["perf"]


def test_jsonl_sink_leaves_foreign_file_objects_open(tmp_path):
    import io

    buf = io.StringIO()
    sink = JsonlSink(buf)
    with use_sink(sink):
        with span("x"):
            pass
    sink.close()
    assert not buf.closed
    assert len(buf.getvalue().splitlines()) == 2


def test_find_helper():
    sink = InMemorySink()
    with use_sink(sink):
        with span("a"):
            pass
        with span("a"):
            pass
        with span("b"):
            pass
    assert len(sink.find("a")) == 2
    assert len(sink.find("missing")) == 0


def test_exit_without_enter_is_a_named_error():
    with use_sink(InMemorySink()) as sink:
        with pytest.raises(UsageError, match="'phase'.*without __enter__"):
            span("phase").__exit__(None, None, None)
    assert sink.events == []
