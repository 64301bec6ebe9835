"""Span nesting, attribute propagation and sink formats."""

import json
import threading

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


class _HalfwayTarget:
    """A file-like target that, halfway through each ``write``, hands
    control to the other writer thread: it waits until that thread has
    entered ``write`` as well or is waiting for the sink's lock (its
    ``_lock`` call reports arrivals here)."""

    def __init__(self):
        self.parts: list[str] = []
        self.cv = threading.Condition()
        self.entered: set[int] = set()  # threads that reached write()
        self.arrived: set[int] = set()  # threads that asked for the sink's lock

    def write(self, text: str) -> None:
        me = threading.get_ident()
        with self.cv:
            self.parts.append(text[: len(text) // 2])
            self.entered.add(me)
            self.cv.notify_all()
            assert self.cv.wait_for(lambda: (self.entered | self.arrived) - {me}, timeout=30)
            self.parts.append(text[len(text) // 2:])

    def flush(self) -> None:
        pass


class _ReportingLock:
    """The sink's lock, telling the target who asked for it before blocking."""

    def __init__(self, lock, target: _HalfwayTarget):
        self.lock, self.target = lock, target

    def __enter__(self):
        with self.target.cv:
            self.target.arrived.add(threading.get_ident())
            self.target.cv.notify_all()
        return self.lock.__enter__()

    def __exit__(self, *exc):
        return self.lock.__exit__(*exc)


def test_jsonl_sink_lock_keeps_lines_whole_when_a_write_is_interrupted():
    """Each write is cut in two with the other thread let in between:
    without ``JsonlSink._lock`` the two threads' halves interleave on
    every run; with it, every line is one whole record."""
    target = _HalfwayTarget()
    sink = JsonlSink(target)
    sink._lock = _ReportingLock(sink._lock, target)

    def writer(i):
        with span(f"writer-{i}", pad="x" * 40):
            pass

    with use_sink(sink):
        threads = [threading.Thread(target=writer, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    lines = "".join(target.parts).splitlines()
    records = [json.loads(line) for line in lines]
    assert sorted((r["name"], r["event"]) for r in records) == [
        (f"writer-{i}", e) for i in range(2) for e in ("start", "stop")
    ]
