"""Flight recorder: ring semantics, dumps, signal integration."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys

import pytest

from repro.obs import (
    FlightRecorder,
    get_recorder,
    record_event,
    request_scope,
    use_recorder,
    use_sink,
)
from repro.obs.tracing import InMemorySink


def test_record_basic_fields():
    rec = FlightRecorder()
    event = rec.record("state_transition", to_state="healthy")
    assert event["seq"] == 1
    assert event["kind"] == "state_transition"
    assert event["to_state"] == "healthy"
    assert event["request_id"] is None
    assert event["ts"] > 0 and event["mono"] > 0


def test_record_picks_up_ambient_request_id():
    rec = FlightRecorder()
    with use_sink(InMemorySink()):
        with request_scope("req-flight"):
            event = rec.record("cache_hit")
    assert event["request_id"] == "req-flight"
    # An explicit request_id field wins over the ambient one.
    with use_sink(InMemorySink()):
        with request_scope("req-ambient"):
            event = rec.record("batch_failed", request_id="req-explicit")
    assert event["request_id"] == "req-explicit"


def test_ring_evicts_oldest_and_seq_reveals_gaps():
    rec = FlightRecorder(capacity=3)
    for i in range(5):
        rec.record("tick", i=i)
    assert len(rec) == 3
    assert rec.recorded == 5
    assert rec.evicted == 2
    events = rec.snapshot()
    assert [e["seq"] for e in events] == [3, 4, 5]  # oldest first
    assert [e["i"] for e in events] == [2, 3, 4]


def test_last_and_clear():
    rec = FlightRecorder()
    for i in range(4):
        rec.record("tick", i=i)
    assert [e["i"] for e in rec.last(2)] == [2, 3]
    assert rec.last(0) == []
    assert len(rec.last(99)) == 4
    rec.clear()
    assert len(rec) == 0
    assert rec.recorded == 4  # seq is never reset


def test_capacity_validated():
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)


def test_snapshot_returns_copies():
    rec = FlightRecorder()
    rec.record("tick")
    rec.snapshot()[0]["kind"] = "mutated"
    assert rec.snapshot()[0]["kind"] == "tick"


def test_dump_round_trips(tmp_path):
    rec = FlightRecorder(capacity=2)
    for i in range(3):
        rec.record("tick", i=i)
    path = tmp_path / "flight.json"
    dumped = rec.dump(path)
    on_disk = json.loads(path.read_text())
    assert on_disk == json.loads(json.dumps(dumped))
    assert on_disk["capacity"] == 2
    assert on_disk["recorded"] == 3
    assert on_disk["evicted"] == 1
    assert [e["i"] for e in on_disk["events"]] == [1, 2]


def test_record_returns_a_copy():
    rec = FlightRecorder()
    rec.record("tick", i=0)["kind"] = "mutated"
    assert rec.snapshot()[0]["kind"] == "tick"


def test_dump_renders_each_event_once_and_writes_json_dumps(tmp_path, monkeypatch):
    """With ``dumped_at`` fixed, every dump's bytes are ``json.dumps`` of
    ``to_dict()``; an event is rendered at its first dump only, and an
    evicted event's text is dropped."""
    import time

    import repro.obs.recorder as recorder_mod

    monkeypatch.setattr(time, "time", lambda: 1_700_000_000.25)
    rendered = []
    compact = recorder_mod._compact

    def counting(obj):
        if "seq" in obj:
            rendered.append(obj["seq"])
        return compact(obj)

    monkeypatch.setattr(recorder_mod, "_compact", counting)
    rec = FlightRecorder(capacity=4)
    path = tmp_path / "flight.json"

    def dump_equals_json_dumps():
        rec.dump(path)
        want = json.dumps(rec.to_dict(), separators=(",", ":"), default=str) + "\n"
        assert path.read_text() == want

    dump_equals_json_dumps()  # no events yet
    for i in range(3):
        rec.record("tick", i=i, odd={i})  # a set: stringified
    dump_equals_json_dumps()
    dump_equals_json_dumps()
    assert rendered == [1, 2, 3]
    for i in range(3, 6):
        rec.record("tock", i=i, nested={"a": [i, None, "x"]})
    dump_equals_json_dumps()
    assert rendered == [1, 2, 3, 4, 5, 6]
    assert sorted(rec._texts) == [3, 4, 5, 6]  # seq 1 and 2 were evicted
    rec.clear()
    assert not rec._texts
    dump_equals_json_dumps()


def test_dump_stringifies_unserialisable_values(tmp_path):
    rec = FlightRecorder()
    rec.record("odd", payload=object())
    data = json.loads((lambda p: (rec.dump(p), p.read_text())[1])(tmp_path / "f.json"))
    assert isinstance(data["events"][0]["payload"], str)


def test_use_recorder_swaps_default():
    before = get_recorder()
    mine = FlightRecorder()
    with use_recorder(mine):
        assert get_recorder() is mine
        record_event("tick", via="module helper")
    assert get_recorder() is before
    assert mine.snapshot()[0]["via"] == "module helper"


def test_install_signal_dump_writes_on_sigterm(tmp_path):
    """A SIGTERM'd process leaves a flight dump whose last event is the signal."""
    dump = tmp_path / "flight.json"
    code = f"""
import os, signal
from repro.obs import record_event, install_signal_dump
install_signal_dump({str(dump)!r})
record_event("tick", i=1)
record_event("tick", i=2)
os.kill(os.getpid(), signal.SIGTERM)
"""
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd="/root/repo", env=env,
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 128 + signal.SIGTERM, proc.stderr
    data = json.loads(dump.read_text())
    kinds = [e["kind"] for e in data["events"]]
    assert kinds == ["tick", "tick", "signal"]
    assert data["events"][-1]["name"] == "SIGTERM"


def test_install_signal_dump_chains_previous_handler(tmp_path):
    dump = tmp_path / "flight.json"
    calls = []
    previous = signal.getsignal(signal.SIGUSR1)
    try:
        signal.signal(signal.SIGUSR1, lambda s, f: calls.append(s))
        from repro.obs import install_signal_dump

        with use_recorder(FlightRecorder()):
            install_signal_dump(dump, signals=(signal.SIGUSR1,))
            os.kill(os.getpid(), signal.SIGUSR1)
        assert calls == [signal.SIGUSR1]  # chained, no SystemExit
        assert json.loads(dump.read_text())["events"][-1]["kind"] == "signal"
    finally:
        signal.signal(signal.SIGUSR1, previous)
