"""Flight recorder: a bounded ring buffer of structured events.

Metrics aggregate and spans time, but neither answers the post-mortem
question *"what were the last N things that happened before the
crash?"*. The :class:`FlightRecorder` keeps exactly that: a fixed-size
in-memory ring of small structured events — supervisor state
transitions, escalation-rung failures, budget exhaustions,
circuit-breaker trips, fault injections — each
stamped with both clocks and the ambient request id. Recording is a
deque append; nothing touches disk until :meth:`dump`.

Dumps are atomic (:func:`repro.utils.atomicio.atomic_write_text`), so a
dump racing a crash leaves either the previous dump or the new one,
never a torn file. The routing supervisor dumps alongside every
checkpoint and on batch failure; the serve CLI dumps on its simulated
SIGKILL and via :func:`install_signal_dump` on SIGTERM — the resulting
file's last events explain the kill.

A module-global default recorder backs :func:`record_event` so call
sites stay one-liners; tests swap it with :func:`set_recorder` /
:func:`use_recorder`.
"""

from __future__ import annotations

import json
import signal
import time
from collections import deque
from contextlib import contextmanager

from repro.obs.tracing import current_request_id
from repro.utils.atomicio import atomic_write_text

#: default ring capacity — small enough to dump in one write, large
#: enough to cover several repair batches of events
DEFAULT_CAPACITY = 512


class FlightRecorder:
    """Fixed-capacity ring of structured events (oldest evicted first).

    Each event is a dict: ``seq`` (monotone, never reused — gaps reveal
    evictions), ``ts`` (wall clock), ``mono`` (``perf_counter``),
    ``kind``, ``request_id`` (ambient, may be ``None``) plus the
    caller's fields. Values should be JSON-serialisable; anything else
    is stringified at dump time. Each event is rendered once: its JSON
    text is kept, by ``seq``, from its first dump until it is evicted.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._events: deque[dict] = deque(maxlen=capacity)
        self._texts: dict[int, str] = {}  # seq -> the event's dumped JSON
        self._seq = 0

    def record(self, kind: str, **fields) -> dict:
        """Append one event; returns a copy of it (mostly for tests), so
        its kept dump text cannot go stale."""
        if len(self._events) == self.capacity:
            self._texts.pop(self._events[0]["seq"], None)  # the append evicts it
        self._seq += 1
        event = {
            "seq": self._seq,
            "ts": time.time(),
            "mono": time.perf_counter(),
            "kind": kind,
            "request_id": current_request_id(),
            **fields,
        }
        self._events.append(event)
        return dict(event)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._events)

    @property
    def recorded(self) -> int:
        """Total events ever recorded (≥ ``len()``; difference = evicted)."""
        return self._seq

    @property
    def evicted(self) -> int:
        return self._seq - len(self._events)

    def snapshot(self) -> list[dict]:
        """The retained events, oldest first (copies — safe to mutate)."""
        return [dict(e) for e in self._events]

    def last(self, n: int) -> list[dict]:
        """The newest ``n`` retained events, oldest first."""
        if n <= 0:
            return []
        events = list(self._events)
        return [dict(e) for e in events[-n:]]

    def clear(self) -> None:
        self._events.clear()
        self._texts.clear()

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "dumped_at": time.time(),
            "capacity": self.capacity,
            "recorded": self.recorded,
            "evicted": self.evicted,
            "events": self.snapshot(),
        }

    def dump(self, path) -> dict:
        """Atomically write the ring as JSON; returns the dumped dict.

        The file holds ``json.dumps(data, separators=(",", ":"),
        default=str) + "\\n"``; each event's part is the text kept from
        its first dump."""
        data = self.to_dict()
        texts = self._texts
        for event in data["events"]:
            if event["seq"] not in texts:
                texts[event["seq"]] = _compact(event)
        head = _compact({k: v for k, v in data.items() if k != "events"})
        events = ",".join(texts[e["seq"]] for e in data["events"])
        # "events" is the last key: the head without its closing brace
        atomic_write_text(path, f'{head[:-1]},"events":[{events}]}}\n')
        return data


def _compact(obj) -> str:
    # compact separators, no indent: an indent selects json's pure-python encoder
    return json.dumps(obj, separators=(",", ":"), default=str)


_default_recorder = FlightRecorder()


def get_recorder() -> FlightRecorder:
    """The process-wide default flight recorder."""
    return _default_recorder


def set_recorder(recorder: FlightRecorder) -> FlightRecorder:
    """Swap the default recorder; returns the previous one."""
    global _default_recorder
    old = _default_recorder
    _default_recorder = recorder
    return old


@contextmanager
def use_recorder(recorder: FlightRecorder):
    """Temporarily install ``recorder`` (tests)."""
    old = set_recorder(recorder)
    try:
        yield recorder
    finally:
        set_recorder(old)


def record_event(kind: str, **fields) -> dict:
    """Record one event into the default recorder."""
    return _default_recorder.record(kind, **fields)


# ----------------------------------------------------------------------
# signal integration
# ----------------------------------------------------------------------
def _make_dump_handler(path, previous):
    def _handler(signum, frame):
        recorder = get_recorder()
        recorder.record("signal", signum=int(signum),
                        name=signal.Signals(signum).name)
        try:
            recorder.dump(path)
        except OSError:  # pragma: no cover - dump target vanished
            pass
        if callable(previous):
            previous(signum, frame)
        else:
            # Default disposition for SIGTERM & friends is to terminate;
            # exit with the conventional 128+signum status.
            raise SystemExit(128 + int(signum))

    return _handler


def install_signal_dump(path, signals=(signal.SIGTERM,)) -> None:
    """Dump the default recorder to ``path`` when a signal arrives.

    After dumping, any previously installed Python handler is chained;
    otherwise the process exits with the conventional ``128 + signum``
    status. Only callable from the main thread (CPython restriction on
    ``signal.signal``).
    """
    for sig in signals:
        previous = signal.getsignal(sig)
        signal.signal(sig, _make_dump_handler(path, previous))
