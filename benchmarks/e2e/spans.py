"""In-memory span recorder for the traced benchmark run.

Spans are recorded by the benchmark, around its calls into each layer of
``repro``; spans inside the program are a later issue. A disabled
recorder makes ``span()`` a no-op, so the untraced run (the only source of
end-to-end numbers) shares the pipeline code without paying for records.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class SpanRecorder:
    """Records ``(name, start, end, parent, workload, rep)`` plus counts."""

    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        self.rep = 0
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Time one call into a layer; yields the record so the caller can
        attach counts measured at the same boundary (``rec["counts"]``)."""
        if not self.enabled:
            yield {"counts": {}}
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "rep": self.rep,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    # ------------------------------------------------------------------
    def finished(self) -> list[dict]:
        """Closed spans with ``dur_s`` and ``self_s`` (span minus children)."""
        out = [dict(s, dur_s=s["end"] - s["start"]) for s in self.spans if s["end"] is not None]
        child_time: dict[int, float] = {}
        for s in out:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + s["dur_s"]
        for s in out:
            s["self_s"] = s["dur_s"] - child_time.get(s["id"], 0.0)
        return out

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["end"] is not None]

    def counts(self, name: str, key: str) -> list:
        return [s["counts"][key] for s in self.spans
                if s["name"] == name and key in s["counts"]]

    def coverage(self, name: str) -> float:
        """Smallest share of a ``name`` span covered by its child spans."""
        shares = [1.0 - s["self_s"] / s["dur_s"]
                  for s in self.finished() if s["name"] == name and s["dur_s"] > 0]
        return min(shares) if shares else 0.0

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.finished():
                fh.write(json.dumps(s, sort_keys=True) + "\n")
