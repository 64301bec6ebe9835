"""Trace/telemetry analysis: JSONL trace trees and the live `top` view.

Pure render-to-string functions over recorded telemetry, shared by the
CLI (``stats --trace-tree``, ``serve --top``) and tests:

* :func:`read_trace` / :func:`build_trace_tree` /
  :func:`render_trace_tree` — parse a ``--trace`` JSONL file, rebuild
  the span forest (optionally restricted to one ``request_id``; every
  span inside a :func:`~repro.obs.telemetry.request_scope` carries that
  attribute, including the hop-row pool's thread spans), and draw it with
  box-drawing indentation. Ordering and durations come from the
  monotonic ``perf``/``duration_s`` fields — never wall-clock ``ts``
  (see :mod:`repro.obs.tracing`).
* :func:`render_top` — one screenful of service health: supervisor
  state, SLO table from the latest :class:`~repro.obs.slo.HealthReport`,
  and the flight recorder's newest events. The serve CLI clears the
  terminal and reprints it after every batch.
* :func:`slo_verdict` / :func:`event_detail` — how an SLO result and a
  flight event print, here and in the ``health`` / ``stats`` CLI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

#: spans with a start but no stop record (crash, still open at dump time)
OPEN = "open"


def read_trace(path) -> list[dict]:
    """Parse a ``--trace`` JSONL file (blank lines skipped)."""
    records = []
    with open(path, encoding="utf-8") as fp:
        for line in fp:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


@dataclass
class TraceNode:
    """One span in a rebuilt trace tree."""

    span_id: int
    parent_id: int | None
    name: str
    ts: float
    perf: float
    duration_s: float | None
    status: str
    attrs: dict
    children: list["TraceNode"] = field(default_factory=list)

    @property
    def request_id(self) -> str | None:
        return self.attrs.get("request_id")


def build_trace_tree(records: list[dict], request_id: str | None = None) -> list[TraceNode]:
    """Rebuild the span forest from trace records, roots in perf order.

    Stop records are authoritative (final attrs, re-anchored clocks);
    spans that only ever started — the process died first — appear with
    ``status="open"`` and no duration. With ``request_id`` given, only
    spans stamped with that id are kept (the full causal tree of one
    request, workers included).
    """
    nodes: dict[int, TraceNode] = {}
    for rec in records:
        attrs = rec.get("attrs", {})
        if request_id is not None and attrs.get("request_id") != request_id:
            continue
        sid = rec["span"]
        node = nodes.get(sid)
        if node is None:
            node = TraceNode(
                span_id=sid, parent_id=rec.get("parent"), name=rec["name"],
                ts=rec.get("ts", 0.0), perf=rec.get("perf", 0.0),
                duration_s=None, status=OPEN, attrs=attrs,
            )
            nodes[sid] = node
        if rec.get("event") == "stop":
            node.ts = rec.get("ts", node.ts)
            node.perf = rec.get("perf", node.perf)
            node.duration_s = rec.get("duration_s")
            node.status = rec.get("status", "ok")
            node.attrs = attrs
    roots: list[TraceNode] = []
    for node in nodes.values():
        parent = nodes.get(node.parent_id) if node.parent_id is not None else None
        if parent is not None:
            parent.children.append(node)
        else:
            roots.append(node)
    for node in nodes.values():
        node.children.sort(key=lambda n: (n.perf, n.span_id))
    roots.sort(key=lambda n: (n.perf, n.span_id))
    return roots


def _node_label(node: TraceNode, show_attrs: tuple[str, ...]) -> str:
    dur = f"{node.duration_s * 1000:.2f}ms" if node.duration_s is not None else OPEN
    label = f"{node.name}  {dur}"
    if node.status not in ("ok", OPEN):
        label += f"  [{node.status}]"
    shown = {
        k: v for k, v in node.attrs.items()
        if (not show_attrs or k in show_attrs) and k != "request_id"
    }
    if shown:
        label += "  (" + ", ".join(f"{k}={v}" for k, v in sorted(shown.items())) + ")"
    return label


def render_trace_tree(
    roots: list[TraceNode], *, show_attrs: tuple[str, ...] = ()
) -> str:
    """Draw a span forest with box-drawing branches.

    ``show_attrs`` restricts which attributes print per span (default:
    all except the repetitive ``request_id``, which heads the output via
    the caller).
    """
    lines: list[str] = []

    def walk(node: TraceNode, prefix: str, is_last: bool, is_root: bool) -> None:
        if is_root:
            lines.append(_node_label(node, show_attrs))
            child_prefix = ""
        else:
            branch = "└─ " if is_last else "├─ "
            lines.append(prefix + branch + _node_label(node, show_attrs))
            child_prefix = prefix + ("   " if is_last else "│  ")
        for i, child in enumerate(node.children):
            walk(child, child_prefix, i == len(node.children) - 1, False)

    for root in roots:
        walk(root, "", True, True)
    return "\n".join(lines)


def trace_request_ids(records: list[dict]) -> list[str]:
    """Distinct request ids in a trace, in first-seen order."""
    seen: dict[str, None] = {}
    for rec in records:
        rid = rec.get("attrs", {}).get("request_id")
        if rid is not None and rid not in seen:
            seen[rid] = None
    return list(seen)


# ----------------------------------------------------------------------
# `top`-style live view
# ----------------------------------------------------------------------
#: flight-event fields every event carries; the rest is its detail
_EVENT_HEAD = ("seq", "ts", "mono", "kind", "request_id")


def slo_verdict(result) -> str:
    """``SKIP`` (too little data), ``ok`` or ``VIOLATED`` for an SLOResult."""
    return "SKIP" if result.compliant is None else ("ok" if result.compliant else "VIOLATED")


def event_detail(event: dict) -> str:
    """A flight event's own fields as ``k=v`` pairs (``None`` values omitted)."""
    return " ".join(
        f"{k}={v}" for k, v in event.items() if k not in _EVENT_HEAD and v is not None
    )


def _fmt_value(v: float | None) -> str:
    if v is None:
        return "-"
    return f"{v:.4g}"


def render_top(
    *,
    served=None,
    report=None,
    recorder=None,
    batches: int = 0,
    events: int = 0,
    tail: int = 8,
) -> str:
    """One screenful of service health (pure string; caller clears screen).

    Parameters are all optional so the view degrades gracefully early in
    a run: ``served`` is a :class:`~repro.service.supervisor.ServedRouting`,
    ``report`` the latest :class:`~repro.obs.slo.HealthReport`,
    ``recorder`` a :class:`~repro.obs.recorder.FlightRecorder`.
    """
    lines = ["repro-route serve — live health", ""]
    if served is not None:
        stale = "stale" if served.stale else "fresh"
        lines.append(
            f"state={served.state}  version={served.version} ({stale})  "
            f"pending={served.pending_events}  batches={batches}  events={events}"
        )
        lines.append("")
    if report is not None:
        lines.append(
            f"SLOs: {len(report.evaluated)} evaluated, "
            f"{len(report.violations)} violated "
            f"(compliance {report.compliance_ratio:.0%})"
        )
        header = f"  {'SLO':<24} {'value':>10} {'target':>10} {'burn':>7}  verdict"
        lines.append(header)
        for r in report.results:
            burn = f"{r.burn_rate:.2f}" if r.burn_rate is not None else "-"
            lines.append(
                f"  {r.name:<24} {_fmt_value(r.value):>10} "
                f"{_fmt_value(r.threshold):>10} {burn:>7}  {slo_verdict(r)}"
            )
        lines.append("")
    if recorder is not None and len(recorder):
        lines.append(f"flight recorder (last {min(tail, len(recorder))} of "
                     f"{recorder.recorded} events):")
        for event in recorder.last(tail):
            rid = event.get("request_id") or "-"
            lines.append(
                f"  #{event['seq']:<5} {event['kind']:<18} {rid:<16} {event_detail(event)}"
            )
    return "\n".join(lines) + "\n"
