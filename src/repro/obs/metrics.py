"""Process-local metrics primitives with a named registry.

The paper's quantitative internals — SSSP's per-destination weight
updates, DFSSSP's cycle/eviction counts, the simulators' packet flow — are
recorded as :class:`Counter`, :class:`Gauge` and :class:`Histogram`
instances in a :class:`MetricsRegistry`. The registry exports either
Prometheus text format (``render_prometheus``) or JSON
(``render_json``), which the CLI's ``--metrics`` flag and the
``repro-route stats`` subcommand consume.

Design notes
------------
* Metrics are identified by ``(name, labels)``; ``registry.counter(...)``
  is get-or-create, so instrumented code can simply ask for its metric
  on every run and keep incrementing the same instance.
* Everything is process-local and synchronous: increments are plain
  attribute updates (no I/O, no sampling), cheap enough for per-Dijkstra
  call sites. Registration takes a lock; updates do not (CPython
  container/attribute ops are sufficient for our single-writer use).
* A module-global default registry backs the engines; tests swap it with
  :func:`set_registry` or wipe it with ``registry.reset()``.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from collections.abc import Sequence

#: Default histogram buckets for wall-clock durations in seconds.
DURATION_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0, float("inf"),
)

#: Default histogram buckets for event/occupancy counts.
COUNT_BUCKETS: tuple[float, ...] = (
    0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000,
    10000, 50000, 100000, float("inf"),
)

#: Default histogram buckets for fractions in [0, 1] (e.g. the share of
#: destinations an incremental repair had to recompute).
RATIO_BUCKETS: tuple[float, ...] = (
    0.0, 0.01, 0.025, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.75, 0.9, 1.0, float("inf"),
)

Labels = tuple[tuple[str, str], ...]


class Metric:
    """Base: a named value with optional key=value labels."""

    kind = "untyped"
    __slots__ = ("name", "help", "labels")

    def __init__(self, name: str, help: str = "", labels: Labels = ()):
        self.name = name
        self.help = help
        self.labels = labels

    def _label_str(self) -> str:
        if not self.labels:
            return ""
        inner = ",".join(f'{k}="{v}"' for k, v in self.labels)
        return "{" + inner + "}"

    def to_entry(self) -> dict:
        """JSON-export form (overridden by Histogram)."""
        return {
            "name": self.name,
            "type": self.kind,
            "labels": dict(self.labels),
            "value": self.value,  # type: ignore[attr-defined]
        }


class Counter(Metric):
    """Monotonically increasing count."""

    kind = "counter"
    __slots__ = ("_value",)

    def __init__(self, name: str, help: str = "", labels: Labels = ()):
        super().__init__(name, help, labels)
        self._value = 0

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        self._value += amount

    @property
    def value(self):
        return self._value


class Gauge(Metric):
    """A value that can go up and down (sizes, last-seen levels)."""

    kind = "gauge"
    __slots__ = ("_value",)

    def __init__(self, name: str, help: str = "", labels: Labels = ()):
        super().__init__(name, help, labels)
        self._value = 0

    def set(self, value: int | float) -> None:
        self._value = value

    def inc(self, amount: int | float = 1) -> None:
        self._value += amount

    def dec(self, amount: int | float = 1) -> None:
        self._value -= amount

    @property
    def value(self):
        return self._value


class Histogram(Metric):
    """Bucketed distribution with exact count/sum/min/max.

    ``buckets`` are upper bounds (``observe(v)`` lands in the first
    bucket with ``v <= le``); a trailing ``+Inf`` bucket is appended if
    missing, Prometheus-style.
    """

    kind = "histogram"
    __slots__ = ("buckets", "_bucket_counts", "_count", "_sum", "_min", "_max")

    def __init__(
        self,
        name: str,
        help: str = "",
        labels: Labels = (),
        buckets: Sequence[float] | None = None,
    ):
        super().__init__(name, help, labels)
        bs = tuple(buckets) if buckets is not None else DURATION_BUCKETS
        if list(bs) != sorted(bs):
            raise ValueError(f"histogram {name} buckets must be sorted: {bs}")
        if not bs or bs[-1] != float("inf"):
            bs = bs + (float("inf"),)
        self.buckets = bs
        self._bucket_counts = [0] * len(bs)
        self._count = 0
        self._sum = 0.0
        self._min = float("inf")
        self._max = float("-inf")

    def observe(self, value: int | float, count: int = 1) -> None:
        """Record ``count`` observations of ``value`` (a caller that tallies
        by value flushes once; the sum is exact for integer values)."""
        self._bucket_counts[bisect_left(self.buckets, value)] += count
        self._count += count
        self._sum += value * count
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    def observe_many(self, values: Sequence[float]) -> None:
        """One :meth:`observe` per value, in order, in one call (the sum
        accumulates left to right, so it is bit-identical)."""
        if values:
            buckets, counts, total = self.buckets, self._bucket_counts, self._sum
            for value in values:
                counts[bisect_left(buckets, value)] += 1
                total += value
            self._count, self._sum = self._count + len(values), total
            self._min, self._max = min(self._min, min(values)), max(self._max, max(values))

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def minimum(self) -> float:
        return self._min if self._count else 0.0

    @property
    def maximum(self) -> float:
        return self._max if self._count else 0.0

    def cumulative_buckets(self) -> list[tuple[float, int]]:
        """(le, cumulative count) per bucket — the Prometheus layout."""
        out, acc = [], 0
        for le, n in zip(self.buckets, self._bucket_counts):
            acc += n
            out.append((le, acc))
        return out

    def quantile(self, q: float) -> float:
        """Quantile estimate with linear interpolation inside the bucket
        holding the q-th observation (Prometheus ``histogram_quantile``
        semantics), clamped to the exact observed min/max. ``q=0`` and
        ``q=1`` return the exact extremes."""
        return quantile_from_buckets(
            self.cumulative_buckets(), q,
            minimum=self.minimum if self._count else None,
            maximum=self.maximum if self._count else None,
        )

    def to_entry(self) -> dict:
        return {
            "name": self.name,
            "type": self.kind,
            "labels": dict(self.labels),
            "count": self._count,
            "sum": self._sum,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "buckets": {_fmt_le(le): acc for le, acc in self.cumulative_buckets()},
        }


def _fmt_le(le: float) -> str:
    if le == float("inf"):
        return "+Inf"
    return f"{le:g}"


def _parse_le(text: str) -> float:
    return float("inf") if text == "+Inf" else float(text)


def quantile_from_buckets(
    cumulative: Sequence[tuple[float, int]],
    q: float,
    *,
    minimum: float | None = None,
    maximum: float | None = None,
) -> float:
    """Interpolated quantile from ``(le, cumulative count)`` pairs.

    Linear interpolation inside the bucket holding the q-th observation:
    the bucket's lower edge is the previous ``le`` (or ``minimum`` for
    the first occupied bucket, ``0.0`` when unknown), its upper edge the
    bucket's ``le`` (or ``maximum`` for the ``+Inf`` bucket, else the
    last finite edge). Results are clamped to ``[minimum, maximum]``
    when those are known, so small histograms never report a value
    outside what was actually observed. Works on live histograms
    (exact ``minimum``/``maximum`` tracked) and on exported/delta'd
    snapshots alike (pass what you have; ``None`` degrades gracefully).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    cumulative = list(cumulative)
    count = cumulative[-1][1] if cumulative else 0
    if count == 0:
        return 0.0
    if q == 0.0 and minimum is not None:
        return minimum
    if q == 1.0 and maximum is not None:
        return maximum
    target = q * count
    prev_le: float | None = None
    prev_acc = 0
    for le, acc in cumulative:
        if acc >= target:
            in_bucket = acc - prev_acc
            pos = (target - prev_acc) / in_bucket if in_bucket else 0.0
            if prev_le is None:
                lo = minimum if minimum is not None else min(0.0, le)
            else:
                lo = prev_le
            if le == float("inf"):
                hi = maximum if maximum is not None else (prev_le or 0.0)
            else:
                hi = le
            value = lo + pos * (hi - lo)
            if minimum is not None:
                value = max(value, minimum)
            if maximum is not None:
                value = min(value, maximum)
            return value
        prev_le, prev_acc = le, acc
    # Unreachable with a trailing +Inf bucket; be safe for foreign data.
    return maximum if maximum is not None else (prev_le or 0.0)  # pragma: no cover


def _entry_key(entry: dict) -> tuple:
    return (entry["name"], tuple(sorted(entry.get("labels", {}).items())))


def _entry_delta(old: dict | None, new: dict) -> dict:
    """``new - old`` for one exported metric entry (see snapshot_delta)."""
    if new["type"] == "gauge" or old is None or old.get("type") != new["type"]:
        return json.loads(json.dumps(new))  # deep copy, decouple from caller
    if new["type"] == "histogram":
        count = max(0, new["count"] - old["count"])
        total = max(0.0, new["sum"] - old["sum"])
        old_buckets = old.get("buckets", {})
        buckets = {
            le: max(0, acc - old_buckets.get(le, 0))
            for le, acc in new.get("buckets", {}).items()
        }
        return {
            "name": new["name"],
            "type": "histogram",
            "labels": dict(new.get("labels", {})),
            "count": count,
            "sum": total,
            "mean": total / count if count else 0.0,
            # Whole-run extremes: valid outer bounds for the window, but
            # not tight — a window cannot re-observe the run's minimum.
            "min": new["min"] if count else 0.0,
            "max": new["max"] if count else 0.0,
            "buckets": buckets,
        }
    # counter (and any future monotone kind)
    out = dict(new)
    out["labels"] = dict(new.get("labels", {}))
    out["value"] = max(0, new["value"] - old["value"])
    return out


def quantile_from_entry(entry: dict, q: float) -> float:
    """Interpolated quantile from an exported histogram entry (a dict in
    the ``--metrics`` dump / :meth:`MetricsRegistry.snapshot` shape)."""
    if entry.get("type") != "histogram":
        raise ValueError(f"{entry.get('name')!r} is not a histogram entry")
    cumulative = sorted(
        ((_parse_le(le), acc) for le, acc in entry.get("buckets", {}).items()),
        key=lambda p: p[0],
    )
    count = entry.get("count", 0)
    return quantile_from_buckets(
        cumulative, q,
        minimum=entry.get("min") if count else None,
        maximum=entry.get("max") if count else None,
    )


class MetricsRegistry:
    """Named collection of metrics with get-or-create accessors."""

    def __init__(self) -> None:
        self._metrics: dict[tuple[str, Labels], Metric] = {}
        self._lock = threading.Lock()

    # -- creation ------------------------------------------------------
    def _get_or_create(self, cls, name: str, help: str, labels: dict, **kwargs) -> Metric:
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        with self._lock:
            m = self._metrics.get(key)
            if m is None:
                m = cls(name, help, key[1], **kwargs)
                self._metrics[key] = m
            elif type(m) is not cls:
                raise ValueError(
                    f"metric {name!r} already registered as {m.kind}, not {cls.kind}"
                )
            return m

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self, name: str, help: str = "", buckets: Sequence[float] | None = None, **labels
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, labels, buckets=buckets)

    # -- access --------------------------------------------------------
    def get(self, name: str, **labels) -> Metric | None:
        key = (name, tuple(sorted((k, str(v)) for k, v in labels.items())))
        return self._metrics.get(key)

    def value(self, name: str, default=None, **labels):
        """Counter/gauge value (or histogram count) by name, for tests
        and quick assertions; ``default`` when absent."""
        m = self.get(name, **labels)
        if m is None:
            return default
        if isinstance(m, Histogram):
            return m.count
        return m.value  # type: ignore[attr-defined]

    def metrics(self) -> list[Metric]:
        """All metrics, sorted by (name, labels) for stable output."""
        return [self._metrics[k] for k in sorted(self._metrics)]

    def __len__(self) -> int:
        return len(self._metrics)

    def reset(self) -> None:
        """Drop every metric (tests; fresh CLI runs share one process)."""
        with self._lock:
            self._metrics.clear()

    # -- snapshots -----------------------------------------------------
    def snapshot(self) -> dict:
        """Point-in-time copy of every metric, in the ``--metrics`` JSON
        dump shape (``{"metrics": [entry, ...]}``). Entries are plain
        dicts decoupled from the live objects, so two snapshots bracket
        an interval and :meth:`snapshot_delta` diffs them."""
        return self.to_json()

    @staticmethod
    def snapshot_delta(old: dict, new: dict) -> dict:
        """Difference of two :meth:`snapshot` dumps (``new - old``).

        Counters and histogram counts/sums/buckets subtract (clamped at
        zero, so a registry reset between snapshots degrades to ``new``
        rather than going negative); gauges keep ``new``'s value (they
        are levels, not totals); histogram ``min``/``max``/``mean`` are
        recomputed for the window where possible (``mean`` exactly,
        ``min``/``max`` approximated by ``new``'s whole-run extremes —
        still valid outer bounds for the window). Metrics absent from
        ``old`` are treated as starting at zero; metrics absent from
        ``new`` are dropped. This is the one place soaks and the SLO
        engine get windowed rates from cumulative metrics.
        """
        old_by_key = {_entry_key(e): e for e in old.get("metrics", [])}
        out = []
        for entry in new.get("metrics", []):
            prev = old_by_key.get(_entry_key(entry))
            out.append(_entry_delta(prev, entry))
        return {"metrics": out}

    # -- export --------------------------------------------------------
    def to_json(self) -> dict:
        return {"metrics": [m.to_entry() for m in self.metrics()]}

    def render_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_json(), indent=indent)

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (one HELP/TYPE per name)."""
        lines: list[str] = []
        seen_header: set[str] = set()
        for m in self.metrics():
            if m.name not in seen_header:
                seen_header.add(m.name)
                if m.help:
                    lines.append(f"# HELP {m.name} {m.help}")
                lines.append(f"# TYPE {m.name} {m.kind}")
            ls = m._label_str()
            if isinstance(m, Histogram):
                base = dict(m.labels)
                for le, acc in m.cumulative_buckets():
                    bl = ",".join(
                        f'{k}="{v}"' for k, v in (*sorted(base.items()), ("le", _fmt_le(le)))
                    )
                    lines.append(f"{m.name}_bucket{{{bl}}} {acc}")
                lines.append(f"{m.name}_sum{ls} {m.sum:g}")
                lines.append(f"{m.name}_count{ls} {m.count}")
            else:
                lines.append(f"{m.name}{ls} {m.value:g}")
        return "\n".join(lines) + ("\n" if lines else "")


_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry the engines record into."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry; returns the previous one."""
    global _default_registry
    old = _default_registry
    _default_registry = registry
    return old
