"""Counter/Gauge/Histogram math, registry semantics and exporters."""

import json
import math

import pytest

from repro.obs import MetricsRegistry


@pytest.fixture
def reg():
    return MetricsRegistry()


def test_counter_basics(reg):
    c = reg.counter("requests", "total requests")
    c.inc()
    c.inc(4)
    assert c.value == 5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_counter_get_or_create_returns_same_instance(reg):
    assert reg.counter("x") is reg.counter("x")
    assert len(reg) == 1


def test_labels_distinguish_metrics(reg):
    a = reg.counter("evicted", heuristic="weakest")
    b = reg.counter("evicted", heuristic="strongest")
    assert a is not b
    a.inc(3)
    assert reg.value("evicted", heuristic="weakest") == 3
    assert reg.value("evicted", heuristic="strongest") == 0


def test_type_conflict_raises(reg):
    reg.counter("thing")
    with pytest.raises(ValueError, match="already registered"):
        reg.gauge("thing")


def test_gauge_set_inc_dec(reg):
    g = reg.gauge("layers")
    g.set(8)
    g.inc(2)
    g.dec()
    assert g.value == 9


def test_histogram_math(reg):
    h = reg.histogram("lat", buckets=[1, 2, 5])
    for v in (0.5, 1.0, 1.5, 4.0, 100.0):
        h.observe(v)
    assert h.count == 5
    assert h.sum == pytest.approx(107.0)
    assert h.mean == pytest.approx(21.4)
    assert h.minimum == 0.5
    assert h.maximum == 100.0
    # buckets are upper bounds; +Inf is appended automatically
    cum = dict((le, n) for le, n in h.cumulative_buckets())
    assert cum[1] == 2  # 0.5, 1.0
    assert cum[2] == 3
    assert cum[5] == 4
    assert cum[float("inf")] == 5


def test_histogram_observe_with_count_equals_repeated_observes(reg):
    one_by_one = reg.histogram("a", buckets=[1, 2, 5])
    batched = reg.histogram("b", buckets=[1, 2, 5])
    for value, count in ((3, 4), (1, 1), (7, 2)):
        for _ in range(count):
            one_by_one.observe(value)
        batched.observe(value, count)
    for prop in ("count", "sum", "minimum", "maximum"):
        assert getattr(batched, prop) == getattr(one_by_one, prop)
    assert batched.cumulative_buckets() == one_by_one.cumulative_buckets()


@pytest.mark.parametrize(
    "values",
    [[], [0.1, 0.2, 0.3, 1e-17, 2.0, 1.0, 7.5, 0.1], [3e-6 * i for i in range(1, 500)]],
    ids=["empty", "unordered", "many"],
)
def test_histogram_observe_many_equals_repeated_observes(reg, values):
    one_by_one = reg.histogram("a", buckets=[1e-5, 0.25, 1, 2, 5])
    batched = reg.histogram("b", buckets=[1e-5, 0.25, 1, 2, 5])
    for h in (one_by_one, batched):
        h.observe(0.7)  # a histogram that already holds observations
    for value in values:
        one_by_one.observe(value)
    batched.observe_many(values)
    # `==`, not approx: the sum accumulates left to right, like observe.
    for prop in ("count", "sum", "minimum", "maximum"):
        assert getattr(batched, prop) == getattr(one_by_one, prop)
    assert batched.cumulative_buckets() == one_by_one.cumulative_buckets()


def test_histogram_quantile(reg):
    h = reg.histogram("q", buckets=[1, 2, 4, 8])
    for v in (1, 1, 2, 2, 2, 2, 3, 3, 7, 7):
        h.observe(v)
    assert h.quantile(0.0) == 1
    # target = 5th obs; bucket (1, 2] holds obs 3..6 → 1 + (3/4) * (2-1)
    assert h.quantile(0.5) == pytest.approx(1.75)
    assert h.quantile(1.0) == 7  # clamped to observed max, not bucket edge
    with pytest.raises(ValueError):
        h.quantile(1.5)


def test_quantile_interpolates_linearly_within_bucket(reg):
    # 100 uniform observations in (0, 10] — every decile should land
    # within one bucket-width of the exact value.
    h = reg.histogram("u", buckets=[2.0, 4.0, 6.0, 8.0, 10.0])
    for i in range(1, 101):
        h.observe(i / 10.0)
    for q in (0.1, 0.25, 0.5, 0.75, 0.9):
        assert h.quantile(q) == pytest.approx(10.0 * q, abs=0.2)
    assert h.quantile(0.0) == pytest.approx(0.1)
    assert h.quantile(1.0) == pytest.approx(10.0)


def test_quantile_clamped_to_observed_extremes(reg):
    # A single observation far below its bucket edge must never report
    # a value outside [min, max].
    h = reg.histogram("one", buckets=[100.0])
    h.observe(3.0)
    for q in (0.0, 0.5, 0.99, 1.0):
        assert h.quantile(q) == 3.0


def test_quantile_from_exported_entry_matches_live(reg):
    from repro.obs import quantile_from_entry

    h = reg.histogram("lat", buckets=[1, 2, 4])
    for v in (0.5, 1.5, 1.6, 3.0, 9.0):
        h.observe(v)
    entry = json.loads(json.dumps(h.to_entry()))  # through-JSON round trip
    for q in (0.0, 0.3, 0.5, 0.9, 1.0):
        assert quantile_from_entry(entry, q) == pytest.approx(h.quantile(q))


def test_snapshot_delta_counters_and_gauges(reg):
    c = reg.counter("reqs", engine="a")
    g = reg.gauge("depth")
    c.inc(5)
    g.set(3)
    old = reg.snapshot()
    c.inc(7)
    g.set(11)
    delta = MetricsRegistry.snapshot_delta(old, reg.snapshot())
    by_name = {(e["name"], tuple(sorted(e["labels"].items()))): e for e in delta["metrics"]}
    assert by_name[("reqs", (("engine", "a"),))]["value"] == 7  # counters subtract
    assert by_name[("depth", ())]["value"] == 11  # gauges keep the new level


def test_snapshot_delta_histograms_subtract_buckets(reg):
    h = reg.histogram("lat", buckets=[1, 2])
    h.observe(0.5)
    h.observe(5.0)
    old = reg.snapshot()
    h.observe(1.5)
    h.observe(1.6)
    delta = MetricsRegistry.snapshot_delta(old, reg.snapshot())
    entry = next(e for e in delta["metrics"] if e["name"] == "lat")
    assert entry["count"] == 2
    assert entry["sum"] == pytest.approx(3.1)
    assert entry["mean"] == pytest.approx(1.55)
    assert entry["buckets"] == {"1": 0, "2": 2, "+Inf": 2}


def test_snapshot_delta_new_metric_counts_from_zero(reg):
    old = reg.snapshot()
    reg.counter("born_later").inc(4)
    delta = MetricsRegistry.snapshot_delta(old, reg.snapshot())
    assert delta["metrics"][0]["value"] == 4


def test_snapshot_delta_never_goes_negative(reg):
    reg.counter("c").inc(10)
    old = reg.snapshot()
    reg.reset()
    reg.counter("c").inc(2)  # registry restarted between snapshots
    delta = MetricsRegistry.snapshot_delta(old, reg.snapshot())
    assert delta["metrics"][0]["value"] == 0


def test_empty_histogram_is_zero_not_nan(reg):
    h = reg.histogram("empty")
    assert h.mean == 0.0
    assert h.minimum == 0.0
    assert h.maximum == 0.0
    assert h.quantile(0.5) == 0.0
    assert not math.isnan(h.mean)


def test_unsorted_buckets_rejected(reg):
    with pytest.raises(ValueError):
        reg.histogram("bad", buckets=[5, 1])


def test_registry_value_and_get(reg):
    assert reg.get("missing") is None
    assert reg.value("missing") is None
    assert reg.value("missing", default=0) == 0
    reg.counter("c").inc(2)
    assert reg.value("c") == 2
    h = reg.histogram("h")
    h.observe(1.0)
    assert reg.value("h") == 1  # histograms report their count


def test_reset(reg):
    reg.counter("c").inc()
    reg.reset()
    assert len(reg) == 0
    assert reg.value("c") is None


def test_prometheus_export(reg):
    reg.counter("hits", "hit count").inc(3)
    reg.gauge("depth").set(2.5)
    h = reg.histogram("lat", "latency", buckets=[1, 2])
    h.observe(0.5)
    h.observe(5.0)
    text = reg.render_prometheus()
    assert "# HELP hits hit count" in text
    assert "# TYPE hits counter" in text
    assert "hits 3" in text
    assert "depth 2.5" in text
    assert '_bucket{le="1"} 1' in text
    assert '_bucket{le="+Inf"} 2' in text
    assert "lat_sum 5.5" in text
    assert "lat_count 2" in text
    assert text.endswith("\n")


def test_prometheus_labels(reg):
    reg.counter("evicted", heuristic="weakest").inc(7)
    assert 'evicted{heuristic="weakest"} 7' in reg.render_prometheus()


def test_json_export_round_trips(reg):
    reg.counter("c", "help text", kind="a").inc(2)
    reg.histogram("h", buckets=[1]).observe(0.5)
    data = json.loads(reg.render_json())
    by_name = {e["name"]: e for e in data["metrics"]}
    assert by_name["c"]["type"] == "counter"
    assert by_name["c"]["value"] == 2
    assert by_name["c"]["labels"] == {"kind": "a"}
    assert by_name["h"]["count"] == 1
    assert by_name["h"]["buckets"]["+Inf"] == 1


def test_empty_registry_exports(reg):
    assert reg.render_prometheus() == ""
    assert json.loads(reg.render_json()) == {"metrics": []}
