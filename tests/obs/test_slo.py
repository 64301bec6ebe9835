"""Declarative SLOs, health reports and the sliding-window engine."""

from __future__ import annotations

import gc
import json
import warnings

import pytest

from repro.obs import (
    DEFAULT_CHAOS_SLOS,
    DEFAULT_SERVICE_SLOS,
    FlightRecorder,
    MetricsRegistry,
    SLO,
    SLOEngine,
    evaluate_slos,
    use_recorder,
)
from repro.obs.slo import evaluate_slo, load_slos, slos_for


def _dump(reg):
    return reg.snapshot()


@pytest.fixture
def reg():
    return MetricsRegistry()


LAT = SLO(name="lat_p50", kind="quantile", metric="lat", q=0.5, threshold=2.0)
ERR = SLO(name="errs", kind="ratio", bad_metric="bad", total_metric="total",
          max_ratio=0.25)


def test_slo_validation():
    with pytest.raises(ValueError, match="kind"):
        SLO(name="x", kind="nope")
    with pytest.raises(ValueError, match="metric"):
        SLO(name="x", kind="quantile")
    with pytest.raises(ValueError, match="q must be"):
        SLO(name="x", kind="quantile", metric="m", threshold=1.0, q=1.5)
    with pytest.raises(ValueError, match="bad_metric"):
        SLO(name="x", kind="ratio", bad_metric="b")


def test_slo_round_trips_through_dict():
    assert SLO.from_dict(LAT.to_dict()) == LAT
    assert SLO.from_dict(ERR.to_dict()) == ERR


def test_quantile_slo_met_and_violated(reg):
    h = reg.histogram("lat", buckets=[1, 2, 4])
    for v in (0.5, 0.6, 0.7, 0.8):
        h.observe(v)
    res = evaluate_slo(LAT, _dump(reg))
    assert res.compliant is True
    assert res.value <= 2.0
    assert res.samples == 4
    assert res.burn_rate == pytest.approx(res.value / 2.0)

    for v in (3.0, 3.1, 3.2, 3.3, 3.4, 3.5):
        h.observe(v)
    res = evaluate_slo(LAT, _dump(reg))
    assert res.compliant is False
    assert res.value > 2.0
    assert res.burn_rate > 1.0


def test_ratio_slo_met_and_violated(reg):
    reg.counter("bad").inc(1)
    reg.counter("total").inc(10)
    res = evaluate_slo(ERR, _dump(reg))
    assert res.compliant is True and res.value == pytest.approx(0.1)

    reg.counter("bad").inc(4)  # 5/10 = 0.5 > 0.25
    res = evaluate_slo(ERR, _dump(reg))
    assert res.compliant is False
    assert res.burn_rate == pytest.approx(2.0)


def test_ratio_sums_across_label_sets(reg):
    reg.counter("bad", rung="repair").inc(1)
    reg.counter("bad", rung="full").inc(1)
    reg.counter("total", rung="repair").inc(4)
    reg.counter("total", rung="full").inc(4)
    res = evaluate_slo(ERR, _dump(reg))
    assert res.value == pytest.approx(0.25)
    assert res.samples == 8


def test_slo_skipped_below_min_samples(reg):
    slo = SLO(name="lat", kind="quantile", metric="lat", threshold=1.0, min_samples=5)
    reg.histogram("lat", buckets=[1]).observe(0.5)
    res = evaluate_slo(slo, _dump(reg))
    assert res.compliant is None and res.value is None and res.burn_rate is None
    assert res.samples == 1


def test_missing_metrics_skip_not_violate(reg):
    for slo in (LAT, ERR):
        res = evaluate_slo(slo, _dump(reg))
        assert res.compliant is None, slo.name


def test_zero_threshold_burn_rate(reg):
    slo = SLO(name="deaths", kind="ratio", bad_metric="bad", total_metric="total",
              max_ratio=0.0)
    reg.counter("bad")
    reg.counter("total").inc(5)
    res = evaluate_slo(slo, _dump(reg))
    assert res.compliant is True and res.burn_rate == 0.0

    reg.counter("bad").inc()
    res = evaluate_slo(slo, _dump(reg))
    assert res.compliant is False
    assert res.burn_rate is None  # any burn at a zero budget is total
    # ...and the report must still serialise to strict JSON
    report = evaluate_slos([slo], _dump(reg))
    json.loads(report.to_json())


def test_health_report_verdicts(reg):
    reg.histogram("lat", buckets=[1, 2, 4]).observe(0.5)
    reg.counter("bad").inc(9)
    reg.counter("total").inc(10)
    skipped = SLO(name="never", kind="ratio", bad_metric="nope", total_metric="nada",
                  max_ratio=0.5)
    report = evaluate_slos([LAT, ERR, skipped], _dump(reg))
    assert not report.healthy
    assert [r.name for r in report.violations] == ["errs"]
    assert len(report.evaluated) == 2
    assert report.compliance_ratio == pytest.approx(0.5)
    data = report.to_dict()
    assert data["healthy"] is False
    assert data["evaluated"] == 2 and data["violated"] == 1
    assert len(data["slos"]) == 3


def test_health_report_empty_is_healthy():
    report = evaluate_slos([], {"metrics": []})
    assert report.healthy and report.compliance_ratio == 1.0


def test_health_report_save(tmp_path, reg):
    reg.counter("bad").inc(0)
    reg.counter("total").inc(4)
    path = tmp_path / "health.json"
    evaluate_slos([ERR], _dump(reg)).save(path)
    data = json.loads(path.read_text())
    assert data["healthy"] is True
    assert data["slos"][0]["objective"] == "bad/total <= 0.25"


def test_load_slos(tmp_path):
    path = tmp_path / "slos.json"
    path.write_text(json.dumps([LAT.to_dict(), ERR.to_dict()]))
    assert load_slos(path) == [LAT, ERR]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"not": "a list"}))
    with pytest.raises(ValueError, match="JSON list"):
        load_slos(bad)


def test_load_slos_closes_the_file(tmp_path):
    path = tmp_path / "slos.json"
    path.write_text(json.dumps([LAT.to_dict()]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert load_slos(path) == [LAT]
        gc.collect()
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_default_slo_sets():
    assert len(DEFAULT_SERVICE_SLOS) >= 3
    assert slos_for("service") == list(DEFAULT_SERVICE_SLOS)
    assert slos_for("chaos") == list(DEFAULT_CHAOS_SLOS)
    with pytest.raises(ValueError, match="mode"):
        slos_for("nope")


# ----------------------------------------------------------------------
# sliding-window engine
# ----------------------------------------------------------------------
def test_engine_first_tick_judges_whole_run(reg):
    reg.counter("bad").inc(1)
    reg.counter("total").inc(10)
    engine = SLOEngine([ERR], registry=reg)
    report = engine.tick()
    assert report.results[0].compliant is True
    assert report.results[0].samples == 10


def test_engine_window_forgets_old_violations(reg):
    engine = SLOEngine([ERR], registry=reg, window=2)
    reg.counter("bad").inc(10)
    reg.counter("total").inc(10)
    with use_recorder(FlightRecorder()):
        assert not engine.tick().healthy  # 10/10 over the whole run
        # Two clean ticks later the bad epoch has left the window.
        reg.counter("total").inc(90)
        engine.tick()
        reg.counter("total").inc(100)
        report = engine.tick()
    assert report.healthy
    assert report.results[0].value == pytest.approx(0.0)


def test_engine_publishes_gauges(reg):
    reg.counter("bad").inc(1)
    reg.counter("total").inc(2)  # 0.5 > 0.25 → violated
    engine = SLOEngine([ERR], registry=reg)
    with use_recorder(FlightRecorder()):
        engine.tick()
    assert reg.value("slo_compliance_ratio") == 0.0
    assert reg.gauge("slo_burn_rate", slo="errs").value == pytest.approx(2.0)


def test_engine_violation_events_are_edge_triggered(reg):
    flight = FlightRecorder()
    engine = SLOEngine([ERR], registry=reg, window=8)
    reg.counter("bad").inc(10)
    reg.counter("total").inc(10)
    with use_recorder(flight):
        engine.tick()  # violated: one event
        engine.tick()  # still violated: no new event
        reg.counter("total").inc(10_000)  # recovers
        engine.tick()
        reg.counter("bad").inc(10_000)  # violated again: second event
        engine.tick()
    kinds = [e for e in flight.snapshot() if e["kind"] == "slo_violation"]
    assert len(kinds) == 2
    assert kinds[0]["slo"] == "errs"
    assert engine.ticks == 4


def test_engine_validates_window():
    with pytest.raises(ValueError):
        SLOEngine(window=0)


def test_engine_defaults_to_service_slos_and_global_registry():
    engine = SLOEngine()
    assert [s.name for s in engine.slos] == [s.name for s in DEFAULT_SERVICE_SLOS]
    from repro.obs import get_registry

    assert engine.registry is get_registry()
