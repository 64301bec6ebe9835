"""CLI telemetry surfaces: health gate, trace trees, flight dumps, top view."""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.obs import get_recorder, get_registry

TOPO = [
    "--family", "random", "--switches", "8", "--links", "18",
    "--terminals-per-switch", "2", "--seed", "3",
]


@pytest.fixture(autouse=True)
def fresh_telemetry():
    get_registry().reset()
    get_recorder().clear()
    yield
    get_registry().reset()
    get_recorder().clear()


def _serve(tmp_path, *extra):
    """A small healthy soak that leaves metrics + trace behind."""
    metrics = tmp_path / "metrics.json"
    trace = tmp_path / "trace.jsonl"
    rc = main(
        ["serve", *TOPO, "--events", "4", "--chaos-seed", "7", "--json",
         "--metrics", str(metrics), "--trace", str(trace), *extra]
    )
    assert rc == 0
    return metrics, trace


def test_health_command_table_and_exit_code(tmp_path, capsys):
    metrics, _ = _serve(tmp_path)
    capsys.readouterr()
    rc = main(["health", str(metrics)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "healthy: True" in out
    assert "route_latency_p99" in out
    # ≥3 declarative SLOs judged from the recorded histograms/counters
    assert out.count(" ok") + out.count("VIOLATED") >= 3


def test_health_command_json_and_report_out(tmp_path, capsys):
    metrics, _ = _serve(tmp_path)
    out_path = tmp_path / "health.json"
    capsys.readouterr()
    rc = main(["health", str(metrics), "--json", "--out", str(out_path)])
    assert rc == 0
    report = json.loads(capsys.readouterr().out)
    assert report["healthy"] is True and report["evaluated"] >= 3
    assert json.loads(out_path.read_text()) == report


def test_health_command_fails_on_violation(tmp_path, capsys):
    metrics, _ = _serve(tmp_path)
    # A custom SLO no real soak can meet: zero batches allowed.
    slos = tmp_path / "slos.json"
    slos.write_text(json.dumps([{
        "name": "no_batches_ever", "kind": "ratio", "description": "",
        "bad_metric": "service_batches", "total_metric": "service_batches",
        "max_ratio": 0.0, "metric": None, "q": 0.99, "threshold": None,
        "min_samples": 1,
    }]))
    capsys.readouterr()
    rc = main(["health", str(metrics), "--slos", str(slos)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "VIOLATED" in out and "healthy: False" in out


def test_health_command_rejects_non_metrics_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["health", str(bad)]) == 1
    assert "not a metrics dump" in capsys.readouterr().err


def test_stats_trace_tree_filters_by_request(tmp_path, capsys):
    _, trace = _serve(tmp_path)
    capsys.readouterr()
    assert main(["stats", "--trace-tree", str(trace)]) == 0
    full = capsys.readouterr().out
    assert "service.batch" in full and "service.attempt" in full

    from repro.obs.export import read_trace, trace_request_ids

    rids = trace_request_ids(read_trace(str(trace)))
    assert rids, "soak trace carries request ids"
    batch_rid = rids[1]  # 0 is the initial route
    assert main(["stats", "--trace-tree", str(trace), "--request", batch_rid]) == 0
    filtered = capsys.readouterr().out
    assert f"request {batch_rid}:" in filtered
    assert len(filtered) < len(full)


def test_stats_trace_tree_unknown_request_lists_known(tmp_path, capsys):
    _, trace = _serve(tmp_path)
    capsys.readouterr()
    assert main(["stats", "--trace-tree", str(trace), "--request", "req-nope"]) == 1
    err = capsys.readouterr().err
    assert "req-nope" in err and "known:" in err and "svc-" in err


def test_stats_flight_renders_dump(tmp_path, capsys):
    flight = tmp_path / "flight.json"
    _serve(tmp_path, "--flight-out", str(flight))
    capsys.readouterr()
    assert main(["stats", "--flight", str(flight)]) == 0
    out = capsys.readouterr().out
    assert "flight recorder:" in out
    assert "routing_accepted" in out and "state_transition" in out


def test_stats_flight_reads_stdin(tmp_path, capsys, monkeypatch):
    """``--flight -`` reads the dump from stdin, like ``stats``, ``health``
    and ``des`` do for their inputs."""
    flight = tmp_path / "flight.json"
    _serve(tmp_path, "--flight-out", str(flight))
    capsys.readouterr()
    assert main(["stats", "--flight", str(flight)]) == 0
    from_file = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(flight.read_text()))
    assert main(["stats", "--flight", "-"]) == 0
    from_stdin = capsys.readouterr().out
    assert from_stdin.splitlines()[0] == from_file.splitlines()[0]
    assert "routing_accepted" in from_stdin and "state_transition" in from_stdin


def test_stats_still_requires_an_input(capsys):
    assert main(["stats"]) == 1
    assert "needs a metrics file" in capsys.readouterr().err


def test_serve_top_prints_live_view(tmp_path, capsys):
    _serve(tmp_path, "--top")
    out = capsys.readouterr().out
    assert "repro-route serve — live health" in out
    assert "route_latency_p99" in out
    assert "flight recorder" in out
    assert "\x1b" not in out  # non-tty: no ANSI clear sequences


def test_chaos_telemetry_artifacts(tmp_path, capsys):
    flight = tmp_path / "flight.json"
    health = tmp_path / "health.json"
    rc = main(
        ["chaos", *TOPO, "--events", "8", "--chaos-seed", "42", "--json",
         "--flight-out", str(flight), "--health-out", str(health)]
    )
    assert rc == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["survived"]
    kinds = {e["kind"] for e in json.loads(flight.read_text())["events"]}
    assert "fault_injected" in kinds
    report = json.loads(health.read_text())
    # chaos-mode SLOs: repair latency + engine survival
    assert {r["name"] for r in report["slos"]} == {
        "repair_latency_p99", "engine_survival",
    }
    assert report["healthy"] is True


def test_chaos_flight_out_dumps_on_sigterm(tmp_path, monkeypatch, capsys):
    # Patched so the test process keeps its own SIGTERM handling.
    import repro.obs

    installed = []
    monkeypatch.setattr(repro.obs, "install_signal_dump", installed.append)
    flight = tmp_path / "flight.json"
    rc = main(["chaos", *TOPO, "--events", "2", "--flight-out", str(flight)])
    assert rc == 0
    assert installed == [str(flight)]
