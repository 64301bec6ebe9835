"""CLI subcommands end to end (in process)."""

import pytest

from repro.cli import main
from repro.obs import get_registry


@pytest.fixture(autouse=True)
def fresh_metrics():
    """main() runs in-process; the global registry would otherwise
    accumulate counts across tests."""
    get_registry().reset()
    yield
    get_registry().reset()


def test_topo_generates_and_saves(tmp_path, capsys):
    out = tmp_path / "fab.json"
    rc = main(
        [
            "topo",
            "--family",
            "random",
            "--switches",
            "8",
            "--links",
            "16",
            "--terminals-per-switch",
            "2",
            "--seed",
            "1",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    assert out.exists()
    text = capsys.readouterr().out
    assert "switches:  8" in text


def test_route_command_loads_saved_fabric(tmp_path, capsys):
    out = tmp_path / "fab.json"
    main(["topo", "--family", "ring", "--switches", "5",
          "--terminals-per-switch", "1", "--out", str(out)])
    capsys.readouterr()
    rc = main(["route", "--fabric", str(out), "--engines", "minhop,dfsssp,ftree"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "minhop" in text
    assert "dfsssp" in text
    assert "failed" in text  # ftree on a ring


#: the routing subcommands, each with the arguments it requires
ROUTING_COMMANDS = {
    "route": [], "simulate": [], "throughput": [], "des": ["--scenario", "s.json"],
    "chaos": [], "serve": [], "deadlock": [], "certify": [],
}


@pytest.mark.parametrize("flag", [("--kernel", "numpy"), ("--cdg", "rebuild"),
                                  ("--workers", "2")], ids=lambda f: f[0])
@pytest.mark.parametrize("command", sorted(ROUTING_COMMANDS))
def test_engine_configuration_flags_are_usage_errors(command, flag, capsys):
    """The routing commands run the engines' one production configuration."""
    with pytest.raises(SystemExit) as exc:
        main([command, *ROUTING_COMMANDS[command], *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def test_fleet_soak_keeps_its_worker_count():
    """``fleet-soak --workers`` is the fleet's process count, not an engine knob."""
    from tests.data.cli_outputs_gen import cli_parser

    assert cli_parser().parse_args(["fleet-soak", "--workers", "3"]).workers == 3


def test_simulate_command(capsys):
    rc = main(
        [
            "simulate",
            "--family",
            "ring",
            "--switches",
            "6",
            "--terminals-per-switch",
            "1",
            "--engines",
            "minhop,dfsssp",
            "--patterns",
            "5",
        ]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "eBB" in text


def test_vls_command(capsys):
    rc = main(
        ["vls", "--family", "ring", "--switches", "6", "--terminals-per-switch", "1"]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "dfsssp/weakest" in text
    assert "lash" in text


def test_deadlock_command(capsys):
    rc = main(
        [
            "deadlock",
            "--family",
            "ring",
            "--switches",
            "5",
            "--terminals-per-switch",
            "1",
            "--shift",
            "2",
        ]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "deadlock" in text
    assert "delivered" in text


def test_error_reported_as_exit_code(capsys):
    rc = main(["topo", "--family", "nonsense"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_cluster_family(capsys):
    rc = main(["topo", "--family", "deimos", "--scale", "0.05"])
    assert rc == 0
    assert "deimos" in capsys.readouterr().out.lower() or True


def test_torus_dims_parsing(capsys):
    rc = main(["topo", "--family", "torus", "--dims", "3x3",
               "--terminals-per-switch", "1"])
    assert rc == 0
    assert "switches:  9" in capsys.readouterr().out


def test_bisection_command(capsys):
    rc = main(
        ["bisection", "--family", "ring", "--switches", "8", "--terminals-per-switch", "1"]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "bisection width   : 2" in text
    assert "exact" in text


def test_throughput_command(capsys):
    rc = main(
        [
            "throughput",
            "--family", "random",
            "--switches", "8",
            "--links", "18",
            "--terminals-per-switch", "2",
            "--seed", "2",
            "--rates", "0.2",
            "--warmup", "50",
            "--measure", "150",
        ]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "delivered" in text
    assert "False" in text  # no deadlock for dfsssp


def test_orcs_command(capsys):
    rc = main(
        [
            "orcs",
            "--family", "ring",
            "--switches", "6",
            "--terminals-per-switch", "1",
            "--pattern", "shift_2",
            "--metric", "max_congestion",
            "--runs", "3",
        ]
    )
    assert rc == 0
    text = capsys.readouterr().out
    assert "pattern: shift_2" in text
    assert "mean=" in text


CHAOS_RANDOM = [
    "chaos", "--family", "random", "--switches", "12", "--links", "26",
    "--terminals-per-switch", "2", "--seed", "11",
    "--events", "10", "--chaos-seed", "7",
]


def test_chaos_command_writes_report(tmp_path, capsys):
    import json

    out = tmp_path / "chaos.json"
    rc = main(CHAOS_RANDOM + ["--out", str(out)])
    assert rc == 0  # exit code mirrors survival
    text = capsys.readouterr().out
    assert "chaos soak: dfsssp" in text
    assert "survived" in text
    data = json.loads(out.read_text())
    assert data["summary"]["events_applied"] == 10
    assert data["summary"]["survived"] is True
    assert len(data["events"]) == 10


def test_chaos_command_json_summary(capsys):
    import json

    rc = main(CHAOS_RANDOM + ["--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["engine"] == "dfsssp"
    assert data["incremental_repairs"] > 0


def test_chaos_command_metrics(capsys):
    rc = main(CHAOS_RANDOM + ["--metrics", "-"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "# TYPE chaos_events_applied counter" in text
    assert "chaos_events_applied 10" in text
    assert "repair_destinations_recomputed" in text


ROUTE_RING = [
    "route", "--family", "ring", "--switches", "5",
    "--terminals-per-switch", "2", "--engine", "dfsssp",
]


def test_route_metrics_to_stdout(capsys):
    rc = main(ROUTE_RING + ["--metrics", "-"])
    assert rc == 0
    text = capsys.readouterr().out
    assert "# TYPE sssp_sources_routed counter" in text
    assert "sssp_sources_routed 10" in text
    assert "dfsssp_cycles_broken 2" in text
    assert "dfsssp_layers_used" in text


def test_route_metrics_json_and_stats_roundtrip(tmp_path, capsys):
    import json

    metrics = tmp_path / "metrics.json"
    rc = main(ROUTE_RING + ["--metrics", str(metrics)])
    assert rc == 0
    data = json.loads(metrics.read_text())
    names = {e["name"] for e in data["metrics"]}
    assert {"sssp_sources_routed", "dfsssp_cycles_broken", "dfsssp_layers_used"} <= names

    capsys.readouterr()
    rc = main(["stats", str(metrics)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "dfsssp_cycles_broken" in text
    assert "sssp_dijkstra_seconds_count" in text  # histograms expand to rows


def test_route_trace_jsonl(tmp_path, capsys):
    import json

    trace = tmp_path / "trace.jsonl"
    rc = main(ROUTE_RING + ["--trace", str(trace)])
    assert rc == 0
    records = [json.loads(line) for line in trace.read_text().splitlines()]
    assert records, "trace file should not be empty"
    assert {r["event"] for r in records} == {"start", "stop"}
    names = {r["name"] for r in records}
    assert {"dfsssp.sssp", "dfsssp.layers", "sssp.dijkstra"} <= names


def test_route_json_output_roundtrips(capsys):
    import json

    rc = main(ROUTE_RING + ["--json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["columns"]
    row = data["rows"][0]
    assert row["engine"] == "dfsssp"


def test_simulate_json_output_roundtrips(capsys):
    import json

    rc = main(
        ["simulate", "--family", "ring", "--switches", "5",
         "--terminals-per-switch", "1", "--engines", "minhop",
         "--patterns", "3", "--json"]
    )
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["rows"][0]["engine"] == "minhop"


def test_stats_rejects_non_metrics_file(tmp_path, capsys):
    bad = tmp_path / "not_metrics.json"
    bad.write_text('{"rows": []}')
    rc = main(["stats", str(bad)])
    assert rc == 1
    assert "error" in capsys.readouterr().err
