"""Scenario schema, per-engine sweep runner, and the ``des`` subcommand."""

import json

import pytest

from repro.cli import main
from repro.des import build_scenario_fabric, normalize_scenario, run_scenario
from repro.exceptions import SimulationError
from repro.obs import get_registry


@pytest.fixture(autouse=True)
def fresh_metrics():
    get_registry().reset()
    yield
    get_registry().reset()


SCENARIO = {
    "name": "smoke",
    "topology": {"family": "ring", "switches": 5, "terminals_per_switch": 2},
    "engines": ["dfsssp", "sssp"],
    "workload": {"kind": "mice", "count": 20, "size_bytes": 1024, "window_s": 1e-5},
    "buffer_packets": 8,
    "seed": 4,
}


# ---------------------------------------------------------------------------
# Schema validation
# ---------------------------------------------------------------------------
def test_normalize_fills_defaults():
    spec = normalize_scenario({"topology": {"family": "ring"}, "workload": {"kind": "mice"}})
    assert spec["engines"] == ["dfsssp", "sssp"]
    assert spec["buffer_packets"] == 16
    assert spec["link"]["bandwidth_gbps"] == 100.0
    assert spec["faults"] == []


@pytest.mark.parametrize(
    ("spec", "match"),
    [
        ([], "must be a dict"),
        ({"topology": {}, "frobnicate": 1}, "unknown scenario keys"),
        ({}, "needs a 'topology'"),
        ({"topology": {}, "workload": {}}, "needs a 'kind'"),
        ({"topology": {}, "link": {"latency_ms": 1}}, "unknown link keys"),
        ({"topology": {}, "engines": []}, "at least one engine"),
        ({"topology": {}, "engines": ["ospf"]}, "unknown engine"),
    ],
)
def test_normalize_rejects_malformed_scenarios(spec, match):
    with pytest.raises(SimulationError, match=match):
        normalize_scenario(spec)


def test_engine_options_are_not_a_scenario_key():
    """Every engine runs its production configuration; the removed
    ``engine_opts`` key is named, not silently ignored."""
    with pytest.raises(SimulationError, match=r"unknown scenario keys \['engine_opts'\]"):
        normalize_scenario({**SCENARIO, "engine_opts": {"kernel": "python"}})


def test_build_scenario_fabric_families():
    ring = build_scenario_fabric({"family": "ring", "switches": 4})
    assert ring.num_switches == 4
    torus = build_scenario_fabric({"family": "torus", "dims": [3, 3]})
    assert torus.num_switches == 9
    with pytest.raises(SimulationError, match="unknown topology family"):
        build_scenario_fabric({"family": "moebius"})
    with pytest.raises(SimulationError, match="unknown topology options"):
        build_scenario_fabric({"family": "ring", "radius": 2})


# ---------------------------------------------------------------------------
# run_scenario
# ---------------------------------------------------------------------------
def test_run_scenario_compares_engines():
    report = run_scenario(SCENARIO)
    assert set(report.results) == {"dfsssp", "sssp"}
    for name, res in report.results.items():
        assert res["status"] == "completed"
        assert res["flows_completed"] == res["flows_released"] == 20
        assert res["fct"]["p99"] > 0
        assert res["workload"]["kind"] == "mice"
    assert report.results["dfsssp"]["deadlock_free"]
    assert set(report.ranking()) == {"dfsssp", "sssp"}
    json.dumps(report.to_dict())  # fully serialisable


def test_run_scenario_records_engine_failures_and_ranks_them_last():
    spec = {**SCENARIO, "engines": ["dfsssp", "ftree"]}  # ftree needs a fat tree
    report = run_scenario(spec)
    assert "error" in report.results["ftree"]
    assert "not a fat tree" in report.results["ftree"]["error"]
    assert "error" not in report.results["dfsssp"]
    assert report.ranking()[-1] == "ftree"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def test_cli_des_renders_table_and_writes_report(tmp_path, capsys):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(SCENARIO))
    out = tmp_path / "report.json"
    rc = main(["des", "--scenario", str(scen), "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "des: smoke" in text
    assert "dfsssp" in text and "sssp" in text
    doc = json.loads(out.read_text())
    assert doc["scenario"]["name"] == "smoke"
    assert set(doc["results"]) == {"dfsssp", "sssp"}


def test_cli_des_json_list_and_event_log(tmp_path, capsys):
    second = {
        **SCENARIO,
        "name": "torus-fault",
        "topology": {"family": "torus", "dims": [3, 3]},
        "engines": ["dfsssp"],
        "record_events": True,
        "faults": [{"at_s": 2e-6}],
    }
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps([SCENARIO, second]))
    events = tmp_path / "events.json"
    rc = main(["des", "--scenario", str(scen), "--json", "--events-out", str(events)])
    assert rc == 0
    docs = json.loads(capsys.readouterr().out)
    assert [d["scenario"]["name"] for d in docs] == ["smoke", "torus-fault"]
    log = json.loads(events.read_text())
    assert list(log["torus-fault"]) == ["dfsssp"]
    kinds = {entry[1] for entry in log["torus-fault"]["dfsssp"]}
    assert "fault" in kinds
    assert log["smoke"] == {}  # record_events off for the first scenario


def test_cli_des_rejects_bad_scenario(tmp_path, capsys):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps({"topology": {}, "bogus": True}))
    rc = main(["des", "--scenario", str(scen)])
    assert rc == 1
    assert "unknown scenario keys" in capsys.readouterr().err


def test_cli_des_metrics_artifact(tmp_path):
    scen = tmp_path / "scen.json"
    scen.write_text(json.dumps(SCENARIO))
    metrics = tmp_path / "metrics.json"
    rc = main(["des", "--scenario", str(scen), "--metrics", str(metrics)])
    assert rc == 0
    doc = json.loads(metrics.read_text())
    names = {m["name"] for m in doc["metrics"]}
    assert {"des_packets_injected", "des_packets_delivered", "des_flows_completed",
            "des_fct_seconds"} <= names
