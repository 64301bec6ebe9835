"""Wire protocol: picklability and dict round-trips."""

from __future__ import annotations

import pickle

from repro import topologies
from repro.fleet import (
    OP_FAULT,
    OP_HEALTH,
    OP_QUERY,
    FleetRequest,
    FleetResponse,
    ShardSpec,
    WorkerReady,
)
from repro.fleet.messages import OP_SHUTDOWN, OPS, SOURCE_DEGRADED_LKG, SOURCE_WORKER


def test_ops_enumeration():
    assert OPS == (OP_QUERY, OP_FAULT, OP_HEALTH, OP_SHUTDOWN)


def test_shard_spec_pickles_with_fabric():
    fabric = topologies.ring(4, 1)
    spec = ShardSpec(fabric_id="fab-00", fabric=fabric, engine="dfsssp")
    clone = pickle.loads(pickle.dumps(spec))
    assert clone.fabric_id == "fab-00"
    assert clone.engine == "dfsssp"
    assert clone.fabric.num_switches == fabric.num_switches


def test_request_and_response_pickle_round_trip():
    req = FleetRequest(
        request_id="r-1", op=OP_QUERY, fabric_id="fab-00",
        tenant="t0", payload={"x": 1},
    )
    assert pickle.loads(pickle.dumps(req)) == req

    resp = FleetResponse(
        request_id="r-1", op=OP_QUERY, fabric_id="fab-00", ok=True,
        payload={"serving": {"version": 3}}, stale=True, degraded=True,
        source=SOURCE_DEGRADED_LKG, worker=1, attempts=2, latency_s=0.5,
    )
    clone = pickle.loads(pickle.dumps(resp))
    assert clone == resp
    d = clone.to_dict()
    assert d["source"] == SOURCE_DEGRADED_LKG
    assert d["payload"]["serving"]["version"] == 3


def test_response_defaults_mark_fresh_worker_answer():
    resp = FleetResponse(request_id="r", op=OP_HEALTH, fabric_id="f", ok=True)
    assert resp.source == SOURCE_WORKER
    assert not resp.stale and not resp.degraded
    assert resp.error is None


def test_worker_ready_to_dict():
    ready = WorkerReady(
        worker=0, pid=123,
        shards={"fab-00": {"restored": True, "verify_method": "certificate"}},
    )
    d = ready.to_dict()
    assert d["worker"] == 0 and d["pid"] == 123
    assert d["shards"]["fab-00"]["verify_method"] == "certificate"
