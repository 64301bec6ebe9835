"""Golden-route fixture generator (and the drift test's oracle).

``tests/data/golden/*.json`` pin the exact forwarding tables, balancing
weights and virtual-layer assignments of SSSP and DFSSSP on three small
reference topologies. ``tests/routing/test_golden_routes.py`` recomputes
them on every run and fails with a readable diff when any bit drifts —
the backstop that catches unintended behaviour changes that the
invariant-style tests (minimality, deadlock-freedom) cannot see.

``DIGEST_FABRICS`` extend the same pin to a ~1k-endpoint XGFT — the
smallest tier of the scale sweep — where literal arrays would bloat the
repo: the fixture stores sha256 digests of the canonical array bytes
(dtype-pinned, C-order) instead. A digest can't show *which* entry
drifted, but at this size the small fixtures above always drift too and
carry the readable diff; the 1k pin is there to catch scale-dependent
drift (batching, sharding, kernel dispatch) that tiny fabrics can't see.
The recompute uses the fast path (``kernel="numpy"``) to keep tier-1
time in budget — bit-identity of kernels is proven separately by
``tests/parallel/test_differential.py``, so the digest pins the shared
answer, not one kernel's.

``tests/data/golden/des_*.json`` extend the same idea to the packet
level: they pin the full event log (sends, arrivals, deliveries, drops,
faults, reroutes — with timestamps) of two small DES scenarios, checked
by ``tests/des/test_golden_traces.py``.

Regenerate *only* after an intentional routing or DES change::

    PYTHONPATH=src python -m tests.data.golden_gen

and commit the JSON diff alongside the code change.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from repro import topologies
from repro.core import DFSSSPEngine, SSSPEngine

GOLDEN_DIR = Path(__file__).parent / "golden"

#: name -> (human-readable builder expression, factory)
FABRICS = {
    "ring": ("ring(5, terminals_per_switch=2)", lambda: topologies.ring(5, 2)),
    "torus3x3": (
        "torus((3, 3), terminals_per_switch=1)",
        lambda: topologies.torus((3, 3), 1),
    ),
    "xgft": ("xgft(2, (4, 4), (1, 2))", lambda: topologies.xgft(2, (4, 4), (1, 2))),
}

ENGINES = {
    "sssp": SSSPEngine,
    "dfsssp": DFSSSPEngine,
}

#: name -> (builder expression, factory) pinned by digest, not literal
#: arrays (see module docstring); the 1k tier of the scale sweep
DIGEST_FABRICS = {
    "xgft1k": (
        "xgft(3, (10, 10, 10), (1, 4, 4))",
        lambda: topologies.xgft(3, (10, 10, 10), (1, 4, 4)),
    ),
}


def _digest(arr, dtype) -> str:
    """sha256 of an array's canonical bytes (pinned dtype, C order)."""
    a = np.ascontiguousarray(np.asarray(arr, dtype=dtype))
    return hashlib.sha256(a.tobytes()).hexdigest()


def compute_golden_digest(name: str) -> dict:
    """The digest record for one large topology: shapes + array hashes."""
    builder_expr, factory = DIGEST_FABRICS[name]
    fabric = factory()
    record: dict = {
        "topology": name,
        "builder": builder_expr,
        "digest": "sha256",
        "num_nodes": fabric.num_nodes,
        "num_terminals": fabric.num_terminals,
        "num_channels": fabric.num_channels,
        "engines": {},
    }
    for engine_name, engine_cls in ENGINES.items():
        result = engine_cls(kernel="numpy").route(fabric)
        entry = {
            "next_channel_sha256": _digest(result.tables.next_channel, np.int32),
            "channel_weights_sha256": _digest(result.channel_weights, np.int64),
        }
        if result.layered is not None:
            entry["path_layers_sha256"] = _digest(
                result.layered.path_layers, np.int16
            )
            entry["layers_used"] = int(result.layered.layers_used)
            entry["cycles_broken"] = int(result.stats["cycles_broken"])
        record["engines"][engine_name] = entry
    return record


def compute_golden(name: str) -> dict:
    """The golden record for one topology: every engine's exact outputs."""
    builder_expr, factory = FABRICS[name]
    fabric = factory()
    record: dict = {
        "topology": name,
        "builder": builder_expr,
        "num_nodes": fabric.num_nodes,
        "num_terminals": fabric.num_terminals,
        "num_channels": fabric.num_channels,
        "engines": {},
    }
    for engine_name, engine_cls in ENGINES.items():
        result = engine_cls(kernel="python").route(fabric)
        entry = {
            "next_channel": result.tables.next_channel.tolist(),
            "channel_weights": result.channel_weights.tolist(),
        }
        if result.layered is not None:
            entry["path_layers"] = result.layered.path_layers.tolist()
            entry["layers_used"] = int(result.layered.layers_used)
        record["engines"][engine_name] = entry
    return record


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


#: name -> DES scenario pinned at event level (record_events is forced on)
DES_SCENARIOS = {
    "des_ring": {
        "name": "des_ring",
        "topology": {"family": "ring", "switches": 5, "terminals_per_switch": 2},
        "engines": ["sssp", "dfsssp"],
        "workload": {"kind": "ring_allreduce", "size_bytes": 40960},
        "buffer_packets": 4,
        "seed": 11,
    },
    "des_xgft": {
        "name": "des_xgft",
        "topology": {"family": "xgft", "ms": [4, 4], "ws": [1, 2]},
        "engines": ["sssp", "dfsssp"],
        "workload": {"kind": "mice", "count": 40, "size_bytes": 2048,
                     "window_s": 2e-5},
        "buffer_packets": 4,
        "seed": 11,
        "faults": [{"at_s": 1e-5}],
    },
}


def compute_des_golden(name: str) -> dict:
    """The golden record for one DES scenario: per-engine event logs."""
    from repro.des import run_scenario

    spec = {**DES_SCENARIOS[name], "record_events": True}
    report = run_scenario(spec)
    record: dict = {"scenario": report.scenario, "engines": {}}
    for engine_name, outcome in report.outcomes.items():
        record["engines"][engine_name] = {
            "log_hash": outcome.log_hash,
            "status": outcome.status,
            "injected": outcome.injected,
            "delivered": outcome.delivered,
            "dropped": outcome.dropped,
            "flows_completed": outcome.flows_completed,
            # tuples -> lists so the recomputed log compares equal to the
            # JSON-loaded fixture
            "events": json.loads(json.dumps(outcome.log)),
        }
    return record


def regenerate() -> list[Path]:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    written = []
    for name in FABRICS:
        path = golden_path(name)
        path.write_text(json.dumps(compute_golden(name), indent=1) + "\n")
        written.append(path)
    for name in DIGEST_FABRICS:
        path = golden_path(name)
        path.write_text(json.dumps(compute_golden_digest(name), indent=1) + "\n")
        written.append(path)
    for name in DES_SCENARIOS:
        path = golden_path(name)
        path.write_text(json.dumps(compute_des_golden(name), indent=1) + "\n")
        written.append(path)
    return written


if __name__ == "__main__":
    for path in regenerate():
        print(f"wrote {path}")
