"""End-to-end: routing a real fabric populates the obs registry."""

import numpy as np

from repro import topologies
from repro.core import DFSSSPEngine
from repro.obs import InMemorySink, get_registry, request_scope, use_sink


def test_dfsssp_ring_emits_expected_metrics():
    fabric = topologies.ring(5, 2)
    result = DFSSSPEngine().route(fabric)
    reg = get_registry()

    # One Dijkstra per destination terminal: 5 switches x 2 terminals.
    assert reg.value("sssp_sources_routed") == 10
    assert reg.value("sssp_edge_weight_updates", default=0) > 0

    # A 5-ring has one CW and one CCW channel cycle to break.
    assert reg.value("dfsssp_cycles_broken") == 2
    assert reg.value("dfsssp_edges_evicted", heuristic="weakest") == 2
    assert reg.value("dfsssp_paths_moved", default=0) > 0

    assert reg.value("dfsssp_layers_needed") == result.stats["layers_needed"]
    assert reg.value("dfsssp_layers_used") == result.stats["layers_used"]

    # Histogram of per-dest Dijkstra timings saw every destination.
    hist = reg.get("sssp_dijkstra_seconds")
    assert hist is not None and hist.count == 10


def test_dfsssp_emits_span_tree():
    sink = InMemorySink()
    with use_sink(sink):
        DFSSSPEngine().route(topologies.ring(5, 2))

    names = [s.name for s in sink.spans]
    assert "dfsssp.sssp" in names
    assert "dfsssp.layers" in names
    assert names.count("sssp.dijkstra") == 10

    by_name = {s.name: s for s in sink.spans}
    # Dijkstra spans nest under sssp.run which nests under dfsssp.sssp.
    dijkstra = sink.find("sssp.dijkstra")[0]
    assert dijkstra.parent.name == "sssp.run"
    assert dijkstra.parent.parent.name == "dfsssp.sssp"
    # Layer spans nest under the offline assignment span.
    layer = sink.find("layers.layer")[0]
    assert layer.parent.name == "layers.assign_offline"
    assert by_name["layers.assign_offline"].parent.name == "dfsssp.layers"
    # Every span closed cleanly and carries a duration.
    assert all(s.status == "ok" and s.duration >= 0 for s in sink.spans)


def test_stats_keys_survive_instrumentation():
    """The pre-obs stats contract (timings asserted >0 elsewhere) holds."""
    result = DFSSSPEngine().route(topologies.ring(5, 2))
    assert result.stats["time_sssp_s"] > 0
    assert result.stats["time_layers_s"] > 0


def test_traced_spans_preserve_results():
    """Tracing is observation only: traced and untraced routes agree."""
    fabric = topologies.random_topology(10, 20, 2, seed=5)
    plain = DFSSSPEngine().route(fabric)
    with use_sink(InMemorySink()), request_scope("req-x"):
        traced = DFSSSPEngine().route(fabric)
    assert np.array_equal(plain.tables.next_channel, traced.tables.next_channel)
    assert np.array_equal(plain.channel_weights, traced.channel_weights)
    assert np.array_equal(plain.layered.path_layers, traced.layered.path_layers)
