"""A passing witness pass is kept on its frozen ``LayeredRouting``.

``layer_witnesses`` derives every layer's dependency edges once per
routing, in one ``PathSet.layer_edges`` call: verify, emit and
``check_servable`` after it reuse the pass,
``path_layers`` turns read-only so the kept pass cannot go stale, and a
cyclic pass keeps nothing, so repair can still rewrite that assignment.
"""

from __future__ import annotations

import pytest

from repro import topologies
from repro.core import DFSSSPEngine, SSSPEngine
from repro.deadlock import verify_deadlock_free
from repro.deadlock.certificate import check_servable, emit_certificate
from repro.exceptions import ComputeTimeoutError
from repro.network import fail_links
from repro.resilience import repair_routing
from repro.routing import extract_paths
from repro.routing.base import LayeredRouting, RoutingTables
from repro.routing.paths import PathSet
from repro.service.budget import compute_budget


@pytest.fixture()
def routed():
    """A fresh multi-layer DFSSSP routing: nothing kept on it yet."""
    fabric = topologies.random_topology(10, 22, 2, seed=1)
    result = DFSSSPEngine().route(fabric)
    return result.layered, extract_paths(result.tables)


@pytest.fixture()
def derivations(monkeypatch):
    """Counts ``PathSet.layer_edges`` calls: one derives every layer."""
    calls = []
    real = PathSet.layer_edges

    def counting(self, path_layers, num_layers):
        calls.append(num_layers)
        return real(self, path_layers, num_layers)

    monkeypatch.setattr(PathSet, "layer_edges", counting)
    return calls


def _unkept_copy(layered: LayeredRouting) -> tuple[LayeredRouting, PathSet]:
    """The same routing on new tables and a new array: nothing kept."""
    tables = layered.tables
    fresh = RoutingTables(tables.fabric, tables.next_channel.copy(), engine=tables.engine)
    return (
        LayeredRouting(fresh, layered.path_layers.copy(), layered.num_layers),
        extract_paths(fresh),
    )


def test_verify_then_emit_derives_each_layer_once(routed, derivations):
    layered, paths = routed
    assert verify_deadlock_free(layered, paths).deadlock_free
    assert derivations == [layered.num_layers]
    cert = emit_certificate(layered, paths)
    verdict = check_servable(layered.tables, layered)
    assert derivations == [layered.num_layers]
    assert verdict.paths is paths and verdict.problem is None
    assert verdict.certificate.to_json() == cert.to_json()

    # The kept pass certifies byte for byte what a fresh pass does.
    fresh, fresh_paths = _unkept_copy(layered)
    assert emit_certificate(fresh, fresh_paths).to_json() == cert.to_json()
    assert cert.check().ok


def test_passing_pass_freezes_the_assignment(routed):
    layered, paths = routed
    assert layered.path_layers.flags.writeable
    cert = emit_certificate(layered, paths)
    with pytest.raises(ValueError, match="read-only"):
        layered.path_layers[0] = 0
    # Every certificate of the routing shares the kept edge arrays.
    edged = next(lw for lw in cert.layers if len(lw.edges))
    with pytest.raises(ValueError, match="read-only"):
        edged.edges[0, 0] = -1


def test_cyclic_pass_keeps_nothing(derivations):
    fabric = topologies.ring(5, terminals_per_switch=1)
    tables = SSSPEngine().route(fabric).tables
    paths = extract_paths(tables)
    layered = LayeredRouting.single_layer(tables)
    assert not verify_deadlock_free(layered, paths).deadlock_free
    assert layered._witness is None
    assert layered.path_layers.flags.writeable
    assert not verify_deadlock_free(layered, paths).deadlock_free
    assert len(derivations) == 2  # nothing was kept, so it derived again
    layered.path_layers[0] = 0  # still writable


def test_another_path_set_recomputes(routed, derivations):
    layered, paths = routed
    first = verify_deadlock_free(layered, paths)
    other = PathSet(paths.fabric, paths.offsets.copy(), paths.chans.copy())
    second = verify_deadlock_free(layered, other)
    assert len(derivations) == 2
    assert second == first
    # The newest pass is the kept one.
    verify_deadlock_free(layered, other)
    assert len(derivations) == 2


def test_a_kept_pass_still_polls_the_budget(routed, derivations):
    layered, paths = routed
    assert verify_deadlock_free(layered, paths).deadlock_free
    with pytest.raises(ComputeTimeoutError):
        with compute_budget(0.0, label="verify"):
            verify_deadlock_free(layered, paths)
    assert len(derivations) == 1


def test_repair_rewrites_after_a_cyclic_pass_and_keeps_the_final_one(derivations):
    """The escalating repair: the batch check of the spliced assignment
    fails and keeps nothing, the sequential insertion writes the array in
    place, and the final passing check is kept for the caller's verify."""
    fabric = topologies.random_topology(10, 22, 2, seed=1)
    prior = DFSSSPEngine(balance=False).route(fabric)
    repaired = repair_routing(prior, fail_links(fabric, 2, seed=4), engine_name="dfsssp")
    assert repaired.stats["repair"]["escalations"] > 0
    assert not repaired.layered.path_layers.flags.writeable
    before = len(derivations)
    paths = extract_paths(repaired.tables)
    assert verify_deadlock_free(repaired.layered, paths).deadlock_free
    assert len(derivations) == before
    assert verify_deadlock_free(*_unkept_copy(repaired.layered)).deadlock_free
