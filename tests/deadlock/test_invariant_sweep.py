"""Deadlock-invariant sweep: every engine × every topology builder.

For each registered engine on each small topology:

* the routing must be *verifiable* (complete paths, consistent layers);
* engines that promise deadlock-freedom by construction
  (:data:`DEADLOCK_FREE_ENGINES`) must actually produce an acyclic
  per-layer channel-dependency graph;
* after one deterministic fault (the first cable killed), a ``reroute``
  must uphold the same promise on the degraded fabric.

Structural failures — an engine that legitimately cannot route a family
(DOR on irregular graphs, ftree off trees) — skip rather than fail; the
sweep is about *silent* invariant violations, not applicability.
"""

from __future__ import annotations

import json

import pytest

from repro import topologies
from repro.deadlock import verify_deadlock_free
from repro.deadlock.certificate import (
    DeadlockFreedomCertificate,
    check_against_routing,
    emit_certificate,
)
from repro.deadlock.checker import check_certificate
from repro.exceptions import CertificateError, ReproError, RoutingError
from repro.network.faults import cable_keys, degrade
from repro.routing import extract_paths, make_engine
from repro.routing.base import LayeredRouting
from repro.routing.registry import DEADLOCK_FREE_ENGINES, ENGINES

TOPOLOGIES = {
    "ring": lambda: topologies.ring(6, terminals_per_switch=1),
    "torus": lambda: topologies.torus((3, 3), terminals_per_switch=1),
    "hypercube": lambda: topologies.hypercube(3, terminals_per_switch=1),
    "ktree": lambda: topologies.kary_ntree(3, 2),
    "xgft": lambda: topologies.xgft(2, (3, 3), (1, 2)),
    "kautz": lambda: topologies.kautz(2, 2, 8),
    "random": lambda: topologies.random_topology(8, 14, 1, seed=3),
    "dragonfly": lambda: topologies.dragonfly(2, 2, 1),
}


@pytest.fixture(scope="module", params=sorted(TOPOLOGIES))
def sweep_fabric(request):
    return request.param, TOPOLOGIES[request.param]()


def _roundtrip_certificate(layered, paths, report, *, engine: str, where: str) -> None:
    """Every run's certificate must survive JSON + the independent checker.

    Emission succeeds exactly when the full verifier passes; the emitted
    certificate must then be accepted both structurally (wire format
    through :func:`check_certificate`, the dependency-free checker) and
    bound against the routing it was emitted for.
    """
    try:
        cert = emit_certificate(layered, paths, engine=engine)
    except CertificateError as err:
        assert not report.deadlock_free, (
            f"{engine} certification failed but verification passed ({where}): {err}"
        )
        assert err.counterexample, f"cyclic layer without witness cycle ({where})"
        return
    assert report.deadlock_free, (
        f"{engine} was certified but fails verification ({where}): "
        f"{report.failure_summary()}"
    )
    wire = json.loads(cert.to_json())
    structural = check_certificate(wire)
    assert structural.ok, f"checker rejects own emission ({where}): {structural.summary()}"
    bound = check_against_routing(
        DeadlockFreedomCertificate.from_dict(wire), layered, paths
    )
    assert bound.ok, f"certificate does not bind to its routing ({where}): {bound.reason}"


def _verify(result, *, engine: str, where: str) -> None:
    paths = extract_paths(result.tables)
    layered = result.layered or LayeredRouting.single_layer(result.tables)
    report = verify_deadlock_free(layered, paths)
    _roundtrip_certificate(layered, paths, report, engine=engine, where=where)
    if engine in DEADLOCK_FREE_ENGINES:
        assert report.deadlock_free, (
            f"{engine} claims deadlock-freedom but failed verification "
            f"({where}): {report.failure_summary()}"
        )
    if result.deadlock_free:
        # No engine may *claim* deadlock-freedom in its result and fail it.
        assert report.deadlock_free, (
            f"{engine} result overclaims ({where}): {report.failure_summary()}"
        )


@pytest.mark.parametrize("engine_name", sorted(ENGINES))
def test_invariants_hold_and_survive_a_fault(sweep_fabric, engine_name):
    topo_name, fabric = sweep_fabric
    engine = make_engine(engine_name)
    try:
        result = engine.route(fabric)
    except ReproError as err:
        pytest.skip(f"{engine_name} cannot route {topo_name}: {type(err).__name__}")

    _verify(result, engine=engine_name, where=f"healthy {topo_name}")

    # One deterministic fault: kill the first cable between two switches
    # (terminal links would disconnect an endpoint, a different failure
    # class that resilience tests cover separately).
    switch_cables = [
        key
        for key in cable_keys(fabric)
        if fabric.is_switch(int(fabric.channels.src[key[0]]))
        and fabric.is_switch(int(fabric.channels.dst[key[0]]))
    ]
    if not switch_cables:
        pytest.skip(f"{topo_name} has no switch-to-switch cable to kill")
    degraded = degrade(fabric, dead_cables=[switch_cables[0]])
    try:
        rerouted = engine.reroute(result, degraded)
    except ReproError as err:
        pytest.skip(
            f"{engine_name} cannot reroute degraded {topo_name}: {type(err).__name__}"
        )
    try:
        _verify(rerouted, engine=engine_name, where=f"degraded {topo_name}")
    except RoutingError:
        # Incomplete tables after degradation: tolerable for engines whose
        # structural assumptions the fault broke (e.g. ftree on a no longer
        # proper tree), never for the repairable SSSP/DFSSSP pair.
        if engine.supports_incremental_reroute:
            raise
        pytest.skip(
            f"{engine_name} tables incomplete on degraded {topo_name} "
            "(structural assumption broken by the fault)"
        )
