"""repro — a full reproduction of *Deadlock-Free Oblivious Routing for
Arbitrary Topologies* (Domke, Hoefler, Nagel; IPDPS 2011).

The package implements the paper's DFSSSP routing (globally balanced
single-source-shortest-path routing made deadlock-free through virtual
layers), every baseline it compares against (MinHop, Up*/Down*, DOR,
fat-tree, LASH), the acyclic-path-partitioning formalism with its
NP-completeness reduction, an ORCS-equivalent effective-bisection-
bandwidth simulator, a packet-level simulator that shows the deadlock, and benchmark
harnesses regenerating every table and figure of the paper's evaluation.

Quickstart (run as a doctest, ``tests/test_doctests.py``):

>>> from repro import topologies, DFSSSPEngine, verify_deadlock_free, extract_paths
>>> fabric = topologies.random_topology(16, 32, terminals_per_switch=4, seed=7)
>>> result = DFSSSPEngine().route(fabric)
>>> report = verify_deadlock_free(result.layered, extract_paths(result.tables))
>>> report.deadlock_free
True

Top-level names resolve lazily (PEP 562): importing :mod:`repro` alone
pulls in no numpy and none of the heavy subpackages. This keeps
``python -m repro.deadlock.checker`` — the standalone certificate
checker — genuinely dependency-free while preserving the flat
``from repro import ...`` API.
"""

__version__ = "1.0.0"

_EXPORTS = {
    "DFSSSPEngine": "repro.core",
    "SSSPEngine": "repro.core",
    "assign_layers_offline": "repro.core",
    "assign_layers_online": "repro.core",
    "verify_deadlock_free": "repro.deadlock",
    "CertificateError": "repro.exceptions",
    "DisconnectedFabricError": "repro.exceptions",
    "FabricError": "repro.exceptions",
    "InsufficientLayersError": "repro.exceptions",
    "RepairError": "repro.exceptions",
    "ReproError": "repro.exceptions",
    "RoutingError": "repro.exceptions",
    "SimulationError": "repro.exceptions",
    "UnsupportedTopologyError": "repro.exceptions",
    "UsageError": "repro.exceptions",
    "Fabric": "repro.network",
    "FabricBuilder": "repro.network",
    "topologies": "repro.network.topologies",
    "ChaosRunner": "repro.resilience",
    "FaultInjector": "repro.resilience",
    "repair_routing": "repro.resilience",
    "DOREngine": "repro.routing",
    "ENGINES": "repro.routing",
    "FatTreeEngine": "repro.routing",
    "LASHEngine": "repro.routing",
    "LayeredRouting": "repro.routing",
    "MinHopEngine": "repro.routing",
    "PAPER_ENGINES": "repro.routing",
    "RoutingResult": "repro.routing",
    "RoutingTables": "repro.routing",
    "UpDownEngine": "repro.routing",
    "extract_paths": "repro.routing",
    "make_engine": "repro.routing",
}


def __getattr__(name: str):
    target = _EXPORTS.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(target)
    value = module if target.endswith("." + name) else getattr(module, name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))


__all__ = [*sorted(_EXPORTS), "__version__"]
