"""Routing engines and forwarding-table machinery."""

from repro.routing.base import (
    LayeredRouting,
    RoutingEngine,
    RoutingResult,
    RoutingTables,
)
from repro.routing.paths import (
    PathSet,
    extract_paths,
    flow_channels,
    gather_flows,
    path_minimality_violations,
)
from repro.routing.minhop import MinHopEngine
from repro.routing.updown import UpDownEngine, rank_switches
from repro.routing.dor import DOREngine
from repro.routing.dor_vc import DORVCEngine
from repro.routing.ftree import FatTreeEngine, tree_ranks
from repro.routing.lash import LASHEngine
from repro.routing.io import (
    RoutingState,
    fabric_fingerprint,
    load_routing,
    load_routing_state,
    save_routing,
)
from repro.routing.registry import DEADLOCK_FREE_ENGINES, PAPER_ENGINES, engines, make_engine

__all__ = [
    "RoutingState",
    "fabric_fingerprint",
    "load_routing",
    "load_routing_state",
    "save_routing",
    "LayeredRouting",
    "RoutingEngine",
    "RoutingResult",
    "RoutingTables",
    "PathSet",
    "extract_paths",
    "flow_channels",
    "gather_flows",
    "path_minimality_violations",
    "MinHopEngine",
    "UpDownEngine",
    "rank_switches",
    "DOREngine",
    "DORVCEngine",
    "FatTreeEngine",
    "tree_ranks",
    "LASHEngine",
    "DEADLOCK_FREE_ENGINES",
    "ENGINES",
    "PAPER_ENGINES",
    "engines",
    "make_engine",
]


def __getattr__(name: str):
    # ``ENGINES`` imports repro.core, which imports this package: resolve
    # it on first access.
    if name == "ENGINES":
        return engines()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
