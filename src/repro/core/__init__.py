"""The paper's primary contribution: SSSP routing, DFSSSP layer
assignment, the APP formalism, its exact solver, and the Theorem 1
reduction."""

from repro.core.sssp import SSSPEngine
from repro.core.dfsssp import DFSSSPEngine
from repro.core.layers import (
    DEFAULT_MAX_LAYERS,
    LayerAssignment,
    assign_layers_offline,
    assign_layers_online,
)
from repro.core.heuristics import (
    HEURISTICS,
    first_edge,
    get_heuristic,
    strongest_edge,
    weakest_edge,
)
from repro.core.multipath import (
    ConcatenatedPaths,
    MultipathDFSSSPEngine,
    MultipathRouting,
)
from repro.core.app import APPInstance, APPPath, nondeterministic_verify
from repro.core.app_exact import has_k_cover, minimum_cover
from repro.core.app_reduction import (
    chromatic_number,
    coloring_to_app,
    coloring_to_cover,
    cover_to_coloring,
    is_proper_coloring,
)

__all__ = [
    "ConcatenatedPaths",
    "MultipathDFSSSPEngine",
    "MultipathRouting",
    "SSSPEngine",
    "DFSSSPEngine",
    "DEFAULT_MAX_LAYERS",
    "LayerAssignment",
    "assign_layers_offline",
    "assign_layers_online",
    "HEURISTICS",
    "first_edge",
    "get_heuristic",
    "strongest_edge",
    "weakest_edge",
    "APPInstance",
    "APPPath",
    "nondeterministic_verify",
    "has_k_cover",
    "minimum_cover",
    "chromatic_number",
    "coloring_to_app",
    "coloring_to_cover",
    "cover_to_coloring",
    "is_proper_coloring",
]
