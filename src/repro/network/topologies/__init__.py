"""Topology generators.

Every generator returns an immutable :class:`~repro.network.fabric.Fabric`
whose ``metadata["family"]`` names the family; routing engines with
structural requirements (DOR, fat-tree) key off that metadata.
"""

from repro.network.topologies.ring import ring, chordal_ring
from repro.network.topologies.torus import torus, mesh, full_mesh
from repro.network.topologies.hypercube import hypercube
from repro.network.topologies.trees import kary_ntree, xgft
from repro.network.topologies.kautz import kautz, kautz_num_switches
from repro.network.topologies.random_topo import random_topology
from repro.network.topologies.dragonfly import dragonfly
from repro.network.topologies.grown import grown_cluster
from repro.network.topologies.clusters import (
    CLUSTERS,
    cluster,
    chic,
    deimos,
    juropa,
    jaguar,
    odin,
    ranger,
    thunderbird,
    tsubame,
)
from repro.network.topologies.tables import (
    NOMINAL_SIZES,
    build_kautz,
    build_ktree,
    build_table1,
    build_xgft,
)

__all__ = [
    "ring",
    "chordal_ring",
    "torus",
    "mesh",
    "full_mesh",
    "hypercube",
    "kary_ntree",
    "xgft",
    "kautz",
    "kautz_num_switches",
    "random_topology",
    "dragonfly",
    "grown_cluster",
    "CLUSTERS",
    "cluster",
    "chic",
    "deimos",
    "juropa",
    "odin",
    "ranger",
    "tsubame",
    "thunderbird",
    "jaguar",
    "NOMINAL_SIZES",
    "build_kautz",
    "build_ktree",
    "build_table1",
    "build_xgft",
]
