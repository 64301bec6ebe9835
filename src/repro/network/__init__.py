"""Network substrate: fabric model, builder, topology generators, I/O and
failure injection."""

from repro.network.channels import Channel, ChannelVector
from repro.network.fabric import Fabric, NodeKind
from repro.network.builder import FabricBuilder
from repro.network.validate import check_connected, check_routable, check_terminals_attached
from repro.network.io import (
    fabric_from_dict,
    fabric_to_dict,
    load_edge_list,
    load_fabric,
    save_edge_list,
    save_fabric,
)
from repro.network.ibnetdiscover import load_ibnetdiscover, parse_ibnetdiscover
from repro.network.faults import (
    DegradedFabric,
    cable_keys,
    degrade,
    fail_links,
    fail_specific_cable,
    fail_switches,
    identity_degradation,
)

__all__ = [
    "load_ibnetdiscover",
    "parse_ibnetdiscover",
    "Channel",
    "ChannelVector",
    "Fabric",
    "NodeKind",
    "FabricBuilder",
    "check_connected",
    "check_routable",
    "check_terminals_attached",
    "fabric_from_dict",
    "fabric_to_dict",
    "load_edge_list",
    "load_fabric",
    "save_edge_list",
    "save_fabric",
    "DegradedFabric",
    "cable_keys",
    "degrade",
    "fail_links",
    "fail_specific_cable",
    "fail_switches",
    "identity_degradation",
]
