"""Fabric serialization.

Two formats are supported:

* **JSON** — lossless round-trip of nodes, cables (with trunking and
  capacities), coordinates and metadata. Used by tests and the CLI.
* **edge-list** (``.edges``) — a small text format in the spirit of the
  ORCS input files: one ``<name> -- <name>`` cable per line, node kind
  inferred from a ``H`` (host) / ``S`` (switch) name prefix or declared in
  a header. Handy for importing externally produced fabrics.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.exceptions import FabricError
from repro.network.builder import FabricBuilder
from repro.network.fabric import Fabric
from repro.utils.atomicio import atomic_write_text

FORMAT_VERSION = 1


def fabric_to_dict(fabric: Fabric) -> dict:
    """Lossless dict representation (cables stored once, not per channel)."""
    cables = []
    seen = set()
    for cid in range(fabric.num_channels):
        rid = int(fabric.channels.reverse[cid])
        key = (min(cid, rid), max(cid, rid))
        if key in seen:
            continue
        seen.add(key)
        cables.append(
            {
                "a": int(fabric.channels.src[cid]),
                "b": int(fabric.channels.dst[cid]),
                "capacity": float(fabric.channels.capacity[cid]),
            }
        )
    return {
        "version": FORMAT_VERSION,
        "nodes": [
            {
                "id": v,
                "kind": "switch" if fabric.is_switch(v) else "terminal",
                "name": fabric.names[v],
                **(
                    {"coordinates": list(fabric.coordinates[v])}
                    if v in fabric.coordinates
                    else {}
                ),
            }
            for v in range(fabric.num_nodes)
        ],
        "cables": cables,
        "metadata": fabric.metadata,
    }


def fabric_from_dict(data: dict) -> Fabric:
    """Inverse of :func:`fabric_to_dict`.

    Raises :class:`~repro.exceptions.FabricError` on any structural
    problem — wrong version, missing keys, non-dense node ids — so
    callers never see a raw ``KeyError``/``TypeError`` from a truncated
    or hand-edited file.
    """
    if not isinstance(data, dict):
        raise FabricError(f"fabric file must hold a JSON object, got {type(data).__name__}")
    if data.get("version") != FORMAT_VERSION:
        raise FabricError(f"unsupported fabric file version: {data.get('version')!r}")
    for key in ("nodes", "cables"):
        if not isinstance(data.get(key), list):
            raise FabricError(f"fabric file is missing the {key!r} list")
    builder = FabricBuilder()
    try:
        nodes = sorted(data["nodes"], key=lambda n: n["id"])
    except (KeyError, TypeError) as err:
        raise FabricError("fabric node entry without an 'id'") from err
    for expect, node in enumerate(nodes):
        if node["id"] != expect:
            raise FabricError(f"node ids must be dense 0..n-1; got {node['id']} at {expect}")
        kind = node.get("kind")
        if kind == "switch":
            nid = builder.add_switch(name=node.get("name"))
        elif kind == "terminal":
            nid = builder.add_terminal(name=node.get("name"))
        else:
            raise FabricError(f"unknown node kind {kind!r} (node {expect})")
        if "coordinates" in node:
            builder.set_coordinates(nid, tuple(node["coordinates"]))
    for idx, cable in enumerate(data["cables"]):
        try:
            a, b = cable["a"], cable["b"]
        except (KeyError, TypeError) as err:
            raise FabricError(f"cable {idx} lacks endpoint keys 'a'/'b'") from err
        builder.add_link(a, b, capacity=cable.get("capacity", 1.0))
    builder.metadata = dict(data.get("metadata", {}))
    return builder.build()


def fabric_json(fabric: Fabric) -> str:
    """The JSON text :func:`save_fabric` writes."""
    # compact separators, no indent: an indent selects json's pure-python encoder
    return json.dumps(fabric_to_dict(fabric), separators=(",", ":"))


def save_fabric(fabric: Fabric, path: str | Path) -> None:
    """Atomically write the JSON representation (tmp file + rename)."""
    atomic_write_text(path, fabric_json(fabric))


def load_fabric(path: str | Path) -> Fabric:
    """Load a fabric JSON file, naming ``path`` in every failure mode."""
    try:
        text = Path(path).read_text()
    except OSError as err:
        raise FabricError(f"{path}: cannot read fabric file: {err}") from err
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise FabricError(f"{path}: malformed fabric JSON: {err}") from err
    try:
        return fabric_from_dict(data)
    except FabricError as err:
        raise FabricError(f"{path}: {err}") from err


# ----------------------------------------------------------------------
# Edge-list format
# ----------------------------------------------------------------------
def save_edge_list(fabric: Fabric, path: str | Path) -> None:
    """Write the ORCS-like ``a -- b`` cable list (names must be unique)."""
    if len(set(fabric.names)) != fabric.num_nodes:
        raise FabricError("edge-list export requires unique node names")
    lines = []
    for v in range(fabric.num_nodes):
        kind = "S" if fabric.is_switch(v) else "H"
        lines.append(f"node {kind} {fabric.names[v]}")
    seen = set()
    for cid in range(fabric.num_channels):
        rid = int(fabric.channels.reverse[cid])
        key = (min(cid, rid), max(cid, rid))
        if key in seen:
            continue
        seen.add(key)
        a = fabric.names[int(fabric.channels.src[cid])]
        b = fabric.names[int(fabric.channels.dst[cid])]
        lines.append(f"{a} -- {b}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def load_edge_list(path: str | Path) -> Fabric:
    """Parse the edge-list format written by :func:`save_edge_list`.

    Nodes may also be declared implicitly by name prefix: names starting
    with ``H`` are terminals, everything else a switch.
    """
    builder = FabricBuilder()
    ids: dict[str, int] = {}

    def get_node(name: str) -> int:
        if name not in ids:
            if name.startswith("H") or name.startswith("h"):
                ids[name] = builder.add_terminal(name=name)
            else:
                ids[name] = builder.add_switch(name=name)
        return ids[name]

    try:
        text = Path(path).read_text()
    except OSError as err:
        raise FabricError(f"{path}: cannot read edge list: {err}") from err
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("node "):
            try:
                _, kind, name = line.split()
            except ValueError as err:
                raise FabricError(f"{path}:{lineno}: bad node declaration {raw!r}") from err
            if name in ids:
                raise FabricError(f"{path}:{lineno}: duplicate node {name!r}")
            if kind == "S":
                ids[name] = builder.add_switch(name=name)
            elif kind == "H":
                ids[name] = builder.add_terminal(name=name)
            else:
                raise FabricError(f"{path}:{lineno}: unknown node kind {kind!r}")
            continue
        if "--" not in line:
            raise FabricError(f"{path}:{lineno}: expected 'a -- b' cable, got {raw!r}")
        a, b = (part.strip() for part in line.split("--", 1))
        if not a or not b:
            raise FabricError(f"{path}:{lineno}: bad cable line {raw!r}")
        builder.add_link(get_node(a), get_node(b))
    return builder.build()
