"""Persist routing state — forwarding tables and lane assignments.

Computing DFSSSP on a big fabric costs minutes; a deployed subnet
manager wants to write the result once and reload it across restarts
(OpenSM's equivalent: cached LFTs + SL tables). State is stored as a
compressed NumPy archive together with a *fabric fingerprint* (node
kinds + channel endpoints hash), so tables are never silently applied to
a different or re-cabled fabric.

**Format 2** stores the table the way a subnet manager programs it:
only the rows that need programming. An InfiniBand CA has one port and
no forwarding table, and a single-homed terminal's row follows from its
switch's row by one rule (:func:`repro.routing.base.leaf_rows`: its
uplink wherever the switch has an entry, -1 toward itself and where the
switch has none). So the archive holds

* ``next_channel_rows`` — the rows of every node but the single-homed
  terminals (switches and multi-homed terminals), in node order;
* ``leaf_exceptions`` — ``(node, column, channel)`` for each leaf entry
  that breaks the rule (none in an SSSP/DFSSSP table), so that the round
  trip is exact for any engine's table;

and :func:`load_routing_state` rebuilds the dense ``next_channel`` from
them. On a 2 352-terminal XGFT that is 232 of 2 584 rows: 2.2 MB of
int32 to deflate instead of 24 MB. The writer scans the leaf rows for
exceptions a block at a time (:data:`repro.routing.base.LEAF_BLOCK_BYTES`)
and never allocates a temporary the size of the dense table. Format-1
archives, which store the dense ``next_channel``, still load.

The archive is the one ``np.savez_compressed`` writes — same member
layout, so ``np.load`` reads it — but deflated at zlib level 1 instead
of ``savez_compressed``'s fixed level 6: a checkpoint is written on every
accepted routing and read back only on restore, so the write is the side
worth making cheap. For the same reason each array reaches the deflater
as 1 MiB slices of its own buffer, not as the 16 MiB ``tobytes`` copies
``np.lib.format.write_array`` makes on a zip member.
"""

from __future__ import annotations

import hashlib
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.exceptions import RoutingError
from repro.network.fabric import Fabric
from repro.routing.base import (
    LayeredRouting,
    Leaves,
    RoutingTables,
    fill_leaf_rows,
    leaf_rows,
    leaves,
)
from repro.utils.atomicio import atomic_path

_FORMAT = 2
#: formats :func:`load_routing_state` reads (1: the dense ``next_channel``)
_READS = (1, 2)
#: zlib level of every archive member (module docstring)
_DEFLATE_LEVEL = 1
#: what ``np.load`` raises on an empty, truncated, member-less or corrupt archive
_TORN = (EOFError, KeyError, zipfile.BadZipFile, zlib.error)
#: bytes of array data handed to the deflater per write
_WRITE_CHUNK = 1 << 20


def fabric_fingerprint(fabric: Fabric) -> str:
    """Digest of the structure a routing depends on.

    Covers node kinds and every channel's (src, dst, capacity); names and
    metadata may change freely without invalidating tables.
    """
    h = hashlib.sha256()
    h.update(fabric.kinds.tobytes())
    h.update(fabric.channels.src.tobytes())
    h.update(fabric.channels.dst.tobytes())
    h.update(fabric.channels.capacity.tobytes())
    return h.hexdigest()


@dataclass
class RoutingState:
    """Everything :func:`save_routing` can persist about one routing."""

    tables: RoutingTables
    layered: LayeredRouting | None = None
    channel_weights: np.ndarray | None = None

    @property
    def engine(self) -> str:
        return self.tables.engine


def save_routing(
    path: str | Path,
    tables: RoutingTables,
    layered: LayeredRouting | None = None,
    channel_weights: np.ndarray | None = None,
) -> None:
    """Write tables (and optionally lanes + balancing weights) to ``path``.

    ``channel_weights`` carries the SSSP/DFSSSP balancing weights so a
    restored service keeps balancing across incremental repairs. The file
    appears atomically: a crash mid-write leaves any previous version
    intact.
    """
    lv = leaves(tables.fabric)
    payload = {
        "format": np.array([_FORMAT]),
        "engine": np.array([tables.engine]),
        "fingerprint": np.array([fabric_fingerprint(tables.fabric)]),
        "next_channel_rows": tables.next_channel[lv.others],
        "leaf_exceptions": _leaf_exceptions(tables.next_channel, lv),
    }
    if layered is not None:
        if layered.tables is not tables and not np.array_equal(
            layered.tables.next_channel, tables.next_channel
        ):
            raise RoutingError("layered assignment belongs to different tables")
        payload["path_layers"] = layered.path_layers
        payload["num_layers"] = np.array([layered.num_layers])
    if channel_weights is not None:
        weights = np.asarray(channel_weights)
        if weights.shape != (tables.fabric.num_channels,):
            raise RoutingError(
                f"channel_weights shape {weights.shape} != ({tables.fabric.num_channels},)"
            )
        payload["channel_weights"] = weights
    # np.savez_compressed's layout (force_zip64 as it does), at our level.
    with atomic_path(_npz_path(path), "wb") as fp, zipfile.ZipFile(
        fp, "w", zipfile.ZIP_DEFLATED, compresslevel=_DEFLATE_LEVEL
    ) as archive:
        for key, value in payload.items():
            with archive.open(key + ".npy", "w", force_zip64=True) as member:
                _write_npy(member, np.asanyarray(value))


def _leaf_exceptions(next_channel: np.ndarray, lv: Leaves) -> np.ndarray:
    """``(node, column, channel)`` of every leaf entry that breaks
    :func:`~repro.routing.base.leaf_rows`, as an ``(k, 3)`` int32 array;
    the leaf rows are compared a block at a time, in two reused buffers."""
    found = [np.zeros((0, 3), dtype=np.int32)]
    actual = broken = None
    for nodes, rows in leaf_rows(next_channel, lv):
        if actual is None:
            actual, broken = np.empty_like(rows), np.empty(rows.shape, dtype=bool)
        # mode="clip": "raise" would buffer `out` (the indices are leaf rows)
        got = np.take(next_channel, nodes, axis=0, out=actual[: len(nodes)], mode="clip")
        differ = np.not_equal(got, rows, out=broken[: len(nodes)])
        if differ.any():  # np.nonzero alone would cost more than the compare
            row, col = np.nonzero(differ)
            found.append(np.stack((nodes[row], col, got[row, col]), axis=1).astype(np.int32))
    return np.concatenate(found)


def _next_channel(data, fabric: Fabric) -> np.ndarray:
    """The dense table of a format-2 archive: the stored rows, the leaf
    rows by the rule, then the leaf entries that break it."""
    lv = leaves(fabric)
    rows, broken = data["next_channel_rows"], data["leaf_exceptions"]
    shape = (len(lv.others), fabric.num_terminals)
    if rows.shape != shape or broken.ndim != 2 or broken.shape[1] != 3:
        raise RoutingError(
            f"malformed routing state: rows {rows.shape} != {shape} or "
            f"leaf exceptions {broken.shape} not (k, 3)"
        )
    next_channel = np.empty((fabric.num_nodes, fabric.num_terminals), dtype=np.int32)
    next_channel[lv.others] = rows
    fill_leaf_rows(next_channel, lv)
    node, col, chan = broken.T
    is_leaf = np.zeros(fabric.num_nodes, dtype=bool)
    is_leaf[lv.nodes] = True
    if len(node) and not (
        ((node >= 0) & (node < fabric.num_nodes)).all() and is_leaf[node].all()
        and ((col >= 0) & (col < fabric.num_terminals)).all()
    ):
        raise RoutingError("malformed routing state: a leaf exception names no leaf entry")
    next_channel[node, col] = chan
    return next_channel


def _write_npy(fp, array: np.ndarray) -> None:
    """``np.lib.format.write_array(fp, array, allow_pickle=False)``, byte
    for byte, without its 16 MiB ``tobytes`` copies: a C-contiguous array
    goes to ``fp`` as :data:`_WRITE_CHUNK` slices of its own buffer."""
    if not array.flags.c_contiguous or array.dtype.kind not in "biufcSU":
        np.lib.format.write_array(fp, array, allow_pickle=False)
        return
    # Without fields, a header fits format 1.0, which write_array picks.
    np.lib.format.write_array_header_1_0(fp, np.lib.format.header_data_from_array_1_0(array))
    if array.nbytes:
        data = memoryview(array).cast("B")
        for at in range(0, len(data), _WRITE_CHUNK):
            fp.write(data[at : at + _WRITE_CHUNK])


def _npz_path(path: str | Path) -> Path:
    path = Path(path)
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def load_routing_state(path: str | Path, fabric: Fabric) -> RoutingState:
    """Reload routing state, validating it against ``fabric``.

    Raises :class:`RoutingError` on version or fingerprint mismatch — the
    fabric was re-cabled since the tables were computed — and on a torn
    archive: empty, truncated, or missing a member.
    """
    path = Path(path)
    if not path.exists() and _npz_path(path).exists():
        path = _npz_path(path)
    try:
        with np.load(path, allow_pickle=False) as data:
            version = int(data["format"][0])
            if version not in _READS:
                raise RoutingError(f"unsupported routing-state format {version}")
            stored = str(data["fingerprint"][0])
            actual = fabric_fingerprint(fabric)
            if stored != actual:
                raise RoutingError(
                    "routing state does not match this fabric (re-cabled since "
                    f"save? stored {stored[:12]}…, fabric {actual[:12]}…)"
                )
            next_channel = (data["next_channel"] if version == 1
                            else _next_channel(data, fabric))
            tables = RoutingTables(fabric, next_channel, engine=str(data["engine"][0]))
            layered = None
            if "path_layers" in data:
                layered = LayeredRouting(
                    tables, data["path_layers"], int(data["num_layers"][0])
                )
            weights = None
            if "channel_weights" in data:
                weights = np.array(data["channel_weights"])
    except _TORN as err:
        raise RoutingError(
            f"torn routing state ({type(err).__name__}: {err})"
        ) from err
    return RoutingState(tables=tables, layered=layered, channel_weights=weights)


def load_routing(
    path: str | Path, fabric: Fabric
) -> tuple[RoutingTables, LayeredRouting | None]:
    """Back-compat wrapper around :func:`load_routing_state`."""
    state = load_routing_state(path, fabric)
    return state.tables, state.layered
