"""Persist routing state — forwarding tables and lane assignments.

Computing DFSSSP on a big fabric costs minutes; a deployed subnet
manager wants to write the result once and reload it across restarts
(OpenSM's equivalent: cached LFTs + SL tables). State is stored as a
compressed NumPy archive together with a *fabric fingerprint* (node
kinds + channel endpoints hash), so tables are never silently applied to
a different or re-cabled fabric.

The archive is the one ``np.savez_compressed`` writes — same member
names, dtypes and array bytes, so ``np.load`` reads old and new files
alike — but deflated at zlib level 1 instead of ``savez_compressed``'s
fixed level 6. The dense ``next_channel`` dominates the file and is
highly repetitive: on a 2 352-terminal XGFT (24 MB of int32) level 1
deflates it ≈3.7× faster (≈45 ms against ≈165 ms, 2-core Xeon VM) into
463 KB instead of 294 KB. A checkpoint is written on every accepted
routing and read back only on restore, so the write is the side worth
making cheap. For the same reason each array reaches the deflater as
1 MiB slices of its own buffer, not as the 16 MiB ``tobytes`` copies
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
from repro.routing.base import LayeredRouting, RoutingTables
from repro.utils.atomicio import atomic_path

_FORMAT = 1
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
    payload = {
        "format": np.array([_FORMAT]),
        "engine": np.array([tables.engine]),
        "fingerprint": np.array([fabric_fingerprint(tables.fabric)]),
        "next_channel": tables.next_channel,
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
            if int(data["format"][0]) != _FORMAT:
                raise RoutingError(f"unsupported routing-state format {data['format'][0]}")
            stored = str(data["fingerprint"][0])
            actual = fabric_fingerprint(fabric)
            if stored != actual:
                raise RoutingError(
                    "routing state does not match this fabric (re-cabled since "
                    f"save? stored {stored[:12]}…, fabric {actual[:12]}…)"
                )
            tables = RoutingTables(
                fabric, data["next_channel"], engine=str(data["engine"][0])
            )
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
