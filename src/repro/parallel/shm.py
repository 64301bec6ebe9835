"""Shared-memory plumbing for the parallel executor.

Pickling dominates the fan-out cost of :mod:`repro.parallel.executor` at
scale: every batch used to ship its hop columns back through the result
queue (``num_nodes * 4`` bytes per destination), and under the spawn
start method each worker also deserialised the whole fabric. This module
replaces both copies with :mod:`multiprocessing.shared_memory`:

* :class:`FabricArena` — the parent packs the fabric's routing-relevant
  CSR arrays (node kinds, channel endpoint/reverse columns, out-channel
  CSR, terminal list) into **one** shared segment; workers map it and
  wrap the views in a :class:`FabricView`, a duck-typed stand-in that the
  kernels accept wherever a :class:`~repro.network.fabric.Fabric` goes.
* :class:`ColumnBlock` — a ``rows x num_nodes`` int32 segment per
  in-flight batch. Workers write each destination's hop column straight
  into its assigned row; the parent reads the same physical pages during
  reduction. The executor rotates two blocks (batch ``b+1`` fills one
  while batch ``b`` is being reduced), which is race-free because the
  parent only reads a batch's rows after every chunk of that batch has
  returned, and by then the writers have moved on to the other block.

Nothing about the *values* changes — workers run the same kernels on the
same arrays, rows land in the same deterministic order, and the parent's
ExactReduction consumes them in submission order — so the executor's
bit-identity contract survives unchanged (``tests/parallel`` asserts
pool runs equal serial per topology family).

Lifecycle: the parent owns every segment and is the only process that
``unlink``s, in a ``finally`` as soon as the run ends (crashed runs leak
at most until the interpreter exits, where atexit unlinking still runs
via the arena's finalizer). Workers merely ``close()`` their mappings at
process exit. Attaching in a worker deliberately *unregisters* the
segment from that process's ``resource_tracker``: before Python 3.13
(``track=False``) every attach re-registered the name, and the first
worker to exit would tear the segment down under everyone else.
"""

from __future__ import annotations

import atexit
from multiprocessing import shared_memory

import numpy as np

#: fabric arrays shipped to workers, in packing order
_FABRIC_FIELDS = (
    ("kinds", np.int8),
    ("chan_src", np.int32),
    ("chan_dst", np.int32),
    ("chan_reverse", np.int32),
    ("out_ptr", np.int64),
    ("out_chan", np.int32),
    ("terminals", np.int32),
)

_ALIGN = 64  # cache-line align each packed array


def _untracked_attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker ownership.

    Python 3.13 grew ``track=False``; earlier versions register every
    attach with the per-process resource tracker, which then unlinks the
    segment when *any* attaching process exits (spawn children get their
    own tracker and "clean up" the parent's live segment; fork children
    share the parent's tracker, where an extra register/unregister pair
    corrupts its bookkeeping). Suppressing the register during the attach
    — the documented pre-3.13 workaround — restores single-owner
    semantics: only the creating parent's register/unlink pair ever
    reaches a tracker.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13
        from multiprocessing import resource_tracker

        orig_register = resource_tracker.register

        def _skip_shm_register(rname, rtype):  # pragma: no cover - trivial
            if rtype != "shared_memory":
                orig_register(rname, rtype)

        resource_tracker.register = _skip_shm_register
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = orig_register


class _Segment:
    """A created shared-memory segment with guaranteed parent cleanup."""

    def __init__(self, size: int):
        self.shm = shared_memory.SharedMemory(create=True, size=max(1, size))
        self.name = self.shm.name
        self._finalizer = atexit.register(self.destroy)

    def destroy(self) -> None:
        """Close and unlink (idempotent)."""
        if self.shm is None:
            return
        shm, self.shm = self.shm, None
        try:
            atexit.unregister(self.destroy)
        except Exception:  # pragma: no cover
            pass
        try:
            shm.close()
        finally:
            try:
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass


class FabricView:
    """Duck-typed fabric over shared (or any) flat arrays.

    Provides exactly the surface the routing kernels touch: the CSR
    arrays, ``channels.src/dst/reverse``, the node/channel counts and the
    ``is_switch``/``out_channels`` accessors. Kind semantics follow
    :class:`~repro.network.fabric.NodeKind` (0 = switch, 1 = terminal).
    """

    class _Channels:
        __slots__ = ("src", "dst", "reverse")

        def __init__(self, src, dst, reverse):
            self.src = src
            self.dst = dst
            self.reverse = reverse

    def __init__(self, kinds, chan_src, chan_dst, chan_reverse, out_ptr, out_chan, terminals):
        self.kinds = kinds
        self.channels = self._Channels(chan_src, chan_dst, chan_reverse)
        self.out_ptr = out_ptr
        self.out_chan = out_chan
        self.terminals = terminals
        self.num_nodes = len(kinds)
        self.num_channels = len(chan_src)

    @property
    def num_terminals(self) -> int:
        return len(self.terminals)

    def is_switch(self, node: int) -> bool:
        return self.kinds[node] == 0

    def out_channels(self, node: int) -> np.ndarray:
        return self.out_chan[self.out_ptr[node] : self.out_ptr[node + 1]]


def _pack_layout(arrays: dict[str, np.ndarray]):
    """(total size, {field: (offset, length, dtype-str)}) for one segment."""
    offset = 0
    layout = {}
    for field, arr in arrays.items():
        offset = (offset + _ALIGN - 1) // _ALIGN * _ALIGN
        layout[field] = (offset, len(arr), arr.dtype.str)
        offset += arr.nbytes
    return offset, layout


class FabricArena:
    """Parent-side shared-memory snapshot of a fabric's routing arrays.

    ``spec`` is a small picklable dict shipped to pool initializers;
    workers rebuild a :class:`FabricView` with :func:`attach_fabric`.
    """

    def __init__(self, fabric):
        arrays = {
            "kinds": np.ascontiguousarray(fabric.kinds, dtype=np.int8),
            "chan_src": np.ascontiguousarray(fabric.channels.src, dtype=np.int32),
            "chan_dst": np.ascontiguousarray(fabric.channels.dst, dtype=np.int32),
            "chan_reverse": np.ascontiguousarray(fabric.channels.reverse, dtype=np.int32),
            "out_ptr": np.ascontiguousarray(fabric.out_ptr, dtype=np.int64),
            "out_chan": np.ascontiguousarray(fabric.out_chan, dtype=np.int32),
            "terminals": np.ascontiguousarray(fabric.terminals, dtype=np.int32),
        }
        assert set(arrays) == {f for f, _ in _FABRIC_FIELDS}
        size, layout = _pack_layout(arrays)
        self._segment = _Segment(size)
        buf = self._segment.shm.buf
        for field, (off, length, dstr) in layout.items():
            view = np.ndarray((length,), dtype=np.dtype(dstr), buffer=buf, offset=off)
            view[:] = arrays[field]
        self.spec = {"name": self._segment.name, "layout": layout}

    def destroy(self) -> None:
        self._segment.destroy()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.destroy()
        return False


def attach_fabric(spec: dict):
    """Worker-side: map a :class:`FabricArena` spec into a FabricView.

    Returns ``(view, shm)`` — the caller must keep ``shm`` referenced for
    as long as the view's arrays are in use (the executor pins it in the
    worker-process state for the process lifetime).
    """
    shm = _untracked_attach(spec["name"])
    views = {}
    for field, (off, length, dstr) in spec["layout"].items():
        views[field] = np.ndarray((length,), dtype=np.dtype(dstr), buffer=shm.buf, offset=off)
    return FabricView(**views), shm


class ColumnBlock:
    """Parent-side ``rows x num_nodes`` int32 result block.

    ``array`` is the parent's view; workers attach by :attr:`spec` and
    write one row per destination (:func:`attach_columns`).
    """

    def __init__(self, rows: int, num_nodes: int):
        self._segment = _Segment(rows * num_nodes * 4)
        self.array = np.ndarray(
            (rows, num_nodes), dtype=np.int32, buffer=self._segment.shm.buf
        )
        self.spec = {"name": self._segment.name, "rows": rows, "num_nodes": num_nodes}

    def destroy(self) -> None:
        self._segment.destroy()


def attach_columns(spec: dict):
    """Worker-side: map a :class:`ColumnBlock` spec to its 2-D array.

    Returns ``(array, shm)``; keep ``shm`` referenced while writing.
    """
    shm = _untracked_attach(spec["name"])
    arr = np.ndarray((spec["rows"], spec["num_nodes"]), dtype=np.int32, buffer=shm.buf)
    return arr, shm
