"""Shared-memory transport: lifecycle, round-trips, and no leaks.

:mod:`repro.parallel.shm` owns raw OS resources (POSIX shared-memory
segments under ``/dev/shm``), so beyond value correctness — the
differential suite already proves pool runs bit-identical to serial —
this file pins the lifecycle contract:

* arena/block round-trips reproduce the packed arrays exactly, through
  the same attach path workers use;
* ``destroy()`` is idempotent and actually unlinks;
* a full parallel route leaves no segment behind, pass or fail;
* the :class:`FabricView` duck type agrees with the real
  :class:`~repro.network.fabric.Fabric` on every accessor the kernels
  touch.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np
import pytest

from repro import topologies
from repro.core import SSSPEngine
from repro.parallel.shm import (
    ColumnBlock,
    FabricArena,
    attach_columns,
    attach_fabric,
)


@pytest.fixture()
def fabric():
    return topologies.xgft(2, (4, 4), (1, 2))


def _segment_gone(name: str) -> bool:
    try:
        seg = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return True
    seg.close()
    return False


def test_arena_round_trip(fabric):
    with FabricArena(fabric) as arena:
        view, shm = attach_fabric(arena.spec)
        try:
            np.testing.assert_array_equal(view.kinds, fabric.kinds)
            np.testing.assert_array_equal(view.channels.src, fabric.channels.src)
            np.testing.assert_array_equal(view.channels.dst, fabric.channels.dst)
            np.testing.assert_array_equal(
                view.channels.reverse, fabric.channels.reverse
            )
            np.testing.assert_array_equal(view.out_ptr, fabric.out_ptr)
            np.testing.assert_array_equal(view.out_chan, fabric.out_chan)
            np.testing.assert_array_equal(view.terminals, fabric.terminals)
        finally:
            del view
            shm.close()


def test_fabric_view_duck_type_matches_fabric(fabric):
    with FabricArena(fabric) as arena:
        view, shm = attach_fabric(arena.spec)
        try:
            assert view.num_nodes == fabric.num_nodes
            assert view.num_channels == fabric.num_channels
            assert view.num_terminals == fabric.num_terminals
            for node in range(fabric.num_nodes):
                assert view.is_switch(node) == fabric.is_switch(node)
                np.testing.assert_array_equal(
                    view.out_channels(node), fabric.out_channels(node)
                )
        finally:
            del view
            shm.close()


def test_kernels_accept_fabric_view(fabric):
    """The numpy kernel and the hop sweep produce identical columns on the
    view — the property the worker processes rely on."""
    from repro.parallel.kernel import dijkstra_to_dest_numpy, hops_to_dest

    weights = np.ones(fabric.num_channels, dtype=np.int64)
    with FabricArena(fabric) as arena:
        view, shm = attach_fabric(arena.spec)
        try:
            for dest in fabric.terminals[:4]:
                d_f, p_f = dijkstra_to_dest_numpy(fabric, int(dest), weights)
                d_v, p_v = dijkstra_to_dest_numpy(view, int(dest), weights)
                np.testing.assert_array_equal(d_v, d_f)
                np.testing.assert_array_equal(p_v, p_f)
                np.testing.assert_array_equal(
                    hops_to_dest(view, int(dest)), hops_to_dest(fabric, int(dest))
                )
        finally:
            del view
            shm.close()


def test_column_block_round_trip():
    block = ColumnBlock(rows=3, num_nodes=5)
    try:
        arr, shm = attach_columns(block.spec)
        try:
            arr[1, :] = np.arange(5)
            np.testing.assert_array_equal(block.array[1], np.arange(5))
        finally:
            del arr
            shm.close()
    finally:
        block.destroy()
    assert _segment_gone(block.spec["name"])


def test_destroy_is_idempotent(fabric):
    arena = FabricArena(fabric)
    name = arena.spec["name"]
    arena.destroy()
    arena.destroy()  # second call is a no-op, not an error
    assert _segment_gone(name)

    block = ColumnBlock(rows=2, num_nodes=4)
    block.destroy()
    block.destroy()
    assert _segment_gone(block.spec["name"])


def test_parallel_route_leaves_no_segments(fabric):
    """A shm-transport route must unlink everything it created."""
    before = _live_segments()
    SSSPEngine(workers=2, kernel="numpy").route(fabric)
    assert _live_segments() == before


def test_failed_route_leaves_no_segments():
    """Cleanup runs in ``finally``: a worker-side error still unlinks."""
    from repro.exceptions import ComputeTimeoutError
    from repro.service.budget import compute_budget

    fabric = topologies.xgft(2, (4, 4), (1, 2))
    before = _live_segments()
    with pytest.raises(ComputeTimeoutError):
        with compute_budget(1e-9, label="shm-leak-test"):
            SSSPEngine(workers=2, kernel="numpy").route(fabric)
    assert _live_segments() == before


def _live_segments() -> set[str]:
    import os

    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return set()
