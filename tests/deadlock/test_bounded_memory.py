"""Per-occurrence passes run in fixed blocks: bounded scratch, same output.

``TurnIndex``, ``LayerCDG`` and ``PathSet.layer_edges`` walk a path set
through :func:`repro.routing.paths.blocks` ranges of at most
``MAX_BLOCK`` occurrences, and ``save_routing`` hands each array to the
deflater in 1 MiB slices. The first test measures their transient
allocations with ``tracemalloc`` (NumPy traces its buffers) on the
2 352-terminal XGFT; the others shrink the block to a few occurrences
and compare everything against the packed-key reference of
``test_turn_index.py``.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, reject, strategies as st

import repro.routing.paths as paths_mod
from repro import topologies
from repro.deadlock import LayerCDG, assign_layers_incremental
from repro.exceptions import ReproError, RoutingError
from repro.routing import MinHopEngine, extract_paths
from repro.routing.io import save_routing
from repro.routing.paths import PathSet, TurnIndex
from tests.deadlock.test_turn_index import (
    SHIFT,
    _assert_index_matches,
    _examples,
    _random_walks,
    _reference_pairs,
    fabrics,
)

#: scratch any one pass may allocate beyond what it keeps
MAX_TRANSIENT = 12 << 20


def _transient(call) -> int:
    """Peak traced bytes of ``call()`` minus the bytes it leaves allocated."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - held


def test_per_occurrence_passes_allocate_bounded_scratch(tmp_path):
    """1.36 M occurrences: before the passes ran in blocks, their scratch
    was 43.9 / 23.1 / 19.9 MiB and a checkpoint write took 16 MiB."""
    result = MinHopEngine().route(topologies.xgft(3, (14, 14, 12), (1, 4, 4)))
    paths = extract_paths(result.tables)
    paths.turn_index()
    layers = np.where(paths.active_mask(), 0, -1).astype(np.int8)
    passes = {
        "TurnIndex": lambda: TurnIndex(paths),
        "LayerCDG": lambda: LayerCDG(paths, paths.active_pids()),
        "layer_edges": lambda: paths.layer_edges(layers, 1),
        "save_routing": lambda: save_routing(tmp_path / "routing.npz", result.tables),
    }
    scratch = {name: _transient(call) for name, call in passes.items()}
    assert all(b < MAX_TRANSIENT for b in scratch.values()), {
        name: f"{b / 2**20:.1f} MiB" for name, b in scratch.items()
    }


def _assert_turn_index_matches(paths):
    """``occ_turn`` names every path's pairs in hop order and ``occ_ptr``
    delimits them, as the reference lists them."""
    keys, rows = _reference_pairs(paths, np.arange(paths.num_paths))
    index = paths.turn_index()
    turn = index.occ_turn.astype(np.int64)
    src, dst = index.src[turn].astype(np.int64), index.dst[turn].astype(np.int64)
    np.testing.assert_array_equal(src << SHIFT | dst, keys)
    counts = np.bincount(rows, minlength=paths.num_paths)
    np.testing.assert_array_equal(index.occ_ptr, np.concatenate([[0], np.cumsum(counts)]))


@_examples
@given(fabrics(), st.integers(min_value=1, max_value=3), st.integers(0, 2**32 - 1),
       st.integers(min_value=1, max_value=6))
def test_small_blocks_match_the_sort_based_derivation(fabric, num_layers, seed, block):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(paths_mod, "MAX_BLOCK", block)
        try:
            routed = extract_paths(MinHopEngine().route(fabric).tables)
        except ReproError:
            reject()  # the dead cables cut the fabric in two
        for paths in (routed, _random_walks(fabric, seed)):
            _assert_turn_index_matches(paths)
            _assert_index_matches(paths, num_layers, seed)


def _ring_paths(ring5, path_chans):
    """A hand-built path set on the 5-ring: path ``pid`` is ``path_chans[pid]``."""
    lengths = np.zeros(ring5.num_switches * ring5.num_terminals, dtype=np.int64)
    lengths[: len(path_chans)] = [len(p) for p in path_chans]
    chans = np.array([c for p in path_chans for c in p], dtype=np.int32)
    return PathSet(ring5, np.concatenate([[0], np.cumsum(lengths)]), chans)


def _error_with_blocks(monkeypatch, block, call) -> str:
    monkeypatch.setattr(paths_mod, "MAX_BLOCK", block)
    with pytest.raises(RoutingError) as err:
        call()
    return str(err.value)


def test_a_broken_chain_in_a_later_block_names_its_path(ring5, monkeypatch):
    ring = [ring5.channel_between(s, (s + 1) % 5) for s in range(5)]
    chains = [[ring[s % 5], ring[(s + 1) % 5], ring[(s + 2) % 5]] for s in range(5)]
    broken = chains + [[ring[0], ring[2]]]  # ring[0] ends where ring[1] starts
    messages = {
        _error_with_blocks(monkeypatch, block, lambda: _ring_paths(ring5, broken).turn_index())
        for block in (paths_mod.MAX_BLOCK, 4)
    }
    assert len(messages) == 1
    assert messages.pop().startswith("path 5 is not a channel chain")


def test_a_repeated_dependency_in_a_later_block_is_the_same_error(ring5, monkeypatch):
    """Five clean paths, then one once round the ring and on: the CSR
    build names it whichever block its occurrences fall in."""
    ring = [ring5.channel_between(s, (s + 1) % 5) for s in range(5)]
    chains = [[ring[s % 5], ring[(s + 1) % 5]] for s in range(5)]
    looped = chains + [ring + ring[:2]]
    messages = {
        _error_with_blocks(
            monkeypatch, block, lambda: assign_layers_incremental(_ring_paths(ring5, looped))
        )
        for block in (paths_mod.MAX_BLOCK, 3)
    }
    assert len(messages) == 1
    assert messages.pop().startswith("path 5 induces the dependency")
