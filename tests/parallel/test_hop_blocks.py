"""Hop plans built in blocks against the one-root references.

:func:`repro.parallel.kernel.hop_rows` runs one switch-space BFS for a
block of roots and :meth:`ExactReduction.build_plans` cuts every row's DAG
into levels with one sort. The references below are the original
per-destination routines: a node-space BFS toward one destination and a
per-level bucketing of one hop column. Block rows must equal the
reference column of every node, block plans the reference plan of every
destination, on every topology family, the islands and dual-homed
fabrics and random degraded fabrics; and a reduction that builds its
plans a block at a time along the caller's order must route exactly as
the per-destination one, whatever the block size.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings

from repro import topologies
from repro.core import SSSPEngine
from repro.network.fabric import Fabric
from repro.obs import InMemorySink, get_registry, use_sink
from repro.parallel import reduction as reduction_mod
from repro.parallel.kernel import hop_rows, hops_to_dest
from repro.parallel.reduction import ExactReduction, HopPlan

from tests.parallel.test_differential import FAMILIES
from tests.parallel.test_reduction import AWKWARD, _assert_steps_match, degraded_fabrics


def hops_oracle(fabric: Fabric, dest: int) -> np.ndarray:
    """Minimum hop count to ``dest``: a node-space BFS where only switches
    and ``dest`` forward (-1 where unreachable)."""
    hops = np.full(fabric.num_nodes, -1, dtype=np.int32)
    hops[dest] = 0
    forwards = fabric.kinds == 0
    forwards = forwards.copy()
    forwards[dest] = True
    frontier = np.array([dest], dtype=np.int64)
    level = 0
    while len(frontier):
        senders = frontier[forwards[frontier]]
        if not len(senders):
            break
        starts = fabric.out_ptr[senders]
        lens = (fabric.out_ptr[senders + 1] - starts).astype(np.int64)
        total = int(lens.sum())
        if not total:
            break
        flat = np.repeat(starts, lens) + (
            np.arange(total) - np.repeat(np.cumsum(lens) - lens, lens)
        )
        v = fabric.channels.dst[fabric.out_chan[flat]]
        v = v[hops[v] < 0]
        if not len(v):
            break
        level += 1
        hops[v] = level
        frontier = np.flatnonzero(hops == level)
    return hops


def plan_oracle(reduction: ExactReduction, dest: int, hops: np.ndarray) -> HopPlan:
    """One destination's plan, one level at a time."""
    uplink = reduction._uplink[dest]
    if uplink >= 0:
        root = int(reduction.fabric.channels.dst[uplink])
        pos = reduction._trunk_pos
    else:
        root = dest
        pos = np.flatnonzero(reduction._trunk | (reduction._chan_dst == dest))
    dead = np.flatnonzero(hops[reduction._leaf_sw] < 0)
    src, dst = reduction._chan_src[pos], reduction._chan_dst[pos]
    hv, hu = hops[src], hops[dst]
    keep = np.flatnonzero((hu >= 0) & (hv == hu + 1))
    keep = keep[np.argsort(hv[keep], kind="stable")]
    chan = reduction._chan[pos[keep]].astype(np.int32)
    src, dst, level = src[keep].astype(np.int32), dst[keep].astype(np.int32), hv[keep]
    levels, nbytes = [], dead.nbytes
    cuts = np.flatnonzero(level[1:] != level[:-1]) + 1
    for a, b in zip(np.r_[0, cuts], np.r_[cuts, len(chan)] if len(chan) else []):
        s = src[a:b]
        starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
        bucket = (chan[a:b], dst[a:b], starts, s[starts])
        levels.append(bucket)
        nbytes += sum(arr.nbytes for arr in bucket)
    nodes = np.concatenate([level[3] for level in levels] or [np.zeros(0, np.int32)])
    return HopPlan(root, levels, nodes, dead, nbytes)


def assert_same_plan(got: HopPlan, want: HopPlan) -> None:
    assert got.root == want.root
    assert got.nbytes == want.nbytes
    assert len(got.levels) == len(want.levels)
    # Which leaves a plan never reaches is a set: its order is free.
    for g, w in zip([*got.levels, (got.nodes, np.sort(got.dead))],
                    [*want.levels, (want.nodes, np.sort(want.dead))]):
        for a, b in zip(g, w):
            np.testing.assert_array_equal(a, b)
            assert a.dtype == b.dtype


def assert_blocks_match(fabric: Fabric) -> None:
    nodes = np.arange(fabric.num_nodes)
    rows = hop_rows(fabric, nodes)
    for v in nodes.tolist():
        want = hops_oracle(fabric, v)
        np.testing.assert_array_equal(rows[v], want, err_msg=f"root {v}")
        np.testing.assert_array_equal(hops_to_dest(fabric, v), want)
    reduction = ExactReduction(fabric)
    dests = fabric.terminals.tolist()
    if not dests:
        return
    # Rooted at each plan's root (a leaf's switch) or at the destination
    # itself, as the pool ships them: the same plans.
    for roots in (reduction._plan_root[dests], dests):
        block = reduction.build_plans(dests, hop_rows(fabric, roots))
        for dest, plan in zip(dests, block):
            assert_same_plan(plan, plan_oracle(reduction, dest, hops_oracle(fabric, dest)))
            assert_same_plan(reduction._build_plan(dest, hops_oracle(fabric, dest)), plan)


ALL = {**FAMILIES, **AWKWARD}


@pytest.mark.parametrize("name", sorted(ALL))
def test_block_rows_and_plans_equal_the_one_root_path(name):
    assert_blocks_match(ALL[name]())


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(degraded_fabrics())
def test_block_rows_and_plans_on_random_degraded_fabrics(fabric):
    assert_blocks_match(fabric)


def test_empty_block():
    fabric = FAMILIES["ring"]()
    assert hop_rows(fabric, []).shape == (0, fabric.num_nodes)
    assert ExactReduction(fabric).build_plans([], hop_rows(fabric, [])) == []


# ----------------------------------------------------------------------
# a reduction that knows the order
# ----------------------------------------------------------------------
def _ordered_run(fabric, order, monkeypatch, block_bytes, cache_bytes):
    monkeypatch.setattr(reduction_mod, "HOP_BLOCK_BYTES", block_bytes)
    monkeypatch.setattr(reduction_mod, "PLAN_CACHE_BYTES", cache_bytes)
    reduction = ExactReduction(fabric, order=[int(fabric.terminals[t]) for t in order])
    _assert_steps_match(fabric, reduction, order)
    return reduction


def _first_shared_plans_bytes(fabric, order, count):
    """Bytes of the first ``count`` shared plans along ``order``: a cache
    of that size fills up part-way through the run."""
    reduction = ExactReduction(fabric)
    dests, seen = [], set()
    for t in order:
        dest = int(fabric.terminals[t])
        key = reduction.shared_root(dest)
        if key >= 0 and key not in seen and len(dests) < count:
            seen.add(key)
            dests.append(dest)
    if not dests:
        return 0
    plans = reduction.build_plans(dests, hop_rows(fabric, reduction._plan_root[dests]))
    return sum(plan.nbytes for plan in plans)


def _assert_cache_owns_its_bytes(reduction):
    total = 0
    for plan in reduction._plans.values():
        arrays = [a for level in plan.levels for a in level[:3]] + [plan.nodes, plan.dead]
        assert all(a.base is None for a in arrays)  # no view into a block
        assert all(level[3].base is plan.nodes for level in plan.levels)
        assert sum(a.nbytes for a in arrays) == plan.nbytes
        total += plan.nbytes
    assert total == reduction._plan_bytes <= reduction_mod.PLAN_CACHE_BYTES


@pytest.mark.parametrize("name", sorted(ALL))
@pytest.mark.parametrize("block_bytes", [0, 1 << 16, 4 << 20], ids=["rows1", "64k", "4M"])
@pytest.mark.parametrize("cache", ["nocache", "partial", "cache"])
def test_ordered_steps_are_exact_and_sweep_once_per_plan(name, block_bytes, cache,
                                                         monkeypatch):
    """Along the order, with any block size and with no, a part-filled or
    a roomy plan cache: the heap reference's columns and weights, one
    sweep per plan opened, the same counts as the per-destination
    reduction, no plan left built ahead, and a cache that keeps alive
    exactly the bytes it counts."""
    fabric = ALL[name]()
    order = np.random.default_rng(7).permutation(fabric.num_terminals)
    cache_bytes = {"nocache": 0, "partial": _first_shared_plans_bytes(fabric, order, 3),
                   "cache": 32 << 20}[cache]
    reduction = _ordered_run(fabric, order, monkeypatch, block_bytes, cache_bytes)
    counts = reduction.counts
    assert counts["sweeps"] == counts["plans"]
    assert counts["fallbacks"] == 0
    assert reduction._pending == {}
    _assert_cache_owns_its_bytes(reduction)
    if cache == "partial":  # the first three sharing switches are cached, no more
        sharing = len(set(reduction._shared_root[fabric.terminals].tolist()) - {-1})
        assert len(reduction._plans) == min(3, sharing)
        assert reduction.cache_full == (sharing > 3)
    per_dest = ExactReduction(fabric)
    _assert_steps_match(fabric, per_dest, order)
    assert counts == per_dest.counts


def test_a_part_filled_cache_sweeps_once_per_plan(monkeypatch):
    """Through the engine, a destination served from the cache is never
    swept, once the cache is full or before. Blocks of two, so that most
    blocks are opened after the cache has filled up."""
    fabric = FAMILIES["xgft"]()
    order = np.arange(fabric.num_terminals)
    monkeypatch.setattr(reduction_mod, "PLAN_CACHE_BYTES",
                        _first_shared_plans_bytes(fabric, order, 3))
    monkeypatch.setattr(reduction_mod, "HOP_BLOCK_BYTES", 2 * ExactReduction(fabric)._row_bytes)
    base = SSSPEngine(kernel="python").route(fabric)
    sink = InMemorySink()
    with use_sink(sink):
        got = SSSPEngine().route(fabric)
    np.testing.assert_array_equal(got.tables.next_channel, base.tables.next_channel)
    np.testing.assert_array_equal(got.channel_weights, base.channel_weights)
    run = sink.find("sssp.run")[0]
    assert run.attrs["plan_hits"] > 0 and run.attrs["fallbacks"] == 0
    assert run.attrs["sweeps"] == run.attrs["plans"] == (
        fabric.num_terminals - run.attrs["plan_hits"])


def test_block_building_stays_out_of_the_column_histogram(monkeypatch):
    """With every hop sweep slowed by 20 ms and blocks of at most three
    roots, each ``sssp.hop_block`` span is opened by a column's step and
    holds its sleep, and no ``sssp_dijkstra_seconds`` observation does."""
    fabric = topologies.random_topology(10, 20, 2, seed=5)
    nap = 0.02
    real = reduction_mod.hop_rows

    def slow(fabric, roots):
        time.sleep(nap)
        return real(fabric, roots)

    monkeypatch.setattr(reduction_mod, "hop_rows", slow)
    monkeypatch.setattr(reduction_mod, "HOP_BLOCK_BYTES", 3 * ExactReduction(fabric)._row_bytes)
    get_registry().reset()
    sink = InMemorySink()
    with use_sink(sink):
        SSSPEngine().route(fabric)
    # One hop row per plan opened: each switch hosts two terminals, so
    # the second one of every pair is served from its sibling's plan.
    blocks = sink.find("sssp.hop_block")
    assert len(blocks) == -(-fabric.num_switches // 3)
    assert sum(b.attrs["rows"] for b in blocks) == fabric.num_switches
    assert all(b.parent.name == "sssp.dijkstra" for b in blocks)
    assert all(b.duration >= nap for b in blocks)
    hist = get_registry().histogram("sssp_dijkstra_seconds", "")
    assert hist.count == fabric.num_terminals
    assert hist.maximum < nap
    # the column spans still contain the blocks they opened
    assert sum(sp.duration for sp in sink.find("sssp.dijkstra")) > hist.sum + len(blocks) * nap
    get_registry().reset()


def test_repeated_destinations_each_get_a_plan(monkeypatch):
    """The multipath order: every destination K times in a row. A shared
    plan is swept once; one that is not is swept for every step."""
    fabric = FAMILIES["kautz"]()  # one terminal per switch: nothing shared
    order = np.repeat(np.arange(fabric.num_terminals), 3)
    counts = _ordered_run(fabric, order, monkeypatch, 4 << 20, 32 << 20).counts
    assert counts["sweeps"] == counts["plans"] == len(order)
    fabric = AWKWARD["dual_homed"]()
    order = np.repeat(np.arange(fabric.num_terminals), 2)
    counts = _ordered_run(fabric, order, monkeypatch, 4 << 20, 32 << 20).counts
    assert counts["plan_hits"] > 0 and counts["sweeps"] == counts["plans"]


def test_a_step_off_the_order_sweeps_for_itself():
    fabric = FAMILIES["xgft"]()
    dests = [int(t) for t in fabric.terminals]
    reduction = ExactReduction(fabric, order=dests[1:])
    _assert_steps_match(fabric, reduction, range(fabric.num_terminals))
    assert reduction.counts["fallbacks"] == 0
