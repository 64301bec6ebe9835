"""The fused Algorithm-1 step against the python heap reference.

:meth:`ExactReduction.step` (shared hop plan → sort-free refine → full
Bellman validation → plan-walk weight update) must reproduce
``dijkstra_to_dest`` + ``update_weights_for_dest`` bit for bit: per call
on the awkward fabrics (empty CSR rows, unreachable nodes, dual-homed
terminals), per run through the engines, and — the point of validating
every column — even when a cached plan is wrong.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import topologies
from repro.core import SSSPEngine
from repro.core.sssp import dijkstra_to_dest, update_weights_for_dest
from repro.exceptions import ComputeTimeoutError
from repro.network import FabricBuilder
from repro.network.faults import cable_keys, degrade
from repro.obs import InMemorySink, get_registry, use_sink
from repro.parallel import reduction as reduction_mod
from repro.parallel.kernel import hops_to_dest
from repro.parallel.reduction import ExactReduction, HopPlan
from repro.routing.base import leaves
from repro.service.budget import active_budget, compute_budget

from tests.parallel.test_differential import FAMILIES, assert_same_routing
from tests.parallel.test_executor import _expire_mid_sweep


@pytest.fixture(autouse=True)
def _fresh_registry():
    get_registry().reset()
    yield
    get_registry().reset()


def _islands():
    """random16 with switch 0 cut off entirely (an empty CSR row, its
    terminals unreachable), switch 1 removed, and switch 2 left with its
    terminals but no way to the rest."""
    fabric = topologies.random_topology(16, 34, terminals_per_switch=3, seed=42)
    s0, s1, s2 = (int(s) for s in fabric.switches[:3])
    def touches(key, switch):
        return switch in (fabric.channels.src[key[0]], fabric.channels.dst[key[0]])

    dead = [key for key in cable_keys(fabric)
            if touches(key, s0) or (touches(key, s2) and fabric.is_switch_channel[key[0]])]
    return degrade(fabric, dead_switches=[s1], dead_cables=dead).fabric


def _dual_homed():
    """A 6-ring with two terminals per switch, one more terminal homed on
    switches 0 and 3, and a doubled cable."""
    b = FabricBuilder()
    sw = b.add_switches(6)
    for i, s in enumerate(sw):
        b.add_link(s, sw[(i + 1) % 6], count=2 if i == 1 else 1)
        for t in b.add_terminals(2):
            b.add_link(t, s)
    both = b.add_terminal()
    b.add_link(both, sw[0])
    b.add_link(both, sw[3])
    return b.build()


AWKWARD = {"islands": _islands, "dual_homed": _dual_homed}


def _leaves(fabric):
    """Single-homed terminals: one out-channel, into a switch."""
    return np.array([
        t for t in map(int, fabric.terminals)
        if len(fabric.out_channels(t)) == 1
        and fabric.is_switch(fabric.channels.dst[fabric.out_channels(t)[0]])
    ], dtype=np.intp)


def _reference_step(fabric, dest, weights, is_term):
    dist, parent = dijkstra_to_dest(fabric, dest, weights)
    update_weights_for_dest(fabric, dest, dist, parent, weights, is_term)
    return parent


def _assert_steps_match(fabric, reduction, order, poison=None):
    """Run the reference and ``reduction`` side by side over ``order``:
    the same columns and, after every step, the same weights — but on the
    leaf uplinks while a reduction that knows its order is inside it (it
    settles their adds when the order ends). After the last step, the
    same weights everywhere."""
    T = fabric.num_terminals
    ref_w = np.full(fabric.num_channels, T * T + 1, dtype=np.int64)
    new_w = ref_w.copy()
    is_term = fabric.kinds == 1
    checked = np.ones(fabric.num_channels, dtype=bool)
    if reduction._order is not None:
        checked[leaves(fabric).uplinks] = False
    for t_idx in order:
        dest = int(fabric.terminals[t_idx])
        if poison is not None:
            poison(dest)
        want = _reference_step(fabric, dest, ref_w, is_term)
        got = reduction.step(dest, new_w)
        np.testing.assert_array_equal(got, want, err_msg=f"parent toward {dest}")
        np.testing.assert_array_equal(new_w[checked], ref_w[checked],
                                      err_msg=f"weights after {dest}")
    np.testing.assert_array_equal(new_w, ref_w, err_msg="weights after the order")


# ----------------------------------------------------------------------
# per call: empty rows, unreachable nodes, multi-homed terminals
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(AWKWARD))
def test_step_is_exact_on_awkward_fabrics(name):
    fabric = AWKWARD[name]()
    reduction = ExactReduction(fabric)
    order = np.random.default_rng(5).permutation(fabric.num_terminals)
    _assert_steps_match(fabric, reduction, order)
    assert reduction.counts["fallbacks"] == 0


def test_islands_have_the_rows_reduceat_must_mask():
    fabric = _islands()
    degree = np.diff(fabric.out_ptr)
    assert (degree[fabric.switches] == 0).any()  # isolated switch: empty row
    assert (degree[fabric.terminals] == 0).any()  # terminal nobody can reach
    hops = hops_to_dest(fabric, int(fabric.terminals[-1]))
    assert (hops[fabric.switches] == -1).any() and (hops[fabric.switches] > 0).any()


def test_dual_homed_terminal_shares_no_plan():
    """As a destination it has no single uplink to shortcut and no switch
    to share with; as a source it sits in the level buckets."""
    fabric = _dual_homed()
    both = int(fabric.terminals[-1])
    assert len(fabric.attached_switches(both)) == 2
    reduction = ExactReduction(fabric)
    assert reduction.shared_root(both) == -1
    weights = np.full(fabric.num_channels, fabric.num_terminals ** 2 + 1, dtype=np.int64)
    reduction.step(both, weights)
    reduction.step(both, weights)
    assert reduction.counts == {"sweeps": 2, "plans": 2, "plan_hits": 0, "fallbacks": 0}
    sibling_a, sibling_b = (int(t) for t in fabric.terminals[:2])
    assert reduction.shared_root(sibling_a) == reduction.shared_root(sibling_b) >= 0
    plan = reduction._build_plan(sibling_a, hops_to_dest(fabric, sibling_a))
    assert any(both in nodes for *_, nodes in plan.levels)


def test_refine_and_validate_entry_points():
    """What the benchmark's probe calls: an uncached plan per call."""
    fabric = topologies.xgft(2, (4, 4), (1, 2))
    reduction = ExactReduction(fabric)
    weights = np.full(fabric.num_channels, fabric.num_terminals ** 2 + 1, dtype=np.int64)
    dest = int(fabric.terminals[3])
    dist, parent = reduction.refine(dest, hops_to_dest(fabric, dest), weights)
    want_dist, want_parent = dijkstra_to_dest(fabric, dest, weights)
    # A column keeps no leaf distances: compare them on the other rows only.
    rows = np.setdiff1d(np.arange(fabric.num_nodes), _leaves(fabric))
    np.testing.assert_array_equal(dist[rows], want_dist[rows])
    np.testing.assert_array_equal(parent, want_parent)
    assert reduction.validate(dest, dist, parent, weights)
    # An equally short way out with a higher channel id is still wrong.
    tie = next(
        (v, c) for v in map(int, fabric.switches) for c in map(int, fabric.out_channels(v))
        if c > parent[v] and fabric.is_switch(fabric.channels.dst[c])
        and dist[fabric.channels.dst[c]] + weights[c] == dist[v]
    )
    worse = parent.copy()
    worse[tie[0]] = tie[1]
    assert not reduction.validate(dest, dist, worse, weights)
    longer = dist.copy()
    longer[tie[0]] += 1
    assert not reduction.validate(dest, longer, parent, weights)
    assert reduction.counts["plans"] == 0 and not reduction._plans


# ----------------------------------------------------------------------
# the narrower proof: leaves are built, not checked
# ----------------------------------------------------------------------
@st.composite
def degraded_fabrics(draw):
    """A small random fabric — 1–3 terminals per switch, one dual-homed
    terminal, maybe doubled cables — minus random switches and cables."""
    s = draw(st.integers(min_value=2, max_value=7))
    b = FabricBuilder()
    sw = b.add_switches(s)
    for i in range(1, s):
        b.add_link(sw[i], sw[draw(st.integers(min_value=0, max_value=i - 1))])
    pair = st.tuples(st.integers(min_value=0, max_value=s - 1),
                     st.integers(min_value=0, max_value=s - 1))
    for a, c in draw(st.lists(pair, max_size=s)):
        if a != c:
            b.add_link(sw[a], sw[c])
    for switch in sw:
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            b.add_link(b.add_terminal(), switch)
    both = b.add_terminal()
    for i in draw(st.lists(st.integers(min_value=0, max_value=s - 1),
                           min_size=2, max_size=2, unique=True)):
        b.add_link(both, sw[i])
    fabric = b.build()
    dead_switches = draw(st.lists(st.sampled_from(sw), max_size=s - 1, unique=True))
    dead_cables = draw(st.lists(st.sampled_from(cable_keys(fabric)), max_size=4, unique=True))
    return degrade(fabric, dead_switches=dead_switches, dead_cables=dead_cables).fabric


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(degraded_fabrics(), st.integers(min_value=0, max_value=2**32 - 1))
def test_step_is_exact_on_random_degraded_fabrics(fabric, seed):
    reduction = ExactReduction(fabric)
    order = np.random.default_rng(seed).permutation(fabric.num_terminals)
    _assert_steps_match(fabric, reduction, order)
    assert reduction.counts["fallbacks"] == 0


def _tie_fabric(dest_channel_first):
    """Switches v and u, a terminal d homed on both, one leaf on each.
    Returns the fabric, d, v and the channels (v -> d) and (v -> u)."""
    b = FabricBuilder()
    v, u = b.add_switches(2)
    d = b.add_terminal()
    if dest_channel_first:
        into_d = b.add_link(v, d)[0]
        trunk = b.add_link(v, u)[0]
    else:
        trunk = b.add_link(v, u)[0]
        into_d = b.add_link(v, d)[0]
    b.add_link(u, d)
    for s in (v, u):
        b.add_link(b.add_terminal(), s)
    return b.build(), d, v, into_d, trunk


@pytest.mark.parametrize("dest_channel_first", [True, False], ids=["into-dest-low", "trunk-low"])
def test_tie_between_the_channel_into_dest_and_a_switch_channel(dest_channel_first):
    """v reaches d directly at 10 or through u at 4 + 6: a tie the hop
    plan cannot see (v -> u is no DAG channel). The lower id wins; when
    that is the trunk channel, validation must reject the candidate."""
    fabric, d, v, into_d, trunk = _tie_fabric(dest_channel_first)
    u = int(fabric.channels.dst[trunk])
    u_to_d = next(int(c) for c in fabric.out_channels(u) if fabric.channels.dst[c] == d)
    weights = np.full(fabric.num_channels, 10, dtype=np.int64)
    weights[trunk], weights[u_to_d] = 4, 6
    dist, parent = dijkstra_to_dest(fabric, d, weights)
    assert parent[v] == min(into_d, trunk)
    reduction = ExactReduction(fabric)
    assert reduction.validate(d, dist, parent, weights)
    other = parent.copy()
    other[v] = max(into_d, trunk)
    assert not reduction.validate(d, dist, other, weights)

    want_w, got_w = weights.copy(), weights.copy()
    want = _reference_step(fabric, d, want_w, fabric.kinds == 1)
    np.testing.assert_array_equal(reduction.step(d, got_w), want)
    np.testing.assert_array_equal(got_w, want_w)
    assert reduction.counts["fallbacks"] == (0 if dest_channel_first else 1)


def test_leaves_under_an_unreached_switch_stay_unrouted():
    """On the islands fabric, switch 2 keeps its terminals but reaches
    nothing: toward any other destination its leaves must be -1 and their
    uplinks must gain no weight."""
    fabric = _islands()
    s2 = _stranded_switch(fabric)
    stranded = [int(t) for t in fabric.terminals
                if list(fabric.attached_switches(int(t))) == [s2]]
    assert len(stranded) == 3
    uplinks = [int(fabric.out_channels(t)[0]) for t in stranded]
    dest = next(int(t) for t in fabric.terminals if int(t) not in stranded
                and len(fabric.out_channels(int(t))))
    reduction = ExactReduction(fabric)
    weights = np.full(fabric.num_channels, fabric.num_terminals ** 2 + 1, dtype=np.int64)
    before = weights.copy()
    want_w = weights.copy()
    want = _reference_step(fabric, dest, want_w, fabric.kinds == 1)
    parent = reduction.step(dest, weights)
    assert (parent[stranded] == -1).all()
    np.testing.assert_array_equal(weights[uplinks], before[uplinks])
    np.testing.assert_array_equal(parent, want)
    np.testing.assert_array_equal(weights, want_w)
    assert reduction.counts["fallbacks"] == 0
@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_engines_match_heap_reference(family, workers):
    fabric = FAMILIES[family]()
    base = SSSPEngine(kernel="python").route(fabric)
    reg = get_registry()
    reg.reset()
    got = SSSPEngine(kernel="numpy", workers=workers).route(fabric)
    assert_same_routing(base, got)
    # The pool parent times each destination like the serial loop does.
    assert reg.histogram("sssp_dijkstra_seconds", "").count == fabric.num_terminals
    assert reg.value("routing_parallel_fallbacks", engine="sssp") == 0


# ----------------------------------------------------------------------
# validation, not the cache key, carries correctness
# ----------------------------------------------------------------------
def _drop_chosen_channel(plan: HopPlan, parent: np.ndarray) -> HopPlan:
    """``plan`` minus one DAG channel the true column routes over."""
    for i, (chan, dst, starts, nodes) in enumerate(plan.levels):
        runs = np.diff(np.r_[starts, len(chan)])
        for j in np.flatnonzero(runs >= 2):  # the node keeps another channel
            k = int(np.flatnonzero(chan == parent[nodes[j]])[0])
            starts = starts.copy()
            starts[j + 1:] -= 1
            bucket = (np.delete(chan, k), np.delete(dst, k), starts, nodes)
            return plan._replace(levels=[*plan.levels[:i], bucket, *plan.levels[i + 1:]])
    raise AssertionError("no node with two DAG channels")


def _swap_first_levels(plan: HopPlan, parent: np.ndarray) -> HopPlan:
    return plan._replace(levels=[plan.levels[1], plan.levels[0], *plan.levels[2:]])


@pytest.mark.parametrize("corrupt", [_drop_chosen_channel, _swap_first_levels])
def test_poisoned_plan_is_rejected_and_output_identical(corrupt):
    fabric = topologies.xgft(2, (4, 4), (1, 2))
    reduction = ExactReduction(fabric)
    is_term = fabric.kinds == 1
    poisoned = []

    def poison(dest):
        """Once its first terminal has opened a plan, corrupt it for the rest."""
        root = reduction.shared_root(dest)
        if root in reduction._plans and root not in poisoned:
            scratch = np.full(fabric.num_channels, fabric.num_terminals ** 2 + 1, dtype=np.int64)
            parent = _reference_step(fabric, dest, scratch, is_term)
            reduction._plans[root] = corrupt(reduction._plans[root], parent)
            poisoned.append(root)

    _assert_steps_match(fabric, reduction, range(fabric.num_terminals), poison=poison)
    assert poisoned
    assert reduction.counts["fallbacks"] > 0
    assert reduction.counts["fallbacks"] == get_registry().value(
        "routing_parallel_fallbacks", engine="sssp")


def test_full_plan_cache_sweeps_per_destination(monkeypatch):
    fabric = FAMILIES["xgft"]()
    base = SSSPEngine(kernel="python").route(fabric)
    monkeypatch.setattr(reduction_mod, "PLAN_CACHE_BYTES", 0)
    T = fabric.num_terminals
    for workers in (0, 2):
        sink = InMemorySink()
        with use_sink(sink):
            got = SSSPEngine(kernel="numpy", workers=workers).route(fabric)
        assert_same_routing(base, got)
        run = sink.find("sssp.run")[0]
        assert run.attrs["plan_hits"] == 0
        assert run.attrs["sweeps"] == run.attrs["plans"] == T


# ----------------------------------------------------------------------
# sweeps performed == plans opened
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "build, plans",
    [
        (lambda: topologies.xgft(3, (14, 14, 12), (1, 4, 4)), 168),  # the fattree_pool fabric
        (FAMILIES["kautz"], 12),  # one terminal per switch: nothing shared, T sweeps
    ],
    ids=["fattree_pool", "kautz"],
)
def test_one_sweep_per_plan_opened(build, plans):
    fabric = build()
    for workers in (0, 2):
        get_registry().reset()
        sink = InMemorySink()
        with use_sink(sink):
            SSSPEngine(kernel="numpy", workers=workers).route(fabric)
        run = sink.find("sssp.run")[0]
        assert run.attrs["sweeps"] == run.attrs["plans"] == plans
        assert run.attrs["plan_hits"] == fabric.num_terminals - plans
        assert run.attrs["fallbacks"] == 0
        rows = [sp.attrs["rows"] for sp in sink.find("sssp.hop_block")]
        assert sum(rows) == plans


# ----------------------------------------------------------------------
# the leaf-uplink adds wait for the end of the order
# ----------------------------------------------------------------------
@pytest.mark.parametrize("fallback", [False, True], ids=["validated", "fallback"])
@pytest.mark.parametrize("name", sorted({**FAMILIES, **AWKWARD}))
def test_leaf_uplink_weights_steer_no_column(name, fallback, monkeypatch):
    """What deferring their adds rests on: noise on every leaf uplink's
    weight before every step moves no column — of the production step,
    of its fallback Dijkstra, nor of the heap reference — and the weights
    then differ by exactly the noise."""
    fabric = {**FAMILIES, **AWKWARD}[name]()
    if fallback:
        monkeypatch.setattr(ExactReduction, "validate", lambda self, *a: False)
    T = fabric.num_terminals
    uplinks = leaves(fabric).uplinks
    rng = np.random.default_rng(11)
    clean = np.full(fabric.num_channels, T * T + 1, dtype=np.int64)
    noisy = clean.copy()
    noise = np.zeros_like(clean)
    order = fabric.terminals[rng.permutation(T)]
    a, b = ExactReduction(fabric, order=order), ExactReduction(fabric, order=order)
    for dest in map(int, order):
        bump = rng.integers(1, 3 * T * T, size=len(uplinks))
        noisy[uplinks] += bump
        noise[uplinks] += bump
        want = a.step(dest, clean)
        np.testing.assert_array_equal(b.step(dest, noisy), want, err_msg=f"toward {dest}")
        np.testing.assert_array_equal(dijkstra_to_dest(fabric, dest, noisy)[1],
                                      dijkstra_to_dest(fabric, dest, clean)[1])
    np.testing.assert_array_equal(noisy - noise, clean)
    assert a.counts["fallbacks"] == (T if fallback else 0)


def test_owed_adds_land_at_the_end_of_the_order():
    """Inside the order the leaf uplinks lag by one add per validated
    column; the step at the end of the order settles them, and a step
    off the order settles its own at once."""
    fabric = FAMILIES["xgft"]()
    uplinks = leaves(fabric).uplinks
    order = [int(t) for t in fabric.terminals]
    reduction = ExactReduction(fabric, order=order)
    w0 = fabric.num_terminals ** 2 + 1
    weights = np.full(fabric.num_channels, w0, dtype=np.int64)
    for dest in order[:-1]:
        reduction.step(dest, weights)
    assert (weights[uplinks] == w0).all()
    reduction.step(order[-1], weights)
    ref = np.full(fabric.num_channels, w0, dtype=np.int64)
    for dest in order:
        _reference_step(fabric, dest, ref, fabric.kinds == 1)
    np.testing.assert_array_equal(weights, ref)
    before = weights.copy()
    reduction.step(order[0], weights)  # past the end: off the order
    _reference_step(fabric, order[0], before, fabric.kinds == 1)
    np.testing.assert_array_equal(weights, before)


def test_a_new_weights_array_gets_the_adds_owed_to_the_old_one():
    fabric = FAMILIES["xgft"]()
    order = [int(t) for t in fabric.terminals]
    reduction = ExactReduction(fabric, order=order)
    first = np.full(fabric.num_channels, fabric.num_terminals ** 2 + 1, dtype=np.int64)
    ref = first.copy()
    reduction.step(order[0], first)
    _reference_step(fabric, order[0], ref, fabric.kinds == 1)
    second = first.copy()
    reduction.step(order[1], second)
    np.testing.assert_array_equal(first, ref)


# ----------------------------------------------------------------------
# packed keys: too large to pack means not validated
# ----------------------------------------------------------------------
def _past_the_key_limit(where):
    """A fabric, a destination and weights with one candidate too large
    for the packed key: at the limit (``cap``), or just past ``2**(64 -
    bits)``, where the shifted key wraps to a small positive value. The
    wrapping channel is one of two a node picks between, so refine keeps
    the wrapped value as a short way and only the limit check in
    validation can tell."""
    if where.endswith("into_dest"):  # one of two cables from v into a multi-homed dest
        b = FabricBuilder()
        v, u = b.add_switches(2)
        b.add_link(v, u)
        dest = b.add_terminal()
        chan = b.add_link(v, dest, count=2)[0]
        b.add_link(u, dest)
        for switch in (v, u):
            b.add_link(b.add_terminal(), switch)
        fabric = b.build()
    else:  # one of a leaf switch's two ways up, toward another leaf switch
        fabric = topologies.xgft(2, (4, 4), (1, 2))
        dest = int(fabric.terminals[5])
        home = int(fabric.attached_switches(dest)[0])
        other = next(int(s) for s in fabric.switches if s != home
                     and fabric.channels_between(int(s), home) == []
                     and any(fabric.is_terminal(int(n)) for n in fabric.neighbors(int(s))))
        chan = next(int(c) for c in fabric.out_channels(other) if fabric.is_switch_channel[c])
    reduction = ExactReduction(fabric)
    weights = np.full(fabric.num_channels, fabric.num_terminals ** 2 + 1, dtype=np.int64)
    weights[chan] = (reduction._cap if where.startswith("cap")
                     else (1 << (64 - reduction._bits)) + 1)
    return fabric, reduction, dest, weights


@pytest.mark.parametrize("where", ["cap_trunk", "cap_into_dest", "wrap_trunk", "wrap_into_dest"])
def test_candidates_past_the_key_limit_fail_closed(where):
    """A candidate that does not fit ``(value << bits) | channel`` fails
    validation — once, counted — and the column and weights still equal
    the heap reference's."""
    fabric, reduction, dest, weights = _past_the_key_limit(where)
    want_w = weights.copy()
    want = _reference_step(fabric, dest, want_w, fabric.kinds == 1)
    np.testing.assert_array_equal(reduction.step(dest, weights), want)
    np.testing.assert_array_equal(weights, want_w)
    assert reduction.counts["fallbacks"] == 1
    assert get_registry().value("routing_parallel_fallbacks", engine="sssp") == 1


def _stranded_switch(fabric):
    """The islands' switch 2: it keeps its terminals but reaches nothing."""
    return next(int(s) for s in fabric.switches if len(fabric.out_channels(int(s)))
                and not fabric.is_switch_channel[fabric.out_channels(int(s))].any())


def test_validation_keys_reject_a_finite_row_without_a_parent():
    """A row no channel reaches, at a finite distance with no parent —
    which no refine produces — is caught even where that distance packs
    to the key of no candidate."""
    fabric = _islands()
    reduction = ExactReduction(fabric)
    s2 = _stranded_switch(fabric)
    dest = next(int(t) for t in fabric.terminals
                if len(fabric.out_channels(int(t))) and s2 not in fabric.attached_switches(int(t)))
    weights = np.full(fabric.num_channels, fabric.num_terminals ** 2 + 1, dtype=np.int64)
    dist, parent = dijkstra_to_dest(fabric, dest, weights)
    assert parent[s2] == -1 and reduction.validate(dest, dist, parent, weights)
    for far in (5, reduction._cap, reduction._cap + 7):
        bad = dist.copy()
        bad[s2] = far
        assert not reduction.validate(dest, bad, parent, weights)


# ----------------------------------------------------------------------
# the compute budget is still polled where it was
# ----------------------------------------------------------------------
@pytest.fixture()
def expire_after_first_step(monkeypatch):
    """The first destination routes; from then on the budget is spent, so
    the next per-destination poll of whichever loop is running must raise."""
    real = ExactReduction.step

    def step(self, *args, **kwargs):
        parent = real(self, *args, **kwargs)
        active_budget().deadline = 0.0
        return parent

    monkeypatch.setattr(ExactReduction, "step", step)


def test_budget_trips_inside_the_serial_loop(expire_after_first_step):
    with pytest.raises(ComputeTimeoutError):
        with compute_budget(60.0, label="unit"):
            SSSPEngine(kernel="numpy").route(FAMILIES["xgft"]())
    assert get_registry().value("sssp_sources_routed") == 1


def test_budget_trips_in_the_pool_parent(expire_after_first_step):
    with pytest.raises(ComputeTimeoutError) as err:
        with compute_budget(60.0, label="unit"):
            SSSPEngine(kernel="numpy", workers=2).route(FAMILIES["xgft"]())
    assert err.value.label == "unit"
    assert get_registry().value("sssp_sources_routed") == 1


def test_budget_trips_in_a_worker_sweep(monkeypatch):
    """The pool's threads poll the route's own budget: one spent inside a
    chunk's sweep surfaces as that budget's timeout."""
    _expire_mid_sweep(monkeypatch)
    with pytest.raises(ComputeTimeoutError) as err:
        with compute_budget(60.0, label="unit"):
            SSSPEngine(kernel="numpy", workers=2).route(FAMILIES["xgft"]())
    assert err.value.label == "unit"
    assert get_registry().value("sssp_sources_routed") == 0
