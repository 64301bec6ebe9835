"""ORCS-equivalent congestion simulator."""

import numpy as np
import pytest

from repro import topologies
from repro.core import DFSSSPEngine
from repro.exceptions import SimulationError
from repro.routing import MinHopEngine
from repro.simulator import CongestionSimulator, bisection_pattern


@pytest.fixture(scope="module")
def star_sim():
    """A literal single-switch star: bisection traffic is contention-free."""
    from repro.network import FabricBuilder

    b = FabricBuilder()
    sw = b.add_switch()
    for i in range(32):
        t = b.add_terminal()
        b.add_link(t, sw)
    fab = b.build()
    tables = MinHopEngine().route(fab).tables
    return fab, CongestionSimulator(tables)


@pytest.fixture(scope="module")
def line_fabric_sim():
    """Two switches, single cable, 4 terminals: forced congestion."""
    from repro.network import FabricBuilder

    b = FabricBuilder()
    s0, s1 = b.add_switch(), b.add_switch()
    b.add_link(s0, s1)
    terms = []
    for i in range(4):
        t = b.add_terminal()
        b.add_link(t, s0 if i < 2 else s1)
        terms.append(t)
    fab = b.build()
    tables = MinHopEngine().route(fab).tables
    return fab, terms, CongestionSimulator(tables)


def test_uncongested_flows_get_full_bandwidth(line_fabric_sim):
    fab, terms, sim = line_fabric_sim
    result = sim.evaluate([(terms[0], terms[2])])
    assert result.mean_bandwidth == 1.0
    assert result.max_congestion == 1.0


def test_two_flows_share_the_middle_cable(line_fabric_sim):
    fab, terms, sim = line_fabric_sim
    result = sim.evaluate([(terms[0], terms[2]), (terms[1], terms[3])])
    assert result.mean_bandwidth == pytest.approx(0.5)
    assert result.max_congestion == 2.0


def test_intra_switch_flows_dont_cross(line_fabric_sim):
    fab, terms, sim = line_fabric_sim
    result = sim.evaluate([(terms[0], terms[1]), (terms[2], terms[3])])
    assert result.mean_bandwidth == 1.0


def test_channel_load_counts(line_fabric_sim):
    fab, terms, sim = line_fabric_sim
    result = sim.evaluate([(terms[0], terms[2]), (terms[1], terms[3])])
    middle = fab.channel_between(0, 1)
    assert result.channel_load[middle] == 2


def test_capacity_scales_sharing():
    """A double-capacity cable halves the effective congestion."""
    from repro.network import FabricBuilder

    b = FabricBuilder()
    s0, s1 = b.add_switch(), b.add_switch()
    b.add_link(s0, s1, capacity=2.0)
    terms = []
    for i in range(4):
        t = b.add_terminal()
        b.add_link(t, s0 if i < 2 else s1)
        terms.append(t)
    fab = b.build()
    sim = CongestionSimulator(MinHopEngine().route(fab).tables)
    result = sim.evaluate([(terms[0], terms[2]), (terms[1], terms[3])])
    assert result.mean_bandwidth == pytest.approx(1.0)


def test_star_bisection_is_contention_free(star_sim):
    _fab, sim = star_sim
    ebb = sim.effective_bisection_bandwidth(10, seed=0)
    assert ebb.ebb == pytest.approx(1.0)
    assert ebb.minimum == pytest.approx(1.0)


def test_ebb_statistics_fields(star_sim):
    _fab, sim = star_sim
    ebb = sim.effective_bisection_bandwidth(7, seed=1)
    assert ebb.num_patterns == 7
    assert len(ebb.per_pattern_mean) == 7
    assert ebb.minimum <= ebb.ebb <= ebb.maximum
    assert ebb.scaled(946.0) == pytest.approx(946.0 * ebb.ebb)


def test_ebb_deterministic_per_seed(star_sim):
    _fab, sim = star_sim
    a = sim.effective_bisection_bandwidth(5, seed=3)
    b = sim.effective_bisection_bandwidth(5, seed=3)
    assert np.allclose(a.per_pattern_mean, b.per_pattern_mean)


def test_empty_pattern_rejected(star_sim):
    _fab, sim = star_sim
    with pytest.raises(SimulationError, match="empty"):
        sim.evaluate([])


def test_zero_patterns_rejected(star_sim):
    _fab, sim = star_sim
    with pytest.raises(SimulationError, match="at least one"):
        sim.effective_bisection_bandwidth(0)


def test_dfsssp_beats_minhop_on_ranger():
    """Figure 4's headline: biggest gap on the asymmetric Ranger fabric."""
    fab = topologies.ranger(scale=0.05)
    mh = CongestionSimulator(MinHopEngine().route(fab).tables)
    df = CongestionSimulator(DFSSSPEngine().route(fab).tables)
    ebb_mh = mh.effective_bisection_bandwidth(15, seed=7).ebb
    ebb_df = df.effective_bisection_bandwidth(15, seed=7).ebb
    assert ebb_df >= ebb_mh


def test_flow_bandwidth_in_unit_interval(star_sim):
    fab, sim = star_sim
    pattern = bisection_pattern(fab, seed=9)
    result = sim.evaluate(pattern)
    assert (result.flow_bandwidth > 0).all()
    assert (result.flow_bandwidth <= 1.0 + 1e-12).all()
