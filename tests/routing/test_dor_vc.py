"""DOR with dateline virtual channels: the classic structured solution."""

import numpy as np
import pytest

from repro import topologies
from repro.deadlock import verify_deadlock_free, verify_with_networkx
from repro.exceptions import InsufficientLayersError, UnsupportedTopologyError
from repro.routing import DOREngine, DORVCEngine, extract_paths


@pytest.mark.parametrize("dims", [(5,), (6,), (4, 4), (3, 5), (3, 3, 3)])
def test_deadlock_free_on_tori(dims):
    fab = topologies.torus(dims, terminals_per_switch=1)
    result = DORVCEngine().route(fab)
    paths = extract_paths(result.tables)
    report = verify_deadlock_free(result.layered, paths)
    assert report.deadlock_free
    assert verify_with_networkx(result.layered, paths)


def test_routes_identical_to_plain_dor(torus333):
    plain = DOREngine().route(torus333).tables.next_channel
    vc = DORVCEngine().route(torus333).tables.next_channel
    assert (plain == vc).all()


def test_layer_count_is_wrap_bitmask():
    # 1D ring -> 2 layers, 2D torus -> 4, 3D -> 8.
    assert DORVCEngine().route(topologies.torus((5,), 1)).stats["layers_needed"] == 2
    assert DORVCEngine().route(topologies.torus((4, 4), 1)).stats["layers_needed"] == 4
    assert DORVCEngine().route(topologies.torus((3, 3, 3), 1)).stats["layers_needed"] == 8


def test_mesh_needs_single_layer():
    fab = topologies.mesh((4, 4), terminals_per_switch=1)
    result = DORVCEngine().route(fab)
    assert result.stats["layers_needed"] == 1
    assert (result.layered.path_layers == 0).all()


def test_hypercube_single_layer():
    fab = topologies.hypercube(3, terminals_per_switch=1)
    result = DORVCEngine().route(fab)
    assert result.stats["layers_needed"] == 1


def test_size_two_dims_do_not_wrap():
    fab = topologies.torus((2, 4), terminals_per_switch=1)
    result = DORVCEngine().route(fab)
    # Only the size-4 dimension can set a wrap bit.
    assert result.stats["layers_needed"] <= 2
    paths = extract_paths(result.tables)
    assert verify_deadlock_free(result.layered, paths).deadlock_free


@pytest.mark.parametrize("dims", [(2, 5), (5, 2), (2, 2, 5), (2, 4, 3)])
def test_size_two_dims_take_no_wrap_bit(dims):
    # Bits are numbered over the dimensions that can wrap, so the layers
    # in use are exactly 0 .. layers_needed-1 and a budget of that many fits.
    wrapping = sum(size > 2 for size in dims)
    fab = topologies.torus(dims, terminals_per_switch=1)
    result = DORVCEngine(max_layers=2**wrapping).route(fab)
    used = np.unique(result.layered.path_layers).tolist()
    assert used == list(range(2**wrapping))
    assert result.stats["layers_needed"] == result.layered.num_layers == 2**wrapping
    paths = extract_paths(result.tables)
    assert verify_deadlock_free(result.layered, paths).deadlock_free


def test_insufficient_layers():
    fab = topologies.torus((3, 3, 3), terminals_per_switch=1)
    with pytest.raises(InsufficientLayersError) as exc:
        DORVCEngine(max_layers=4).route(fab)
    assert exc.value.layers_needed_at_least == 8


def test_unsupported_topology(random16):
    with pytest.raises(UnsupportedTopologyError):
        DORVCEngine().route(random16)


def test_wrapping_paths_use_nonzero_layers():
    fab = topologies.torus((5,), terminals_per_switch=1)
    result = DORVCEngine().route(fab)
    hist = np.bincount(result.layered.path_layers, minlength=2)
    assert hist[0] > 0 and hist[1] > 0


def test_bad_max_layers():
    with pytest.raises(ValueError):
        DORVCEngine(max_layers=0)
