"""Known answer: a full mesh needs one virtual layer.

Every pair of switches shares a cable, so a minimal route crosses at most
one switch-to-switch channel and no path holds two in a row: the channel
dependency graph has no edge at all. DFSSSP must find exactly that, the
standalone checker must accept the certificate, and the switch-space
Algorithm-1 step must match the heap reference on a fabric where every
switch hosts several single-homed terminals (so its plans are shared).
"""

from __future__ import annotations

import json
from itertools import combinations

import numpy as np
import pytest

from repro import topologies
from repro.core import DFSSSPEngine
from repro.deadlock.certificate import emit_certificate
from repro.deadlock.checker import check_certificate
from repro.exceptions import FabricError
from repro.parallel.reduction import column_routine
from repro.routing import extract_paths

N, PER_SWITCH = 8, 2


@pytest.fixture(scope="module")
def mesh8():
    return topologies.full_mesh(N, terminals_per_switch=PER_SWITCH)


def test_every_switch_pair_shares_one_cable(mesh8):
    switches = [int(s) for s in mesh8.switches]
    assert mesh8.num_terminals == N * PER_SWITCH
    assert mesh8.metadata["family"] == "full_mesh"
    for a, b in combinations(switches, 2):
        assert sum(int(mesh8.channels.dst[c]) == b for c in mesh8.out_channels(a)) == 1
    homes = [mesh8.attached_switches(int(t)) for t in mesh8.terminals]
    assert all(len(h) == 1 for h in homes)
    assert np.bincount(np.concatenate(homes)).max() == PER_SWITCH


def test_needs_two_switches():
    with pytest.raises(FabricError):
        topologies.full_mesh(1)


@pytest.mark.parametrize("kernel", ["python", "numpy"])
def test_dfsssp_needs_one_layer_and_breaks_nothing(mesh8, kernel):
    result = DFSSSPEngine(kernel=kernel).route(mesh8)
    assert result.stats["layers_needed"] == 1
    assert result.stats["cycles_broken"] == 0
    paths = extract_paths(result.tables)
    assert paths.lengths().max() <= 2  # one switch cable, then the terminal's
    layers = result.layered.path_layers
    for layer in range(result.layered.num_layers):
        c1, _ = paths.dependency_edges(np.flatnonzero(layers == layer))
        assert len(c1) == 0, f"layer {layer} has dependency edges"


def test_standalone_checker_accepts_the_certificate(mesh8):
    result = DFSSSPEngine(kernel="numpy").route(mesh8)
    cert = emit_certificate(result.layered, extract_paths(result.tables), engine="dfsssp")
    wire = json.loads(cert.to_json())
    assert all(not layer["edges"] for layer in wire["layers"])
    verdict = check_certificate(wire)
    assert verdict.ok, verdict.summary()


def test_switch_space_step_matches_the_heap_reference(mesh8):
    T = mesh8.num_terminals
    ref_step, _ = column_routine(mesh8, "python")
    new_step, reduction = column_routine(mesh8, "numpy")
    ref_w = np.full(mesh8.num_channels, T * T + 1, dtype=np.int64)
    new_w = ref_w.copy()
    for dest in map(int, np.random.default_rng(3).permutation(mesh8.terminals)):
        want = ref_step(dest, ref_w)
        got = new_step(dest, new_w)
        np.testing.assert_array_equal(got, want, err_msg=f"parent toward {dest}")
        np.testing.assert_array_equal(new_w, ref_w, err_msg=f"weights after {dest}")
    # One plan per switch, shared by its other terminal.
    assert reduction.counts == {"sweeps": N, "plans": N, "plan_hits": T - N, "fallbacks": 0}
