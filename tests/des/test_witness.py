"""The deadlock witness: ``DesOutcome.waitfor_cycle`` on the Figure 2 wedge.

SSSP on a 5-switch ring under the 2-hop clockwise shift wedges into a
circular credit wait. The witness is that wait — ``(channel, vc)`` queues,
each one's head packet waiting on the next one's full buffer — and it is
the same cycle the certificate emitter rejects the routing with.
"""

from collections import deque

import numpy as np
import pytest

from repro.deadlock.certificate import emit_certificate
from repro.des import run_pattern
from repro.des.engine import QueueStats, _Packet, _waitfor_cycle
from repro.exceptions import CertificateError
from repro.routing import extract_paths
from repro.routing.base import LayeredRouting
from repro.simulator import shift_pattern


@pytest.fixture(scope="module")
def shift2(ring5):
    return shift_pattern(ring5, 2)


def test_paper_figure2_deadlock(sssp_ring5, shift2):
    """5-ring + 2-hop clockwise shift + SSSP = guaranteed deadlock."""
    for buffers in (1, 2, 4):
        out = run_pattern(sssp_ring5, shift2, buffers=buffers, packets_per_flow=8)
        assert out.status == "deadlock"
        assert len(out.waitfor_cycle) == 5  # the full ring of queues
        assert out.delivered < 40


def test_witness_is_the_certificates_counterexample(sssp_ring5, shift2):
    out = run_pattern(sssp_ring5, shift2, buffers=2, packets_per_flow=8)
    assert out.status == "deadlock"
    tables = sssp_ring5.tables
    paths = extract_paths(tables)
    layered = sssp_ring5.layered or LayeredRouting.single_layer(tables)
    with pytest.raises(CertificateError) as err:
        emit_certificate(layered, paths)
    witness = out.waitfor_cycle
    assert {c for c, _ in witness} == set(err.value.counterexample) == {0, 2, 4, 6, 8}
    # Each wait (c, vc) -> (c', vc) is a layer-vc dependency some path induces.
    derived = paths.layer_edges(
        np.where(paths.active_mask(), layered.path_layers, -1), layered.num_layers
    )
    for (c, vc), (nc, nvc) in zip(witness, witness[1:] + witness[:1]):
        assert nvc == vc
        src, dst = derived[vc]
        assert (c, nc) in set(zip(src.tolist(), dst.tolist()))


def test_every_witness_queue_is_full_and_listed_once(sssp_ring5, shift2):
    out = run_pattern(sssp_ring5, shift2, buffers=2, packets_per_flow=8)
    occupancy = {(q.channel, q.vc): q.occupancy for q in out.queue_stats}
    assert len(set(out.waitfor_cycle)) == len(out.waitfor_cycle)
    assert all(occupancy[key] == 2 for key in out.waitfor_cycle)


def test_bigger_buffers_still_deadlock_eventually(sssp_ring5, shift2):
    out = run_pattern(sssp_ring5, shift2, buffers=3, packets_per_flow=16)
    assert out.status == "deadlock"
    assert out.waitfor_cycle


def test_deadlock_still_proven_with_long_packets(sssp_ring5, shift2):
    out = run_pattern(sssp_ring5, shift2, buffers=1, packets_per_flow=8, packet_length=3)
    assert out.status == "deadlock"
    assert len(out.waitfor_cycle) == 5


def test_no_witness_without_a_deadlock(sssp_ring5, dfsssp_ring5, shift2):
    assert run_pattern(dfsssp_ring5, shift2, buffers=1, packets_per_flow=8).waitfor_cycle == []
    # Infinite buffers never run out of credits.
    out = run_pattern(sssp_ring5, shift2, buffers=None, packets_per_flow=8)
    assert out.status == "completed"
    assert out.waitfor_cycle == []


def test_only_waits_on_full_queues_form_a_witness():
    a, b = QueueStats(channel=0, vc=0), QueueStats(channel=1, vc=0)
    for i, q in enumerate((a, b)):
        q._pkts = deque([_Packet(pid=i, fid=i, dst=9, nbytes=1, born=0.0)])
        q._occ = 1
    hops = {(a, 9): b, (b, 9): a}  # each head needs the other queue next
    assert _waitfor_cycle([a, b], hops, cap=1) == [(0, 0), (1, 0)]
    # With a spare slot the same waits are transient, not a wedge.
    assert _waitfor_cycle([a, b], hops, cap=2) == []
