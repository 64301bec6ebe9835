"""The certificate's integer text, rendered through a table, pinned.

``_json_array`` renders an integer array through a table of ``str(v)``
over the array's value range (per entry when that range is wider than
the array). The bytes must stay ``json.dumps(to_dict(), sort_keys=True)
+ "\\n"`` on the values that exercise the table: ``-1`` entries, channel
ids above 65 535 (narrow and wide ranges), arrays holding one value, and
a layer without edges — at the default block size and across block
boundaries — and the stdlib checker must reach the same verdict from the
written text as from the nested lists.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

import repro.deadlock.certificate as certificate_mod
from repro.deadlock.certificate import DeadlockFreedomCertificate, LayerWitness, layer_dtype
from repro.deadlock.checker import check_certificate

BIG = 70_000  # above 65 535: ids that no 16-bit type holds


def _layer(order, edges, dtype=np.int64):
    return LayerWitness(np.array(order, dtype=dtype),
                        np.array(edges, dtype=dtype).reshape(-1, 2))


CASES = {
    # -1 entries beside real layers; a path_layers of one repeated value
    "minus_one": lambda: ([-1, 0, 1, -1, 1, 0, -1], [_layer([3, 1, 2], [[3, 1], [1, 2]]),
                                                     _layer([5, 4], [[5, 4]])]),
    "all_minus_one": lambda: ([-1] * 9, [_layer([], [])]),
    # channel ids above 65 535, in a narrow range (table) and a wide one
    "big_narrow": lambda: ([0, 0, -1], [_layer([BIG + 2, BIG, BIG + 1],
                                               [[BIG + 2, BIG], [BIG, BIG + 1]])]),
    "big_wide": lambda: ([0, -1], [_layer([BIG * 9, 3, BIG], [[BIG * 9, 3], [3, BIG]])]),
    "int32_big": lambda: ([0, 1], [_layer([BIG + 1, BIG], [[BIG + 1, BIG]], np.int32),
                                   _layer([2, 1], [[2, 1]], np.int32)]),
    # arrays holding one value: a single node, an edge list of one value
    "one_value": lambda: ([0], [_layer([7], [])]),
    "one_value_edges": lambda: ([0, 0], [_layer([9, 9], [[9, 9], [9, 9]])]),  # rejected
    # a layer with no edges between two with edges
    "empty_middle_layer": lambda: ([0, 1, 2, -1], [_layer([2, 1], [[2, 1]]), _layer([], []),
                                                   _layer([BIG, 0], [[BIG, 0]])]),
    # a cycle: the checker must reject it from the text as from the lists
    "cyclic": lambda: ([0, 0], [_layer([1, 2], [[1, 2], [2, 1]])]),
}


def _certificate(name) -> DeadlockFreedomCertificate:
    path_layers, layers = CASES[name]()
    return DeadlockFreedomCertificate(
        engine="dfsssp", fingerprint="ab" * 32, num_layers=len(layers),
        path_layers=np.array(path_layers, dtype=np.int32), layers=layers,
    )


@pytest.mark.parametrize("block", [None, 1, 2], ids=["default", "block1", "block2"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_table_text_is_json_dumps(name, block, monkeypatch):
    if block is not None:
        monkeypatch.setattr(certificate_mod, "JSON_BLOCK", block)
    cert = _certificate(name)
    text = "".join(cert.json_chunks())
    assert text == json.dumps(cert.to_dict(), sort_keys=True) + "\n"
    assert text == cert.to_json()
    want = check_certificate(cert.to_dict())
    got = check_certificate(json.loads(text))
    assert (got.ok, got.summary()) == (want.ok, want.summary())
    assert (cert.check().ok, cert.check().summary()) == (want.ok, want.summary())


def test_the_cases_take_both_renderings(monkeypatch):
    """The pins above reach the table and the per-entry rendering."""
    seen = []
    real = certificate_mod._json_array

    def spy(arr):
        if arr.size and arr.dtype.kind in "iu":
            seen.append(int(arr.max()) - int(arr.min()) < arr.size)
        return real(arr)

    monkeypatch.setattr(certificate_mod, "_json_array", spy)
    for name in CASES:
        _certificate(name).to_json()
    assert True in seen and False in seen


def test_a_wide_range_builds_no_table():
    """A foreign certificate's range is unbounded: two values 200 000 apart
    render per entry, without a 200 000-entry table."""
    import tracemalloc

    arr = np.array([0, 200_000], dtype=np.int64)
    tracemalloc.start()
    try:
        text = "".join(certificate_mod._json_array(arr))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert text == "[0, 200000]"
    assert peak < 1 << 20


def test_verdicts_on_the_cases():
    verdict = {name: check_certificate(_certificate(name).to_dict()).ok for name in CASES}
    assert not verdict["cyclic"] and not verdict["one_value_edges"]
    assert verdict["minus_one"] and verdict["big_narrow"] and verdict["empty_middle_layer"]


def test_int8_layers_render_across_their_whole_range():
    """128 layers: int8 ``path_layers`` from -1 to 127, whose offsets into
    the text table (``value + 1``) reach 128, one past int8."""
    cert = DeadlockFreedomCertificate(
        engine="dfsssp", fingerprint="ab" * 32, num_layers=128,
        path_layers=np.arange(-1, 128, dtype=layer_dtype(128)),
        layers=[_layer([], []) for _ in range(128)],
    )
    assert cert.path_layers.dtype == np.int8
    assert cert.to_json() == json.dumps(cert.to_dict(), sort_keys=True) + "\n"
