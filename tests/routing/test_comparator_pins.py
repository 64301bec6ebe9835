"""Byte pins of the comparator engines' output.

MinHop, Up*/Down*, FatTree, DOR, DOR-VC and LASH share their min-hop
choice, terminal attachment and up/down loop. Each (fabric, engine) pair
below pins a sha256 over the forwarding tables, the per-path layers and
the engine's stats, so a refactor of the shared steps must leave every
byte of every engine's result as it was. A pair the engine does not
apply to pins the name of the error it raises.

To inspect a pair: ``python -m tests.routing.test_comparator_pins``
prints the current digests in the layout of ``PINS``.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro import topologies
from repro.exceptions import ReproError
from repro.network import FabricBuilder, fail_links
from repro.routing import make_engine

COMPARATORS = ("minhop", "updown", "ftree", "dor", "dor_vc", "lash")


def _builder_fabric():
    """A 5-switch ring with a trunked cable; one terminal dual-homed to
    switches 0 and 2, one double-cabled to switch 1, one on each of
    switches 3 and 4."""
    b = FabricBuilder()
    sw = b.add_switches(5)
    for a, c in zip(sw, sw[1:] + sw[:1]):
        b.add_link(a, c)
    b.add_link(sw[1], sw[3], count=2)
    dual, double, t3, t4 = b.add_terminals(4)
    b.add_link(dual, sw[0])
    b.add_link(dual, sw[2])
    b.add_link(double, sw[1], count=2)
    b.add_link(t3, sw[3])
    b.add_link(t4, sw[4])
    return b.build()


FABRICS = {
    "ring6x2": lambda: topologies.ring(6, terminals_per_switch=2),
    "torus333": lambda: topologies.torus((3, 3, 3), terminals_per_switch=1),
    "ktree42": lambda: topologies.kary_ntree(4, 2),
    "xgft": lambda: topologies.xgft(2, (4, 4), (1, 2)),
    "xgft_dual": lambda: topologies.xgft(2, (4, 4), (2, 2)),
    "random16": lambda: topologies.random_topology(16, 34, terminals_per_switch=3, seed=42),
    "dragonfly": lambda: topologies.dragonfly(4, 2, 2),
    "builder": _builder_fabric,
    "torus444x2": lambda: topologies.torus((4, 4, 4), terminals_per_switch=2),
    "mesh44x2": lambda: topologies.mesh((4, 4), terminals_per_switch=2),
    "hypercube4": lambda: topologies.hypercube(4),
    "kautz": lambda: topologies.kautz(2, 3, 24),
    # Three cables cut: Up*/Down* ranks and LASH trees on an irregular remnant.
    "random_degraded": lambda: fail_links(
        topologies.random_topology(14, 30, terminals_per_switch=2, seed=7), 3, seed=1
    ).fabric,
    # No switch_levels metadata: FatTree must infer the leveling.
    "clos_inferred": lambda: topologies.odin(scale=0.3),
    # One cut cable: DOR's "missing cable ... DOR cannot route".
    "torus_degraded": lambda: fail_links(topologies.torus((4, 4), 1), 1, seed=0).fabric,
}


def digest(fabric, engine: str) -> str:
    """sha256 over ``next_channel``, ``path_layers`` and ``stats``; the
    error's class name and message where the engine refuses the fabric."""
    try:
        result = make_engine(engine).route(fabric)
    except ReproError as err:
        return f"{type(err).__name__}: {err}"
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(result.tables.next_channel, dtype=np.int32).tobytes())
    if result.layered is not None:
        h.update(np.ascontiguousarray(result.layered.path_layers, dtype=np.int16).tobytes())
        h.update(str(result.layered.num_layers).encode())
    h.update(json.dumps(result.stats, sort_keys=True, default=str).encode())
    return h.hexdigest()


PINS = {
    'builder': {
        'minhop': 'cf8cf6fee99bf2ba3a141a3ffef29e88a2c9970f837bbfa19fb88da20790b784',
        'updown': '08fe8c2a97175163dd9be6c9f17025cda7a9cc8b6ceae977656fd8eadbad1126',
        'ftree': 'UnsupportedTopologyError: cable 0<->1 connects levels 1 and 1; not a fat tree',
        'dor': "UnsupportedTopologyError: DOR needs a coordinate topology (one of ('torus', 'mesh', 'hypercube', 'ring', 'chordal_ring')), got family None",
        'dor_vc': "UnsupportedTopologyError: DOR needs a coordinate topology (one of ('torus', 'mesh', 'hypercube', 'ring', 'chordal_ring')), got family None",
        'lash': '657b8053b5de05441dddbecaf766e90dd07f20ef6266d7a3abaddf8c6237a47d',
    },
    'clos_inferred': {
        'minhop': '582291e3a4ee21ca9bec176c8a40b608b7b027d60b8df85b98144c200f48aea5',
        'updown': '669f3a0f0bd44b79a211f7acb0f1858ba184e314648705daa4a689fea43bdfde',
        'ftree': '8d0718cbb92fc83868527cfe31eeb29ff7309b31ba82c35f3836c6d3c9ae1cac',
        'dor': "UnsupportedTopologyError: DOR needs a coordinate topology (one of ('torus', 'mesh', 'hypercube', 'ring', 'chordal_ring')), got family 'cluster'",
        'dor_vc': "UnsupportedTopologyError: DOR needs a coordinate topology (one of ('torus', 'mesh', 'hypercube', 'ring', 'chordal_ring')), got family 'cluster'",
        'lash': '5be820981aade2b9622f0349410f60bb3866d1a781dc2859100d88da917a09af',
    },
    'dragonfly': {
        'minhop': 'c2c204f7b86e1a758699825b5ab4d59d94a78497f96d9b01fe034845e48fe7e4',
        'updown': '08427fb8e6dd40f3642407c6d3101e844139fd74b53a1ffbaab74c768575d89d',
        'ftree': 'UnsupportedTopologyError: cable 0<->1 connects levels 1 and 1; not a fat tree',
        'dor': "UnsupportedTopologyError: DOR needs a coordinate topology (one of ('torus', 'mesh', 'hypercube', 'ring', 'chordal_ring')), got family 'dragonfly'",
        'dor_vc': "UnsupportedTopologyError: DOR needs a coordinate topology (one of ('torus', 'mesh', 'hypercube', 'ring', 'chordal_ring')), got family 'dragonfly'",
        'lash': 'a0b0efcc7036deed0a1bf7db8ab5117f8dc05bcef7b8641439cd147d7be8135b',
    },
    'hypercube4': {
        'minhop': '3b3f6444a401cbd375d0e4c5efde7e6a49d7816e928dd58482ac9fc08716b365',
        'updown': 'c66727d2801ad9c647450338636a03c5f05f0f6d8d461edc6058e3f095febc94',
        'ftree': 'UnsupportedTopologyError: cable 0<->1 connects levels 1 and 1; not a fat tree',
        'dor': 'b9a6bb476739d62dbfa7a135cb32f0d36fafb3af2cdb933d962e4305f65a3a6f',
        'dor_vc': '38db422094b5a400c8f3511a900515809b4a7794ae99d75f3a15dbf51f774172',
        'lash': '347227d49d747f227e64fe8bcbd1be7d0a0e6b570c68128117773bd307d4c433',
    },
    'kautz': {
        'minhop': '08238bdf5b852997765382689a81e2e0609f70be101de1659ef5bd3154ab0e16',
        'updown': 'f9f3b2aa45b4be91a67a44a72ca15f6d499c4080d4cd48b7a919002deb248cc5',
        'ftree': 'UnsupportedTopologyError: cable 0<->4 connects levels 1 and 1; not a fat tree',
        'dor': "UnsupportedTopologyError: DOR needs a coordinate topology (one of ('torus', 'mesh', 'hypercube', 'ring', 'chordal_ring')), got family 'kautz'",
        'dor_vc': "UnsupportedTopologyError: DOR needs a coordinate topology (one of ('torus', 'mesh', 'hypercube', 'ring', 'chordal_ring')), got family 'kautz'",
        'lash': '0c37edb9e2848e4309630522f7a9d5cbc3a34277fd2d42d5bf5d328a93fc2634',
    },
    'ktree42': {
        'minhop': '775cb9246e0e9051090735dc4f12d6c327265e2b5c4942908864ff5b571aa4ad',
        'updown': '14d4da91c86bbb734805e433a7681e5ba5ff25ba9de46c07b4328cbf677854d3',
        'ftree': '24b0779cbd9cb42cd80f704cc58b21ecc55b4eb1aa3bd9809a7d95ab196316a3',
        'dor': "UnsupportedTopologyError: DOR needs a coordinate topology (one of ('torus', 'mesh', 'hypercube', 'ring', 'chordal_ring')), got family 'kary_ntree'",
        'dor_vc': "UnsupportedTopologyError: DOR needs a coordinate topology (one of ('torus', 'mesh', 'hypercube', 'ring', 'chordal_ring')), got family 'kary_ntree'",
        'lash': '13971b4a1c41dff985238973e14982c44f9320c7bdd63d2ccc42e9ac8e8b69ca',
    },
    'mesh44x2': {
        'minhop': 'a642cd14c4c21c50c1f7a4f017a8ec6e115168ab0f74cc66c73d7878002099d7',
        'updown': '8160de1a60cdc458a0cb1f689c70f86c18d7e3e2c7ce1313f519e8fe9b70c6aa',
        'ftree': 'UnsupportedTopologyError: cable 0<->4 connects levels 1 and 1; not a fat tree',
        'dor': 'cbfe95f861abd0f5afc1ba6864f01c067ac6b02c64c6fff75583db4bc57c6f91',
        'dor_vc': '6316c13187484d84473e60523d1f74e85dc97b2707c1af108fa0eb372cf3744d',
        'lash': '796215ffa59851d601e79a70811d3d4bf13be4e8ebcf2cf8641a1cacea0acb27',
    },
    'random16': {
        'minhop': '8ea55a837e73ef57c6b75db90bf3f109ff64a7d717f7bf09fb33d36e186c8256',
        'updown': 'd6c40625b7743b15f24a85faa26aef0f52fd75c67834d11dff4e62701b14bfef',
        'ftree': 'UnsupportedTopologyError: cable 15<->6 connects levels 1 and 1; not a fat tree',
        'dor': "UnsupportedTopologyError: DOR needs a coordinate topology (one of ('torus', 'mesh', 'hypercube', 'ring', 'chordal_ring')), got family 'random'",
        'dor_vc': "UnsupportedTopologyError: DOR needs a coordinate topology (one of ('torus', 'mesh', 'hypercube', 'ring', 'chordal_ring')), got family 'random'",
        'lash': '8f2a0791ff53cf92c9f3abe1694eceb0c64aeb9d53c1fc9d1af4eacb98bd4ab3',
    },
    'random_degraded': {
        'minhop': 'e6367141c68944ac7eab5ffa2b6c7c54c71009901c193c14b75a48496dfcbb52',
        'updown': '9182c36b7fb8c3acdaeb810de55e43fbca7c1fb5fbd77c63a59b3e575b85a658',
        'ftree': 'UnsupportedTopologyError: cable 12<->3 connects levels 1 and 1; not a fat tree',
        'dor': "UnsupportedTopologyError: DOR needs a coordinate topology (one of ('torus', 'mesh', 'hypercube', 'ring', 'chordal_ring')), got family 'random'",
        'dor_vc': "UnsupportedTopologyError: DOR needs a coordinate topology (one of ('torus', 'mesh', 'hypercube', 'ring', 'chordal_ring')), got family 'random'",
        'lash': 'a05bddd9c6cdcd2465a64a34e5fe928bfbe8e30f3f8d6a6ec7a5244f21721c63',
    },
    'ring6x2': {
        'minhop': '67628b5dc05d58ce401588977d042d8ca7498bace44c4877b6f3c92b57296207',
        'updown': '45b2b8a036022997af44906a579362a38b10374ccd7e6f178f20b6790a3f118f',
        'ftree': 'UnsupportedTopologyError: cable 0<->1 connects levels 1 and 1; not a fat tree',
        'dor': 'e17eece533afeffc43be365c3b9971b94400271bbc7947d191a1eb152ea88bbe',
        'dor_vc': '88857151c6d646c050119a45bdeb2e26c3d66c98e9ced3f9562711316b1a0c7e',
        'lash': 'e0d37a226f3ffb8a93924e5e0a254c5d9b4bcc3909419163fc4ea2cbdb9e85dc',
    },
    'torus333': {
        'minhop': 'e34e352dc5b619974ebe18a208be2c9edbd7a6b50e11014f3b62d3811fca24db',
        'updown': 'e2dacf7e7c08b9d36095aae91d75d2acb0512b8a28c1c48a6bf1cb4490b4348d',
        'ftree': 'UnsupportedTopologyError: cable 0<->9 connects levels 1 and 1; not a fat tree',
        'dor': '78b566ae1a5305dc8f65cb536adb4edf6604a2c6e992eaf5196bab197f37528b',
        'dor_vc': '5a0a082aa74a0a6eee827af1d722970aef848d28934392ea4b7d41a3d0870ebe',
        'lash': '2931332738b7b285336b15d45b82aa3d7855756741d6316267d27144af851a38',
    },
    'torus444x2': {
        'minhop': 'dcb2a1a762b0c29348f0a77fc323ccea7d626b16ab659d19f26f54a6aac3388e',
        'updown': 'b2bbe33a7954b108f8ff936517ebabcacde520df2b09a2249987604b79130e34',
        'ftree': 'UnsupportedTopologyError: cable 0<->16 connects levels 1 and 1; not a fat tree',
        'dor': 'b42e90dd912da7db48329c25d5ae332bc7b606995f5556ab73bd6892e3dc627c',
        'dor_vc': '376f1ded30c043d19ead1edd861b3526df69e42a6ee06ed068f1e5c56df61925',
        'lash': '9323feabd845fc5a2cc62ca22b2fa5d80ce03fa7d1eab8df6521901d57c0348c',
    },
    'torus_degraded': {
        'minhop': '3aa42b9569bf814b7b0d3c0958e7cbee9bcd5832362ed2b201b580bbbdcf1c99',
        'updown': '385c24ce069daeb8b14e84771ca1001456cec46c9f0becb900906d6c7a3417f9',
        'ftree': 'UnsupportedTopologyError: cable 0<->4 connects levels 1 and 1; not a fat tree',
        'dor': 'UnsupportedTopologyError: missing cable (3, 2) -> (3, 1); DOR cannot route',
        'dor_vc': 'UnsupportedTopologyError: missing cable (3, 2) -> (3, 1); DOR cannot route',
        'lash': 'a5c65071641500734b3a358cdac2972e48cbdf4ec63ae5bf8b573767c68d60ed',
    },
    'xgft': {
        'minhop': 'cdd8edb1391f2259b01d248ec68713dd4c23ae732817f9c74606bc5fc60d95ec',
        'updown': '4d7831b60e102f71abdcd459d65fbad3b34a136ef17b048dac719ba7265686db',
        'ftree': 'f116b9a432a88dbc3150cc06d14c2afc645c709fbd4e3f2d2c875b57fb865c5b',
        'dor': "UnsupportedTopologyError: DOR needs a coordinate topology (one of ('torus', 'mesh', 'hypercube', 'ring', 'chordal_ring')), got family 'xgft'",
        'dor_vc': "UnsupportedTopologyError: DOR needs a coordinate topology (one of ('torus', 'mesh', 'hypercube', 'ring', 'chordal_ring')), got family 'xgft'",
        'lash': '7a93cb8a86a298ca7510f13de4ab342bfa8c1c0bbed52b5de83273c596c9821d',
    },
    'xgft_dual': {
        'minhop': 'd124181adb50cb19bdc329259a575de5a04fb74ae89a0e65de68418752106c94',
        'updown': 'RoutingError: Up*/Down* requires a connected switch graph; switches [17, 19, 21, 23, 26] are unreachable from root 16 without crossing terminals',
        'ftree': 'eff652b8dc971c3cb48dae7a105bc10ac56e480b87cfd7e3ccfe782c37f4c799',
        'dor': "UnsupportedTopologyError: DOR needs a coordinate topology (one of ('torus', 'mesh', 'hypercube', 'ring', 'chordal_ring')), got family 'xgft'",
        'dor_vc': "UnsupportedTopologyError: DOR needs a coordinate topology (one of ('torus', 'mesh', 'hypercube', 'ring', 'chordal_ring')), got family 'xgft'",
        'lash': 'RoutingError: lash: switch 17 cannot reach switch 16 through the switch graph',
    },
}


@pytest.mark.parametrize("name", sorted(FABRICS))
def test_comparators_match_pins(name):
    fabric = FABRICS[name]()
    got = {engine: digest(fabric, engine) for engine in COMPARATORS}
    assert got == PINS[name]


if __name__ == "__main__":
    for name in sorted(FABRICS):
        fabric = FABRICS[name]()
        print(f"    {name!r}: {{")
        for engine in COMPARATORS:
            print(f"        {engine!r}: {digest(fabric, engine)!r},")
        print("    },")
