#!/usr/bin/env python3
"""OpenSM interoperability: from a live-subnet dump to forwarding tables.

The workflow an InfiniBand operator would actually use:

1. ``ibnetdiscover > fabric.topo`` on the real cluster (here we use a
   bundled sample of a small two-switch subnet);
2. parse it into the fabric model;
3. route with DFSSSP and with the subnet's presumable default (MinHop);
4. export OpenSM-style artifacts — the linear forwarding tables
   (``ibroute`` format), the per-path SL assignment, and an
   ``ibtracert``-style route — ready to diff against the live subnet.

Run:  python examples/opensm_interop.py
"""

from repro import DFSSSPEngine, extract_paths, verify_deadlock_free
from repro.network import parse_ibnetdiscover
from repro.network.opensm_export import export_lft, export_route, export_sl_assignment

SAMPLE = """
# sample ibnetdiscover output: 2 ISR9024 switches, 4 nodes, 2-cable trunk
Switch  24 "S-0002c902400c8850"  # "sw-rack1 ISR9024D" base port 0 lid 6 lmc 0
[1]  "H-0002c9020020e78c"[1](e78d)  # "node-01 HCA-1" lid 4 4xSDR
[2]  "H-0002c9020020e790"[1](e791)  # "node-02 HCA-1" lid 9 4xSDR
[13]  "S-0002c902400c8851"[13]  # "sw-rack2 ISR9024D" lid 7 4xDDR
[14]  "S-0002c902400c8851"[14]  # "sw-rack2 ISR9024D" lid 7 4xDDR

Switch  24 "S-0002c902400c8851"  # "sw-rack2 ISR9024D" base port 0 lid 7 lmc 0
[3]  "H-0002c9020020e794"[1](e795)  # "node-03 HCA-1" lid 12 4xSDR
[4]  "H-0002c9020020e798"[1](e799)  # "node-04 HCA-1" lid 14 4xSDR
[13]  "S-0002c902400c8850"[13]  # "sw-rack1 ISR9024D" lid 6 4xDDR
[14]  "S-0002c902400c8850"[14]  # "sw-rack1 ISR9024D" lid 6 4xDDR

Ca  2 "H-0002c9020020e78c"  # "node-01 HCA-1"
[1](e78d)  "S-0002c902400c8850"[1]  # lid 4

Ca  2 "H-0002c9020020e790"  # "node-02 HCA-1"
[1](e791)  "S-0002c902400c8850"[2]  # lid 9

Ca  2 "H-0002c9020020e794"  # "node-03 HCA-1"
[1](e795)  "S-0002c902400c8851"[3]  # lid 12

Ca  2 "H-0002c9020020e798"  # "node-04 HCA-1"
[1](e799)  "S-0002c902400c8851"[4]  # lid 14
"""


def main() -> None:
    fabric = parse_ibnetdiscover(SAMPLE)
    print(f"parsed subnet: {fabric} (trunked inter-switch cables: "
          f"{len(fabric.channels_between(0, 1))})\n")

    result = DFSSSPEngine(max_layers=8).route(fabric)
    paths = extract_paths(result.tables)
    assert verify_deadlock_free(result.layered, paths).deadlock_free
    print(f"DFSSSP routed it deadlock-free with "
          f"{result.stats['layers_needed']} lane(s)\n")

    print(export_lft(result.tables))
    print(export_sl_assignment(result.layered))

    src = int(fabric.terminals[0])
    dst = int(fabric.terminals[-1])
    print(export_route(result.tables, src, dst))


if __name__ == "__main__":
    main()
