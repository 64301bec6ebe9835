"""Synthetic lookalikes of the six real HPC fabrics of the paper.

The paper evaluates routing on graph files of CHiC, JUROPA, Odin, Ranger,
Tsubame and Deimos. Those fabric files are not public, so we generate
*structural* stand-ins from the published descriptions: switch radix,
number of levels, trunking between big switches, oversubscription and the
irregularities (dual-homed service nodes, asymmetric cores) that make
these systems hard for specialised routing engines. See DESIGN.md §2 for
the substitution rationale.

Every generator takes ``scale`` ∈ (0, 1]: host and leaf-switch counts are
multiplied by it (structure preserved), so CI-sized experiments keep the
shape of the full systems. ``scale=1`` reproduces the published sizes.
"""

from __future__ import annotations

import math

from repro.exceptions import FabricError
from repro.network.builder import FabricBuilder
from repro.network.fabric import Fabric


def _scaled(value: int, scale: float, minimum: int = 1) -> int:
    return max(minimum, int(round(value * scale)))


def _check_scale(scale: float) -> None:
    if not (0 < scale <= 1):
        raise FabricError(f"scale must be in (0, 1], got {scale}")


class _ChassisSwitch:
    """A modular director switch (Voltaire ISR-style) modeled internally.

    Real "288-port switches" are 2-level Clos fabrics of 24-port chips:
    line boards expose external ports and connect upward to spine boards.
    OpenSM sees those chips as individual switches, and the internal
    stages are where local balancing (MinHop) loses against global
    balancing (SSSP) — so the lookalikes must model them.
    """

    def __init__(self, b: FabricBuilder, tag: str, num_line: int, num_spine: int,
                 ext_per_line: int = 12):
        self.b = b
        self.ext_per_line = ext_per_line
        self.lines = [b.add_switch(name=f"{tag}_line{i}") for i in range(num_line)]
        self.spines = [b.add_switch(name=f"{tag}_spine{i}") for i in range(num_spine)]
        for line in self.lines:
            for spine in self.spines:
                b.add_link(line, spine)
        self._next = 0
        self._used = [0] * num_line

    def reserve_port(self) -> int:
        """Claim one external port; returns its line-board switch id."""
        for _ in range(len(self.lines)):
            i = self._next
            self._next = (self._next + 1) % len(self.lines)
            if self._used[i] < self.ext_per_line:
                self._used[i] += 1
                return self.lines[i]
        raise FabricError("chassis switch out of external ports")

    def attach(self, node: int) -> None:
        """Cable an external node to the next line board with a free port."""
        self.b.add_link(node, self.reserve_port())


def odin(scale: float = 1.0) -> Fabric:
    """Odin (Indiana University): 128 nodes on a single 144-port switch
    (internally a 12-line x 12-spine Clos of 24-port chips).

    The one topology where the paper's DFSSSP slightly *loses* (-4.75%)
    to the specialised fat-tree routing — the internal Clos is a perfect
    fat tree, so the specialised spread is optimal and all reasonable
    routings are close.
    """
    _check_scale(scale)
    hosts = _scaled(128, scale, minimum=2)
    num_line = max(2, min(12, -(-hosts // 12)))
    b = FabricBuilder()
    chassis = _ChassisSwitch(b, "core", num_line=num_line, num_spine=12)
    for i in range(hosts):
        t = b.add_terminal(name=f"hca{i}")
        chassis.attach(t)
    b.metadata = {"family": "cluster", "system": "odin", "scale": scale, "hosts": hosts}
    return b.build()


def deimos(scale: float = 1.0) -> Fabric:
    """Deimos (TU Dresden): 724 nodes on three 288-port director switches
    in a chain with 30-cable trunks (paper Figure 11).

    Each director is modeled internally (24 line x 12 spine chips of the
    Voltaire ISR 9288); trunk cables land on specific line boards. The
    thin trunks and the internal stages are the congestion structure that
    SSSP's global balancing exploits in Section VI.
    """
    _check_scale(scale)
    per_switch = [_scaled(250, scale, 2), _scaled(224, scale, 2), _scaled(250, scale, 2)]
    trunk = _scaled(30, scale, 1)
    num_line = max(2, min(24, -(-(max(per_switch) + 2 * trunk) // 12)))
    num_spine = max(2, num_line // 2)
    b = FabricBuilder()
    chassis = [
        _ChassisSwitch(b, f"core{i}", num_line=num_line, num_spine=num_spine)
        for i in range(3)
    ]
    # Trunks between adjacent directors, spread over line boards: a trunk
    # cable occupies one external port on each side.
    for a, c in ((0, 1), (1, 2)):
        for _ in range(trunk):
            b.add_link(chassis[a].reserve_port(), chassis[c].reserve_port())
    idx = 0
    for ci, count in enumerate(per_switch):
        for _ in range(count):
            t = b.add_terminal(name=f"hca{idx}")
            chassis[ci].attach(t)
            idx += 1
    b.metadata = {
        "family": "cluster",
        "system": "deimos",
        "scale": scale,
        "hosts": sum(per_switch),
        "trunk": trunk,
    }
    return b.build()


def chic(scale: float = 1.0) -> Fabric:
    """CHiC (TU Chemnitz): 550 nodes, two-level fat tree of 24-port leaf
    switches (18 down / 6 up) with a pair of dual-homed storage nodes as
    the irregularity."""
    _check_scale(scale)
    hosts = _scaled(550, scale, 4)
    leaves_n = max(2, math.ceil(hosts / 18))
    spines_n = 6
    b = FabricBuilder()
    spines = [b.add_switch(name=f"spine{i}") for i in range(spines_n)]
    leaves = [b.add_switch(name=f"leaf{i}", radix=24) for i in range(leaves_n)]
    for leaf in leaves:
        for spine in spines:
            b.add_link(leaf, spine)
    idx = 0
    for li, leaf in enumerate(leaves):
        for _ in range(min(18, hosts - idx)):
            t = b.add_terminal(name=f"hca{idx}")
            b.add_link(t, leaf)
            idx += 1
    # Dual-homed storage servers (if at least two leaves exist).
    for s in range(2):
        t = b.add_terminal(name=f"storage{s}")
        b.add_link(t, spines[s % spines_n])
    b.metadata = {
        "family": "cluster",
        "system": "chic",
        "scale": scale,
        "hosts": idx + 2,
        "leaves": leaves_n,
    }
    return b.build()


def juropa(scale: float = 1.0) -> Fabric:
    """JUROPA/HPC-FF (FZ Jülich): 3288 nodes, QDR fat tree from 36-port
    switches with 2:1 oversubscription (24 hosts / 12 uplinks per leaf)."""
    _check_scale(scale)
    hosts = _scaled(3288, scale, 4)
    leaves_n = max(2, math.ceil(hosts / 24))
    spines_n = 12
    b = FabricBuilder()
    spines = [b.add_switch(name=f"spine{i}") for i in range(spines_n)]
    leaves = [b.add_switch(name=f"leaf{i}", radix=36) for i in range(leaves_n)]
    for leaf in leaves:
        for spine in spines:
            b.add_link(leaf, spine)
    idx = 0
    for leaf in leaves:
        for _ in range(min(24, hosts - idx)):
            t = b.add_terminal(name=f"hca{idx}")
            b.add_link(t, leaf)
            idx += 1
    # Lustre service nodes hang off the spines — the irregularity that
    # keeps JUROPA from being a pure fat tree.
    for s in range(2):
        t = b.add_terminal(name=f"lustre{s}")
        b.add_link(t, spines[s % spines_n])
    b.metadata = {
        "family": "cluster",
        "system": "juropa",
        "scale": scale,
        "hosts": idx + 2,
        "leaves": leaves_n,
    }
    return b.build()


def ranger(scale: float = 1.0) -> Fabric:
    """Ranger (TACC): 3936 nodes in 328 12-node chassis, dual-homed to two
    core "Magnum" fabrics of unequal width.

    Each Magnum is modeled as a two-level Clos (line switches x spines);
    core B has fewer line switches than core A — the asymmetry that lets
    globally balancing routers (SSSP/DFSSSP) gain the paper's 63% over
    locally balancing MinHop.
    """
    _check_scale(scale)
    chassis_n = _scaled(328, scale, 4)
    hosts_per_chassis = 12
    line_a = max(2, _scaled(28, scale, 2))
    line_b = max(2, _scaled(20, scale, 2))
    spines_a = max(2, _scaled(12, scale, 2))
    spines_b = max(2, _scaled(12, scale, 2))
    b = FabricBuilder()

    def build_magnum(tag: str, lines_n: int, spines_n: int) -> list[int]:
        spines = [b.add_switch(name=f"{tag}_spine{i}") for i in range(spines_n)]
        lines = [b.add_switch(name=f"{tag}_line{i}") for i in range(lines_n)]
        for line in lines:
            for spine in spines:
                b.add_link(line, spine)
        return lines

    lines_a = build_magnum("magA", line_a, spines_a)
    lines_b = build_magnum("magB", line_b, spines_b)
    idx = 0
    for ci in range(chassis_n):
        nem = b.add_switch(name=f"nem{ci}")
        b.add_link(nem, lines_a[ci % line_a])
        b.add_link(nem, lines_b[ci % line_b])
        for _ in range(hosts_per_chassis):
            t = b.add_terminal(name=f"hca{idx}")
            b.add_link(t, nem)
            idx += 1
    b.metadata = {
        "family": "cluster",
        "system": "ranger",
        "scale": scale,
        "hosts": idx,
        "chassis": chassis_n,
    }
    return b.build()


def tsubame(scale: float = 1.0) -> Fabric:
    """Tsubame (TokyoTech), 1430-endpoint configuration: big edge switches
    trunked unevenly to two cores — uneven trunks are the irregularity."""
    _check_scale(scale)
    hosts = _scaled(1430, scale, 4)
    edges_n = max(2, math.ceil(hosts / 143))
    per_edge = -(-hosts // edges_n)
    trunks_per_edge = max(2, _scaled(20, scale, 2))
    b = FabricBuilder()

    def chassis(tag: str, external: int) -> _ChassisSwitch:
        num_line = max(2, min(24, -(-external // 12)))
        return _ChassisSwitch(b, tag, num_line=num_line, num_spine=max(2, num_line // 2))

    cores = [chassis(f"core{i}", edges_n * trunks_per_edge) for i in range(2)]
    edges = [chassis(f"edge{i}", per_edge + trunks_per_edge) for i in range(edges_n)]
    for ei, edge in enumerate(edges):
        # Unbalanced trunk split between the two cores: deliberately
        # asymmetric (40/60 alternating), the system's irregularity.
        t0 = max(1, (trunks_per_edge * (2 if ei % 2 == 0 else 3)) // 5)
        t1 = trunks_per_edge - t0
        for _ in range(t0):
            b.add_link(edge.reserve_port(), cores[0].reserve_port())
        for _ in range(max(1, t1)):
            b.add_link(edge.reserve_port(), cores[1].reserve_port())
    idx = 0
    for edge in edges:
        for _ in range(min(per_edge, hosts - idx)):
            t = b.add_terminal(name=f"hca{idx}")
            edge.attach(t)
            idx += 1
    b.metadata = {
        "family": "cluster",
        "system": "tsubame",
        "scale": scale,
        "hosts": idx,
        "edges": edges_n,
    }
    return b.build()


def thunderbird(scale: float = 1.0) -> Fabric:
    """Thunderbird (Sandia, mentioned in §I): ≈4400 nodes on a half-
    bisection fat tree — leaf switches expose 16 host ports but only 8
    uplinks (the famous 2:1 taper), a second spine stage above."""
    _check_scale(scale)
    hosts = _scaled(4400, scale, 8)
    leaves_n = max(2, math.ceil(hosts / 16))
    spines_n = 8
    b = FabricBuilder()
    spines = [b.add_switch(name=f"spine{i}") for i in range(spines_n)]
    leaves = [b.add_switch(name=f"leaf{i}", radix=24) for i in range(leaves_n)]
    for leaf in leaves:
        for spine in spines:
            b.add_link(leaf, spine)
    idx = 0
    for leaf in leaves:
        for _ in range(min(16, hosts - idx)):
            t = b.add_terminal(name=f"hca{idx}")
            b.add_link(t, leaf)
            idx += 1
    b.metadata = {
        "family": "cluster",
        "system": "thunderbird",
        "scale": scale,
        "hosts": idx,
        "taper": "2:1",
    }
    return b.build()


def jaguar(scale: float = 1.0) -> Fabric:
    """Jaguar XT5 (ORNL, mentioned in §I): a 3D torus.

    The real machine is a 25x32x24 torus of SeaStar routers with ~19k
    endpoints; we scale the torus dimensions by the cube root of
    ``scale`` so the shape (and DOR-routability) is preserved.
    """
    _check_scale(scale)
    factor = scale ** (1.0 / 3.0)
    dims = tuple(max(3, int(round(d * factor))) for d in (25, 32, 24))
    from repro.network.topologies.torus import torus

    fabric = torus(dims, terminals_per_switch=1)
    fabric.metadata.update(
        {"system": "jaguar", "scale": scale, "hosts": fabric.num_terminals}
    )
    return fabric


CLUSTERS = {
    "odin": odin,
    "deimos": deimos,
    "chic": chic,
    "juropa": juropa,
    "ranger": ranger,
    "tsubame": tsubame,
    "thunderbird": thunderbird,
    "jaguar": jaguar,
}


def cluster(name: str, scale: float = 1.0) -> Fabric:
    """Build the named cluster lookalike (see :data:`CLUSTERS`)."""
    try:
        factory = CLUSTERS[name.lower()]
    except KeyError:
        raise FabricError(
            f"unknown cluster {name!r}; available: {sorted(CLUSTERS)}"
        ) from None
    return factory(scale=scale)
