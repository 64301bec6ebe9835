"""Deadlock-freedom certificates: emission, binding checks, persistence.

A :class:`DeadlockFreedomCertificate` is a self-contained, versioned JSON
witness of the Dally–Seitz condition for one routing: per virtual layer,
the channel-dependency edges the routing induces plus a topological order
over their endpoints, together with the full path→layer assignment. The
witness makes deadlock freedom *checkable in O(V+E)* by the deliberately
independent, stdlib-only :mod:`repro.deadlock.checker` — no re-run of
Algorithm 2, no shared CDG code (Mendlovic & Matias 2025 use exactly this
framing: acyclicity certificates are verifiable independently of how the
routes were computed).

Two levels of trust:

* :func:`repro.deadlock.checker.check_certificate` — *structural*: the
  certificate is well-formed and every certified layer really is acyclic
  under its own edge list. Needs nothing but the JSON.
  :meth:`DeadlockFreedomCertificate.check` gets the same verdict from
  :func:`~repro.deadlock.checker.check_layers` on flat ``tolist()``
  lists, never building the nested wire format; :meth:`~DeadlockFreedomCertificate.json_chunks`
  writes the JSON from the arrays the same way.
* :func:`check_against_routing` — *binding*: the certificate describes
  **this** routing. Re-derives each layer's dependency edges from the
  live :class:`~repro.routing.paths.PathSet`, compares them to the
  certified edges, and matches fingerprint and path→layer assignment.
  A certificate whose layers are individually acyclic but whose paths
  were silently remapped fails here.

:func:`check_servable` is the one gate in front of everything served
(supervisor, CLI, soaks): a routing that carries a certificate — a
restored checkpoint — gets the binding check, any other
one witness pass, which yields its certificate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.deadlock.checker import (
    FORMAT,
    KIND,
    CheckResult,
    check_layers,
    find_minimal_cycle,
    flat_edges,
)
from repro.deadlock.cycles import kahn_core
from repro.deadlock.verify import VerificationReport
from repro.exceptions import CertificateError, RoutingError
from repro.routing.base import LayeredRouting, RoutingTables
from repro.routing.io import fabric_fingerprint
from repro.routing.paths import PathSet, extract_paths
from repro.service.budget import check_budget
from repro.utils.atomicio import atomic_path

#: rows of an array the JSON writer renders into one text chunk
JSON_BLOCK = 1 << 14


@dataclass
class LayerWitness:
    """One layer's certified CDG: edge list plus a topological order."""

    topo_order: np.ndarray  # (V,) int32, node = channel id
    edges: np.ndarray  # (E, 2) int32, lexicographically sorted


@dataclass
class DeadlockFreedomCertificate:
    """Versioned, serialisable witness that a routing is deadlock-free."""

    engine: str
    fingerprint: str | None
    num_layers: int
    path_layers: np.ndarray  # (num_paths,) layer_dtype(num_layers), -1 = traffic-free path
    layers: list[LayerWitness]

    # -- serialisation --------------------------------------------------
    def to_dict(self) -> dict:
        """The JSON wire format as nested lists (tests and :meth:`from_dict`)."""
        return {
            "format": FORMAT,
            "kind": KIND,
            "engine": self.engine,
            "fingerprint": self.fingerprint,
            "num_layers": int(self.num_layers),
            "num_paths": int(len(self.path_layers)),
            "path_layers": self.path_layers.tolist(),
            "layers": [
                {"topo_order": lw.topo_order.tolist(), "edges": lw.edges.tolist()}
                for lw in self.layers
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DeadlockFreedomCertificate":
        """Inverse of :meth:`to_dict`, at the widths :func:`emit_certificate`
        gives: :func:`layer_dtype` layers, int32 channel ids. A payload it
        would have to reshape or cast (or whose values those widths cannot
        hold), or one with the wrong ``kind``, ``format`` or ``num_paths``, is
        a :class:`CertificateError`; whether the layers are acyclic is left
        to the checker."""
        if not isinstance(payload, dict):
            raise _malformed("not a JSON object")
        for key, want in (("kind", KIND), ("format", FORMAT)):
            if payload.get(key) != want:
                raise _malformed(f"{key} is {payload.get(key)!r}, expected {want!r}")
        num_layers, engine = payload.get("num_layers"), payload.get("engine", "?")
        if type(num_layers) is not int:
            raise _malformed(f"num_layers {num_layers!r} is not an integer")
        fingerprint = payload.get("fingerprint")
        if not isinstance(engine, str) or not (fingerprint is None or isinstance(fingerprint, str)):
            raise _malformed(f"engine {engine!r} or fingerprint {fingerprint!r} is not a string")
        path_layers = _int_array(payload.get("path_layers"), "path_layers",
                                 layer_dtype(num_layers))
        if payload.get("num_paths", len(path_layers)) != len(path_layers):
            raise _malformed(
                f"path_layers has {len(path_layers)} entries, num_paths says "
                f"{payload.get('num_paths')!r}"
            )
        if not isinstance(payload.get("layers"), list):
            raise _malformed("layers is not a list")
        layers = []
        for li, lw in enumerate(payload["layers"]):
            edges = lw.get("edges") if isinstance(lw, dict) else None
            if not (isinstance(edges, list) and set(map(type, edges)) <= {list}
                    and set(map(len, edges)) <= {2}):
                raise _malformed(f"layer {li} edges are not a list of [c1, c2] pairs")
            layers.append(LayerWitness(
                topo_order=_int_array(lw.get("topo_order"), f"layer {li} topo_order", np.int32),
                edges=_int_array(flat_edges(edges), f"layer {li} edges",
                                 np.int32).reshape(len(edges), 2),
            ))
        return cls(engine=engine, fingerprint=fingerprint,
                   num_layers=num_layers, path_layers=path_layers, layers=layers)

    def json_chunks(self):
        """:meth:`to_json` as text chunks rendered from the arrays, at most
        ``JSON_BLOCK`` rows at a time: the same bytes as
        ``json.dumps(self.to_dict(), sort_keys=True) + "\\n"`` without the
        nested lists."""
        yield (f'{{"engine": {json.dumps(self.engine)}, '
               f'"fingerprint": {json.dumps(self.fingerprint)}, "format": {FORMAT}, '
               f'"kind": {json.dumps(KIND)}, "layers": [')
        for i, lw in enumerate(self.layers):
            yield ', {"edges": ' if i else '{"edges": '
            yield from _json_array(lw.edges)
            yield ', "topo_order": '
            yield from _json_array(lw.topo_order)
            yield "}"
        yield (f'], "num_layers": {int(self.num_layers)}, '
               f'"num_paths": {len(self.path_layers)}, "path_layers": ')
        yield from _json_array(self.path_layers)
        yield "}\n"

    def to_json(self) -> str:
        return "".join(self.json_chunks())

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        with atomic_path(path, "w") as fp:
            fp.writelines(self.json_chunks())
        return path

    @classmethod
    def load(cls, path: str | Path) -> "DeadlockFreedomCertificate":
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, ValueError) as err:
            raise CertificateError(f"cannot read certificate {path}: {err}") from err
        return cls.from_dict(payload)

    # -- checking -------------------------------------------------------
    def check(self) -> CheckResult:
        """Structural check by the independent stdlib checker, on flat lists
        built one layer at a time: the verdict
        ``check_certificate(self.to_dict())`` would give."""
        return check_layers(
            int(self.num_layers),
            self.path_layers.tolist(),
            self.layers,
            unpack=lambda lw: (lw.topo_order.tolist(), _flat_list(lw.edges)),
        )

    @property
    def num_edges(self) -> int:
        return int(sum(len(lw.edges) for lw in self.layers))

    @property
    def num_nodes(self) -> int:
        return int(sum(len(lw.topo_order) for lw in self.layers))


def _malformed(what: str) -> CertificateError:
    return CertificateError(f"malformed certificate payload: {what}")


def layer_dtype(num_layers: int) -> np.dtype:
    """The narrowest signed width holding the certified layers ``-1`` …
    ``num_layers - 1``: int8 up to 128 layers."""
    for dtype in (np.int8, np.int16, np.int32):
        if num_layers <= np.iinfo(dtype).max + 1:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def _int_array(values, what: str, dtype) -> np.ndarray:
    """``values``, a list of ints, as an array; anything needing a cast is refused."""
    if not isinstance(values, list) or not set(map(type, values)) <= {int}:
        raise _malformed(f"{what} is not a list of integers")
    try:
        return np.array(values, dtype=dtype)
    except OverflowError as err:
        raise _malformed(f"{what}: {err}") from err


def _json_array(arr: np.ndarray):
    """``json.dumps(arr.tolist())`` as chunks of at most ``JSON_BLOCK`` rows
    of an integer ``(n,)`` or ``(n, 2)`` array.

    Each integer's text comes from a table of ``str(v)`` for ``v`` in
    ``range(min, max + 1)``, indexed by ``v - min``, so each value is
    rendered once: a certificate's values are layers and channel ids, so
    the table is no longer than the channel count. An array whose range
    is wider than the array itself would pay more for the table than it
    saves (and a foreign certificate's range is unbounded): it renders
    each entry instead."""
    if arr.dtype.kind not in "iu" or not (arr.ndim == 1 or arr.shape[1:] == (2,)) or not arr.size:
        yield json.dumps(arr.tolist())
        return
    lo, hi = int(arr.min()), int(arr.max())
    if hi - lo < arr.size:
        table = list(map(str, range(lo, hi + 1)))

        def render(block):  # the subtraction at int64: block may be int8
            return map(table.__getitem__, np.subtract(block, lo, dtype=np.int64).tolist())
    else:
        def render(block):
            return map(str, block.tolist())
    pairs = arr.ndim == 2
    start, sep, end = ("[[", "], [", "]]") if pairs else ("[", ", ", "]")
    for i in range(0, len(arr), JSON_BLOCK):
        text = render(arr[i:i + JSON_BLOCK].ravel())
        if pairs:
            text = map(", ".join, zip(text, text))
        yield (sep if i else start) + sep.join(text)
    yield end


def _flat_list(edges: np.ndarray) -> list:
    """The checker's flat edge list of what ``edges.tolist()`` holds."""
    if edges.ndim == 2 and edges.shape[1] == 2:
        return edges.ravel().tolist()
    return flat_edges(edges.tolist())


# ----------------------------------------------------------------------
def _traffic_layers(layered: LayeredRouting, paths: PathSet) -> np.ndarray:
    """The certified path -> layer map at :func:`layer_dtype` width:
    traffic-free paths at ``-1``."""
    layers = np.full(len(layered.path_layers), -1, dtype=layer_dtype(layered.num_layers))
    np.copyto(layers, layered.path_layers, where=paths.active_mask())
    return layers


def layer_witnesses(layered: LayeredRouting, paths: PathSet):
    """The one witness pass: ``(report, peels)``.

    The dependency edges of every layer's traffic-carrying paths (sorted
    ``(E, 2)``) come from one :meth:`~repro.routing.paths.PathSet.layer_edges`
    call, and each layer is Kahn-peeled once, polling the compute
    budget. The report names every cyclic layer with the
    checker's minimal cycle of that layer's edges as ``(c1, c2)`` pairs;
    ``peels`` holds ``(edges, nodes, rank)`` per acyclic layer, from which
    :func:`_certificate` sorts the topological order (nodes by peel
    round, then id) only when a certificate is wanted.

    A passing pass is kept on ``layered`` and ``layered.path_layers``
    (like every kept edge array) becomes read-only, so a later call with
    the same ``paths`` returns it after one budget poll, and an in-place
    write raises ``ValueError`` instead of leaving it stale. A cyclic
    pass keeps nothing: repair rewrites that assignment in place.
    """
    kept = layered._witness
    if (
        kept is not None
        and kept[0] is paths
        and kept[1] is layered.path_layers
        and not layered.path_layers.flags.writeable
    ):
        check_budget()  # cooperative deadline (repro.service)
        return kept[2], kept[3]
    path_layers = _traffic_layers(layered, paths)
    num_layers = layered.num_layers
    check_budget()  # cooperative deadline (repro.service)
    derived = paths.layer_edges(path_layers, num_layers)
    per_layer = np.bincount(path_layers[path_layers >= 0], minlength=num_layers)
    peels = []
    cycles: dict[int, list[tuple[int, int]]] = {}
    edges_per_layer: list[int] = []
    for layer, (src, dst) in enumerate(derived):
        check_budget()  # cooperative deadline (repro.service)
        edges = np.stack((src, dst), axis=1)
        nodes, rank = kahn_core(src, dst)
        edges_per_layer.append(len(edges))
        if (rank < 0).any():
            cycle = find_minimal_cycle(edges.tolist())
            cycles[layer] = list(zip(cycle, cycle[1:]))
        else:
            peels.append((edges, nodes, rank))
    report = VerificationReport(
        deadlock_free=not cycles,
        num_layers=num_layers,
        cycles=cycles,
        edges_per_layer=edges_per_layer,
        paths_per_layer=per_layer[:num_layers].tolist(),
    )
    if report.deadlock_free:
        for edges, _, _ in peels:  # every certificate of this routing shares them
            edges.flags.writeable = False
        layered.path_layers.flags.writeable = False
        layered._witness = (paths, layered.path_layers, report, peels)
    return report, peels


def _certificate(layered, paths, peels, engine=None, fingerprint=None) -> DeadlockFreedomCertificate:
    return DeadlockFreedomCertificate(
        engine=engine or layered.tables.engine,
        fingerprint=fabric_fingerprint(paths.fabric) if fingerprint is None else fingerprint,
        num_layers=layered.num_layers,
        path_layers=_traffic_layers(layered, paths),
        layers=[
            LayerWitness(topo_order=nodes[np.argsort(rank, kind="stable")], edges=edges)
            for edges, nodes, rank in peels
        ],
    )


def emit_certificate(
    layered: LayeredRouting,
    paths: PathSet,
    *,
    engine: str | None = None,
    fingerprint: str | None = None,
) -> DeadlockFreedomCertificate:
    """Derive a certificate from a layered routing (:func:`layer_witnesses`).

    Traffic-free paths are recorded as layer -1 so the binding check
    knows they were deliberately excluded. Raises
    :class:`CertificateError` carrying a real witness cycle of the first
    cyclic layer — there is no certificate for an unsafe routing.
    """
    report, peels = layer_witnesses(layered, paths)
    if report.cycles:
        layer = min(report.cycles)
        cycle = [c for c, _ in report.cycles[layer]] + [report.cycles[layer][-1][1]]
        chain = " -> ".join(str(c) for c in cycle)
        raise CertificateError(
            f"layer {layer} CDG is cyclic, routing cannot be certified "
            f"(counterexample cycle {chain})",
            layer=layer,
            counterexample=cycle,
        )
    return _certificate(layered, paths, peels, engine, fingerprint)


def check_against_routing(
    cert: DeadlockFreedomCertificate, layered: LayeredRouting, paths: PathSet
) -> CheckResult:
    """Full two-level check: structure + binding to a concrete routing.

    Level 1 delegates to the independent checker (well-formed, every
    layer acyclic). Level 2 binds the certificate to *this* routing:
    fingerprint, layer count, path→layer assignment on traffic-carrying
    paths, and per-layer equality between the certified edges and the
    edges re-derived from the live path set — one
    :meth:`~repro.routing.paths.PathSet.layer_edges` call of its own,
    never the kept witness pass.
    """
    res = cert.check()
    if not res.ok:
        return res

    def fail(reason: str, layer: int | None = None) -> CheckResult:
        return CheckResult(False, reason=reason, layer=layer)

    live_fp = fabric_fingerprint(paths.fabric)
    if cert.fingerprint is not None and cert.fingerprint != live_fp:
        return fail(
            f"certificate was issued for a different fabric "
            f"(fingerprint {cert.fingerprint[:12]}.. != {live_fp[:12]}..)"
        )
    if cert.num_layers != layered.num_layers:
        return fail(
            f"certificate has {cert.num_layers} layers, routing has "
            f"{layered.num_layers}"
        )
    if len(cert.path_layers) != paths.num_paths:
        return fail(
            f"certificate covers {len(cert.path_layers)} paths, routing has "
            f"{paths.num_paths}"
        )
    active = paths.active_mask()
    if not np.array_equal(cert.path_layers[active], layered.path_layers[active]):
        bad = int(np.flatnonzero(active & (cert.path_layers != layered.path_layers))[0])
        return fail(
            f"path -> layer assignment does not match the routing (first "
            f"divergence at pid {bad}: certificate says "
            f"{int(cert.path_layers[bad])}, routing says "
            f"{int(layered.path_layers[bad])})"
        )
    derived_layers = paths.layer_edges(_traffic_layers(layered, paths), cert.num_layers)
    for layer, edges in enumerate(derived_layers):
        derived = np.stack(edges, axis=1)
        claimed = cert.layers[layer].edges
        if derived.shape != claimed.shape or not np.array_equal(derived, claimed):
            return fail(
                f"certified dependency edges do not match the routing "
                f"({len(claimed)} certified vs {len(derived)} derived)",
                layer=layer,
            )
    return res


@dataclass(frozen=True)
class ServableVerdict:
    """What :func:`check_servable` decided; ``problem`` is ``None`` iff servable.

    ``paths`` is ``None`` when a terminal pair does not route. ``check`` is
    the binding check of a carried certificate; ``certificate`` is the
    carried one, or the one a passing witness pass built.
    """

    paths: PathSet | None
    certificate: DeadlockFreedomCertificate | None = None
    check: CheckResult | None = None
    problem: str | None = None

    @property
    def deadlock_free(self) -> bool | None:
        """``None`` when nothing was checked (unroutable, or no layers)."""
        if self.paths is None or (self.problem is None and self.certificate is None):
            return None
        return self.problem is None


def check_servable(
    tables: RoutingTables,
    layered: LayeredRouting | None,
    certificate: DeadlockFreedomCertificate | None = None,
) -> ServableVerdict:
    """The one gate for a served routing: routable, certified, bound.

    1. Every terminal pair routes (path extraction; its error is the
       problem).
    2. Without ``layered`` there is nothing more to decide.
    3. A carried ``certificate`` gets one :func:`check_against_routing`;
       the problem is the checker's summary (reason, witness edge,
       minimal counterexample).
    4. Otherwise one witness pass (:func:`layer_witnesses`) decides: a
       passing pass yields the certificate, a cyclic one names every
       cyclic layer and its witness cycle.
    """
    try:
        paths = extract_paths(tables)
    except RoutingError as err:
        return ServableVerdict(None, problem=str(err))
    if layered is None:
        return ServableVerdict(paths)
    if certificate is not None:
        check = check_against_routing(certificate, layered, paths)
        return ServableVerdict(paths, certificate, check, None if check.ok else check.summary())
    report, peels = layer_witnesses(layered, paths)
    if not report.deadlock_free:
        return ServableVerdict(paths, problem=report.failure_summary())
    return ServableVerdict(paths, _certificate(layered, paths, peels))
