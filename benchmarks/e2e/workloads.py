"""The four benchmark workloads, driven through public ``repro.*`` functions.

Every workload is one closed loop with one client: the next route, fault
or simulation starts when the previous one has been served and checked.
The program receives only generated inputs (fabrics, fault events, query
pairs, traffic patterns); the seed stays here.

Why these four (each stresses what another bypasses):

* ``fattree_pool``    — pool fan-out + exact reduce; no cycles, so Alg. 2 idles.
* ``random_layers``   — ~110 k cycles, 13 layers; Alg. 2 dominates, SSSP is ~13 %.
* ``fault_repair``    — the same layers used serially, once per fault, beside
  checkpoint writes and followed by look-ups in the served tables.
* ``des_collectives`` — the router does <1 %; the simulators do the rest.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
import statistics
import tempfile
import time
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import topologies
from repro.core import DFSSSPEngine, SSSPEngine
from repro.core.sssp import update_weights_for_dest_fast
from repro.deadlock import (
    LayerCDG,
    assign_layers_incremental,
    check_against_routing,
    check_certificate,
    emit_certificate,
    verify_deadlock_free,
    verify_with_networkx,
)
from repro.des import PacketDES, make_workload
from repro.network.faults import degrade, identity_degradation
from repro.obs import InMemorySink, use_sink
from repro.parallel.kernel import dijkstra_to_dest_numpy, hops_to_dest
from repro.parallel.native import numba_available
from repro.parallel.reduction import ExactReduction
from repro.resilience.events import LINK_UP, FaultInjector, relative_degradation
from repro.routing import LayeredRouting, RoutingResult, extract_paths, fabric_fingerprint
from repro.service.checkpoint import CheckpointStore
from repro.service.supervisor import RoutingSupervisor
from repro.simulator.congestion import CongestionSimulator

from spans import SpanRecorder

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
#: checkpoints land here: inside the checkout, ignored by git, removed at exit
WORK_ROOT = HERE / ".work"

#: the one engine configuration that is benchmarked; ``native`` waits for
#: numba to be in the image (``numba_available`` is recorded in the output)
ENGINE_CONFIG = {"kernel": "numpy", "cdg": "incremental", "heuristic": "weakest",
                 "balance": True}
#: the small readable path that wrote ``expected.json``; serial everywhere
REFERENCE_CONFIG = {"kernel": "python", "cdg": "rebuild", "heuristic": "weakest",
                    "balance": True, "workers": 0}

QUERY_BATCH_SIZE = 5_000
PROBE_DESTINATIONS = 32
TRACED_REPS = 2
MAX_FAULT_EVENTS = 60  # expected.json pins the served routing after each of these
MIN_FAULT_EVENTS = 10
COLLECTIVES = (("alltoall", {"size_bytes": 65536}),
               ("ring_allreduce", {"size_bytes": 1 << 22}))
#: the end-to-end spans whose children must account for them (dominance guard)
COVERED_SPANS = ("route_pipeline", "repair_replay")


@dataclass(frozen=True)
class Spec:
    build: object  # seed -> Fabric
    engine: dict  # DFSSSPEngine options beside ENGINE_CONFIG
    op_name: str  # the workload's own name for its closed-loop operation time
    query_batches: int  # look-up batches after every operation: 10 to 25 a run
    ebb_patterns: int = 200


SPECS = {
    "fattree_pool": Spec(
        lambda seed: topologies.xgft(3, (14, 14, 12), (1, 4, 4)),
        {"workers": 2, "max_layers": 8}, "route_s", query_batches=4,
    ),
    "random_layers": Spec(
        lambda seed: topologies.random_topology(512, 2048, 1, seed=seed),
        {"workers": 2, "max_layers": 16}, "route_s", query_batches=5,
    ),
    "fault_repair": Spec(
        lambda seed: topologies.xgft(3, (8, 8, 6), (1, 4, 4)),
        {"workers": 0, "max_layers": 8}, "repair_s", query_batches=1,
    ),
    "des_collectives": Spec(
        lambda seed: topologies.xgft(2, (8, 8), (1, 4)),
        {"workers": 0, "max_layers": 8}, "des_run_s", query_batches=3, ebb_patterns=2000,
    ),
}


# ----------------------------------------------------------------------
# operations and failures
# ----------------------------------------------------------------------
class Tally:
    """Counts operations and the ones that failed (README: definitions)."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    @contextmanager
    def operation(self, label: str):
        """One operation; the body appends to the yielded list whatever is
        wrong with the outcome. An exception fails the operation too — the
        loop is the boundary that has to keep running."""
        self.attempted += 1
        problems: list[str] = []
        try:
            yield problems
        except Exception:
            problems.append(traceback.format_exc(limit=6))
        if problems:
            self.failed += 1
            self.errors.append(f"{label}: " + "; ".join(problems))


@dataclass
class Context:
    name: str
    seed: int
    spec: Spec
    fabric: object
    engine_opts: dict
    expected: dict  # this workload's entry of expected.json; empty off the default seed
    workdir: Path
    rec: SpanRecorder
    build_s: float
    tally: Tally = field(default_factory=Tally)
    batch_us: list = field(default_factory=list)  # look-up batches, us per look-up

    def __post_init__(self):
        self.rng = np.random.default_rng(self.seed)  # draws the look-up pairs

    def engine(self) -> DFSSSPEngine:
        return DFSSSPEngine(**self.engine_opts)

    def mismatches(self, key: str, observed: dict) -> list[str]:
        """Where ``observed`` departs from ``expected.json``'s ``key`` entry."""
        return [f"{key}.{field_} differs from expected.json"
                for field_, want in self.expected.get(key, {}).items()
                if observed.get(field_, want) != want]


def setup(name: str, seed: int, trace: bool = False,
          engine_config: dict = ENGINE_CONFIG) -> Context:
    """What ``setup_s`` pays for besides the imports above: the fabric,
    ``expected.json`` and one warm-up route with the workload's engine
    options (pool and shared-memory spin-up, lazy imports), checked by
    networkx so every run has one verdict the repo's own cycle search did
    not produce."""
    spec = SPECS[name]
    t0 = time.perf_counter()
    fabric = spec.build(seed)
    build_s = time.perf_counter() - t0
    recorded = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
    expected = recorded["workloads"][name] if recorded.get("seed") == seed else {}
    engine_opts = {**spec.engine, **engine_config}
    warm = DFSSSPEngine(**engine_opts).route(topologies.xgft(2, (4, 4), (1, 2)))
    warm_paths = extract_paths(warm.tables)
    if not (verify_deadlock_free(warm.layered, warm_paths).deadlock_free
            and verify_with_networkx(warm.layered, warm_paths)):
        raise RuntimeError("warm-up routing is not deadlock-free")
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    return Context(name, seed, spec, fabric, engine_opts, expected, workdir,
                   SpanRecorder(name, enabled=trace), build_s)


def teardown(ctx: Context) -> None:
    shutil.rmtree(ctx.workdir, ignore_errors=True)


def closed_loop(seconds: float, times: list, min_ops: int = 2, max_ops: int | None = None):
    """Operation indices for one closed-loop client measuring ``seconds``.

    The next operation starts when the caller comes back for it. The loop
    ends when another operation would overshoot the deadline by more than
    half its typical time, so ``--seconds`` is met to within half an
    operation whether operations take 10 ms or 10 s.
    """
    start = time.perf_counter()
    n = 0
    while max_ops is None or n < max_ops:
        if n >= min_ops:
            typical = statistics.median(times) if times else 0.0
            if time.perf_counter() - start + 0.5 * typical >= seconds:
                return
        yield n
        n += 1


# ----------------------------------------------------------------------
# output oracle
# ----------------------------------------------------------------------
def _digest(arr, dtype) -> str:
    """sha256 of canonical array bytes (tests/data/golden_gen._digest)."""
    a = np.ascontiguousarray(np.asarray(arr, dtype=dtype))
    return hashlib.sha256(a.tobytes()).hexdigest()


def route_facts(result) -> dict:
    """What ``expected.json`` pins of one routing."""
    facts = {
        "next_channel": _digest(result.tables.next_channel, np.int32),
        "channel_weights": _digest(result.channel_weights, np.int64),
        "path_layers": _digest(result.layered.path_layers, np.int16),
    }
    for count in ("layers_needed", "cycles_broken"):  # absent after a repair
        if count in result.stats:
            facts[count] = int(result.stats[count])
    return facts


def event_digest(result) -> str:
    """One digest for the routing served after a fault event."""
    facts = route_facts(result)
    joined = "".join(facts[k] for k in ("next_channel", "channel_weights", "path_layers"))
    return hashlib.sha256(joined.encode()).hexdigest()


# ----------------------------------------------------------------------
# the pipeline: fabric -> served artefact
# ----------------------------------------------------------------------
def decomposed_route(ctx: Context):
    """``DFSSSPEngine.route`` spelled out layer by layer (traced run only):
    the same public calls in the same order, with a span around each."""
    rec, opts = ctx.rec, ctx.engine_opts
    sssp_engine = SSSPEngine(workers=opts["workers"], kernel=opts["kernel"])
    with rec.span("parallel.run" if opts["workers"] else "core.sssp.serial_route"):
        sssp = sssp_engine.route(ctx.fabric)
    sssp.tables.engine = "dfsssp"
    with rec.span("routing.paths.extract"):
        paths = extract_paths(sssp.tables)
    with rec.span("deadlock.incremental.assign") as sp:
        assignment = assign_layers_incremental(
            paths, max_layers=opts["max_layers"], heuristic=opts["heuristic"],
            balance=opts["balance"], pids=paths.active_pids(),
        )
        sp["counts"].update(cycles_broken=assignment.cycles_broken,
                            paths_moved=assignment.paths_moved)
    layered = LayeredRouting(sssp.tables, assignment.path_layers, assignment.num_layers)
    return RoutingResult(
        tables=sssp.tables, layered=layered, deadlock_free=True,
        channel_weights=sssp.channel_weights,
        stats={"layers_needed": assignment.layers_needed,
               "cycles_broken": assignment.cycles_broken},
    )


def route_pipeline(ctx: Context, store: CheckpointStore, version: int, fabric=None,
                   route=None) -> tuple:
    """Wall time fabric -> served artefact: route, extract the paths,
    verify, certify, bind the certificate to the routing, checkpoint.

    ``route`` replaces the full route (the fault replay passes a repair).
    Returns ``(result, paths, problems)``; ``problems`` lists what makes
    this operation a failed one.
    """
    rec = ctx.rec
    fabric = ctx.fabric if fabric is None else fabric
    with rec.span("route_pipeline"):
        if route is not None:
            result = route()
        elif rec.enabled:
            result = decomposed_route(ctx)
        else:
            result = ctx.engine().route(fabric)
        with rec.span("routing.paths.extract"):
            paths = extract_paths(result.tables)
        with rec.span("deadlock.verify.verify"):
            report = verify_deadlock_free(result.layered, paths)
        with rec.span("deadlock.certificate.emit"):
            result.certificate = emit_certificate(result.layered, paths, engine="dfsssp")
        with rec.span("deadlock.certificate.check"):
            check = check_against_routing(result.certificate, result.layered, paths)
        with rec.span("service.checkpoint.save"):
            store.save(version=version, baseline=fabric, result=result,
                       state={"engine": "dfsssp", "state": "healthy",
                              "dead_cables": [], "dead_switches": []})
    problems = []
    if not report.deadlock_free:
        problems.append(f"verify: {report.failure_summary()}")
    if not check.ok:
        problems.append(f"certificate: {check.reason}")
    return result, paths, problems


def run_routes(ctx: Context, seconds: float, count: int | None = None):
    """One pipeline run per operation: ``count`` of them, or a closed
    loop for ``seconds``. Returns ``(times, (result, paths), store)``."""
    store = CheckpointStore(ctx.workdir / "routes")
    times: list[float] = []
    served = None
    for rep in range(count) if count else closed_loop(seconds, times):
        ctx.rec.rep = rep
        # Let go of the last routing first: peak_rss_mb is then one
        # routing's footprint however many repetitions fit the run.
        served = result = paths = None
        with ctx.tally.operation(f"route {rep}") as problems:
            t0 = time.perf_counter()
            result, paths, found = route_pipeline(ctx, store, rep + 1)
            times.append(time.perf_counter() - t0)
            problems += found + ctx.mismatches("route", route_facts(result))
            served = (result, paths)
            look_up(ctx, result)
    return times, served, store


# ----------------------------------------------------------------------
# what every workload measures on the routing it serves
# ----------------------------------------------------------------------
def look_up(ctx: Context, result) -> None:
    """``spec.query_batches`` batches of seeded (src, dst) look-ups in what
    is served right now: the path and its virtual layer. Called after
    every operation, so the samples of ``query_us`` span the whole run."""
    tables, layered, fabric = result.tables, result.layered, result.tables.fabric
    for _ in range(ctx.spec.query_batches):
        src = ctx.rng.integers(0, fabric.num_terminals, QUERY_BATCH_SIZE)
        hop = ctx.rng.integers(1, fabric.num_terminals, QUERY_BATCH_SIZE)
        dst = (src + hop) % fabric.num_terminals
        pairs = list(zip(fabric.terminals[src].tolist(), fabric.terminals[dst].tolist()))
        with ctx.tally.operation(f"query batch {len(ctx.batch_us)}"):
            t0 = time.perf_counter()
            for s, d in pairs:
                tables.path_channels(s, d)
                layered.layer_for(s, d)
            ctx.batch_us.append((time.perf_counter() - t0) / QUERY_BATCH_SIZE * 1e6)


def quality_metrics(ctx: Context, result, paths) -> dict:
    """Layers needed and effective bisection bandwidth of a full route."""
    sim = CongestionSimulator(result.tables, paths)
    with ctx.tally.operation("ebb") as problems:
        with ctx.rec.span("simulator.congestion.ebb"):
            t0 = time.perf_counter()
            ebb = sim.effective_bisection_bandwidth(ctx.spec.ebb_patterns, seed=ctx.seed).ebb
            ebb_s = time.perf_counter() - t0
        if ctx.expected.get("ebb", ebb) != ebb:
            problems.append("ebb differs from expected.json")
        return {"ebb": ebb, "ebb_patterns_per_s": ctx.spec.ebb_patterns / ebb_s,
                "layers_needed": int(result.stats["layers_needed"])}
    raise RuntimeError(f"no eBB to report: {ctx.tally.errors[-1]}")


# ----------------------------------------------------------------------
# fault_repair
# ----------------------------------------------------------------------
def fault_stream(ctx: Context) -> list:
    """``(event, cumulative degradation)`` pairs: the generated input."""
    injector = FaultInjector(ctx.fabric, seed=ctx.seed, p_switch_down=0.1, p_link_up=0.2)
    stream = []
    while len(stream) < MAX_FAULT_EVENTS:
        stepped = injector.step()
        if stepped is None:
            break
        stream.append(stepped)
    return stream


def new_supervisor(ctx: Context) -> RoutingSupervisor:
    """Default ``ServicePolicy``; the engine options spell out the fixed
    configuration (kernel numpy, in-process serial columns)."""
    with ctx.rec.span("service.supervisor.init"):
        return RoutingSupervisor(ctx.fabric, "dfsssp", engine_opts=ctx.engine_opts,
                                 checkpoint_dir=ctx.workdir / "service")


def outcome_problems(outcome) -> list[str]:
    problems = []
    if outcome is None or not outcome.ok:
        problems.append(f"batch not ok: {getattr(outcome, 'errors', None)}")
    elif outcome.stale:
        problems.append("batch left the served routing stale")
    if outcome is not None and outcome.action in ("fallback", "failed", "rejected"):
        problems.append(f"batch action {outcome.action}")
    return problems


def run_faults(ctx: Context, sup: RoutingSupervisor, seconds: float, stream: list,
               count: int | None = None):
    """Submit and process one fault at a time; look up routes in between."""
    pinned = ctx.expected.get("events")
    times: list[float] = []
    outcomes = []
    ops = range(count) if count else closed_loop(
        seconds, times, min_ops=min(MIN_FAULT_EVENTS, len(stream)), max_ops=len(stream))
    for i in ops:
        ctx.rec.rep = i
        with ctx.tally.operation(f"fault {i} ({stream[i][0].kind})") as problems:
            with ctx.rec.span("service.supervisor.batch"):
                t0 = time.perf_counter()
                sup.submit(stream[i][0])
                outcome = sup.process()
                times.append(time.perf_counter() - t0)
            outcomes.append(outcome)
            problems += outcome_problems(outcome)
            served = sup.serving()
            if served.stale:
                problems.append("the supervisor serves a stale routing")
            if pinned and event_digest(served.result) != pinned[i]:
                problems.append("served routing differs from expected.json")
            look_up(ctx, served.result)
    return times, outcomes


def tail_percentile(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and its
    value; below twenty samples that is the median."""
    ordered = sorted(samples)
    if len(ordered) < 20:
        return 50.0, statistics.median(ordered)
    index = len(ordered) - 11
    return 100.0 * (index + 1) / len(ordered), ordered[index]


# ----------------------------------------------------------------------
# des_collectives
# ----------------------------------------------------------------------
def run_collectives(ctx: Context, seconds: float, result, count: int | None = None):
    """Both collectives, one after the other, per repetition."""
    des = PacketDES(result, buffer_packets=16)
    rep_times: list[float] = []
    totals = {"events": 0, "delivered": 0, "run_s": 0.0, "workload_s": 0.0}
    per_kind = {kind: {"events": 0, "run_s": 0.0} for kind, _ in COLLECTIVES}
    for rep in range(count) if count else closed_loop(seconds, rep_times):
        ctx.rec.rep = rep
        wall = 0.0
        for kind, params in COLLECTIVES:
            with ctx.tally.operation(f"des {kind} {rep}") as problems:
                with ctx.rec.span("des.workload"):
                    t0 = time.perf_counter()
                    workload = make_workload(kind, ctx.fabric, **params)
                    totals["workload_s"] += time.perf_counter() - t0
                with ctx.rec.span("des.run") as sp:
                    t0 = time.perf_counter()
                    outcome = des.run(workload)
                    run_s = time.perf_counter() - t0
                    sp["counts"].update(events=outcome.events_processed, kind=kind)
                wall += run_s
                totals["events"] += outcome.events_processed
                totals["delivered"] += outcome.delivered
                per_kind[kind]["events"] += outcome.events_processed
                per_kind[kind]["run_s"] += run_s
                if outcome.status != "completed":
                    problems.append(f"DES status {outcome.status}")
                if outcome.injected != outcome.delivered:
                    problems.append(f"injected {outcome.injected} != delivered {outcome.delivered}")
                problems += ctx.mismatches("log_hash", {kind: outcome.log_hash})
            look_up(ctx, result)
        totals["run_s"] += wall
        rep_times.append(wall)
    return rep_times, totals, per_kind


# ----------------------------------------------------------------------
# untraced run: the end-to-end numbers
# ----------------------------------------------------------------------
def run_untraced(ctx: Context, seconds: float) -> dict:
    """One workload, measured for ``seconds``. ``op_s`` is the time of one
    closed-loop operation; it is stored under the workload's own name too."""
    extra = {}
    if ctx.name == "fault_repair":
        sup = new_supervisor(ctx)
        # Quality is taken before the faults, where it does not depend on
        # which cables the seed happens to kill.
        first = sup.serving().result
        quality = quality_metrics(ctx, first, extract_paths(first.tables))
        times, _ = run_faults(ctx, sup, seconds, fault_stream(ctx))
        extra["repair_tail_percentile"], extra["repair_tail_s"] = tail_percentile(times)
    elif ctx.name == "des_collectives":
        _, (result, paths), _ = run_routes(ctx, 0.0, count=1)
        times, totals, _ = run_collectives(ctx, seconds, result)
        extra["des_events_per_s"] = totals["events"] / totals["run_s"]
        quality = quality_metrics(ctx, result, paths)
    else:
        times, (result, paths), _ = run_routes(ctx, seconds)
        quality = quality_metrics(ctx, result, paths)
    op_s = typical(ctx, times)
    return {"op_s": op_s, ctx.spec.op_name: op_s, "op_name": ctx.spec.op_name,
            "op_stat": "median" if ctx.name == "fault_repair" else "fastest",
            "op_median_s": statistics.median(times), "op_n": len(times),
            "op_min_s": min(times), "op_max_s": max(times), **extra, **quality,
            "query_us": min(ctx.batch_us), "query_median_us": statistics.median(ctx.batch_us),
            "query_n": len(ctx.batch_us)}


def typical(ctx: Context, times: list[float]) -> float:
    """One number for a run's operation times.

    Repetitions of identical work are summed up by the fastest: on a
    shared host interference only ever adds time, and across ten runs
    the fastest of three repetitions spreads half as far as their median
    (README, steadiness). Fault events are different work each, so they
    keep the median.
    """
    return statistics.median(times) if ctx.name == "fault_repair" else min(times)


# ----------------------------------------------------------------------
# traced run: the per-layer numbers
# ----------------------------------------------------------------------
def _median(values: list) -> float:
    return statistics.median(values) if values else 0.0


def probe_layers(ctx: Context, result, paths, store: CheckpointStore, layer: dict) -> None:
    """Single-layer calls on the workload's own fabric and final weights."""
    rec, fabric = ctx.rec, ctx.fabric
    for _ in range(3):
        with rec.span("network.fingerprint"):
            fabric_fingerprint(fabric)

    scratch = result.channel_weights.copy()  # the update writes its weights
    is_term = fabric.kinds == 1
    reduction = ExactReduction(fabric)
    picks = np.unique(np.linspace(0, fabric.num_terminals - 1, PROBE_DESTINATIONS).astype(int))
    for t_idx in picks:
        dest = int(fabric.terminals[t_idx])
        with rec.span("core.sssp.dijkstra"):
            dist, parent = dijkstra_to_dest_numpy(fabric, dest, result.channel_weights)
        with rec.span("core.sssp.update"):
            update_weights_for_dest_fast(fabric, dest, dist, parent, scratch, is_term)
        with rec.span("parallel.hops"):
            hops = hops_to_dest(fabric, dest)
        with rec.span("parallel.refine"):
            cand = reduction.refine(dest, hops, result.channel_weights)
            reduction.validate(dest, *cand, result.channel_weights)

    if ctx.engine_opts["workers"]:  # otherwise the traced pipeline ran it serially already
        with rec.span("core.sssp.serial_route"):
            SSSPEngine(workers=0, kernel=ctx.engine_opts["kernel"]).route(fabric)

    with rec.span("deadlock.incremental.build") as sp:
        sp["counts"]["edges"] = LayerCDG(paths, paths.active_pids()).num_edges

    cert_dict = result.certificate.to_dict()
    with rec.span("deadlock.checker.check"):
        if not check_certificate(cert_dict).ok:
            raise RuntimeError("the stdlib checker rejected the certificate")
    with rec.span("service.checkpoint.load"):
        loaded = store.load()
    layer["deadlock.certificate.json_bytes"] = len(result.certificate.to_json())
    layer["service.checkpoint.bytes"] = sum(
        f.stat().st_size for f in loaded.path.iterdir() if f.is_file())


def replay_faults(ctx: Context, stream: list, prior, layer: dict) -> None:
    """The supervisor's repair path, layer by layer, outside the supervisor:
    same events, same public calls, a span around each — and a full route
    of the same degraded fabric beside every incremental repair."""
    rec, engine = ctx.rec, ctx.engine()
    store = CheckpointStore(ctx.workdir / "replay")
    prev = identity_degradation(ctx.fabric)
    dead_cables: set = set()
    dead_switches: set = set()
    pinned = ctx.expected.get("events")
    ratios = []
    for i, (event, _) in enumerate(stream):
        rec.rep = i
        if event.kind == LINK_UP:
            dead_cables.discard(event.cable)
        elif event.cable is not None:
            dead_cables.add(event.cable)
        else:
            dead_switches.add(int(event.switch))
        with ctx.tally.operation(f"replay {i} ({event.kind})") as problems:
            with rec.span("repair_replay"):
                with rec.span("network.degrade"):
                    cur = degrade(ctx.fabric, dead_switches, dead_cables)
                rel = relative_degradation(prev, cur)

                def route():
                    if event.kind == LINK_UP:  # the supervisor skips the repair rung too
                        with rec.span("resilience.repair.full"):
                            return engine.route(cur.fabric)
                    with rec.span("resilience.repair.reroute"):
                        return engine.reroute(prior, rel)

                result, _, found = route_pipeline(ctx, store, i + 1, cur.fabric, route)
            problems += found
            if pinned and event_digest(result) != pinned[i]:
                problems.append("replayed routing differs from expected.json")
            if event.kind != LINK_UP:
                with rec.span("resilience.repair.full_route"):
                    engine.route(cur.fabric)
                ratios.append(rec.durations("resilience.repair.reroute")[-1]
                              / rec.durations("resilience.repair.full_route")[-1])
            prior, prev = result, cur
    layer["resilience.repair.vs_full"] = _median(ratios)


def sink_overhead(ctx: Context, store: CheckpointStore) -> float:
    """ROADMAP item 5's claim, measured: one pipeline run with the public
    in-memory ``repro.obs`` sink installed over one with the default sink."""
    ctx.rec.enabled = False  # time the untraced pipeline, as route_s does
    try:
        timings = []
        for version, sink in enumerate((nullcontext(), use_sink(InMemorySink())), start=100):
            t0 = time.perf_counter()
            with sink:
                route_pipeline(ctx, store, version)
            timings.append(time.perf_counter() - t0)
    finally:
        ctx.rec.enabled = True
    return timings[1] / timings[0]


#: per-layer timing metric -> (span it is the median of, seconds -> unit)
SPAN_METRICS = {
    "network.fingerprint_s": ("network.fingerprint", 1.0),
    "network.degrade_s": ("network.degrade", 1.0),
    "core.sssp.dijkstra_us": ("core.sssp.dijkstra", 1e6),
    "core.sssp.update_us": ("core.sssp.update", 1e6),
    "core.sssp.serial_route_s": ("core.sssp.serial_route", 1.0),
    "parallel.run_s": ("parallel.run", 1.0),
    "parallel.hops_us": ("parallel.hops", 1e6),
    "parallel.refine_us": ("parallel.refine", 1e6),
    "routing.paths.extract_s": ("routing.paths.extract", 1.0),
    "deadlock.incremental.build_s": ("deadlock.incremental.build", 1.0),
    "deadlock.incremental.assign_s": ("deadlock.incremental.assign", 1.0),
    "deadlock.verify.verify_s": ("deadlock.verify.verify", 1.0),
    "deadlock.certificate.emit_s": ("deadlock.certificate.emit", 1.0),
    "deadlock.certificate.check_s": ("deadlock.certificate.check", 1.0),
    "deadlock.checker.check_s": ("deadlock.checker.check", 1.0),
    "service.checkpoint.save_s": ("service.checkpoint.save", 1.0),
    "service.checkpoint.load_s": ("service.checkpoint.load", 1.0),
    "resilience.repair.reroute_s": ("resilience.repair.reroute", 1.0),
    "service.supervisor.init_s": ("service.supervisor.init", 1.0),
    "service.supervisor.restore_s": ("service.supervisor.restore", 1.0),
    "des.workload_s": ("des.workload", 1.0),
    "simulator.congestion.ebb_s": ("simulator.congestion.ebb", 1.0),
}


def run_traced(ctx: Context, seconds: float, layer: dict, with_sink_probe: bool) -> dict:
    """Repetitions under the span recorder plus single-layer probes.

    ``layer`` maps every declared per-layer metric to 0; a layer this
    workload never calls keeps that 0 (it did no work). Returns the run's
    other facts: the traced primary timing, span coverage, guards.
    """
    rec = ctx.rec
    primary, (result, paths), store = run_routes(
        ctx, 0.0, count=TRACED_REPS if ctx.engine_opts["workers"] else 1)
    probe_layers(ctx, result, paths, store, layer)
    layer["routing.paths.count"] = paths.num_paths
    layer["routing.paths.chans"] = len(paths.chans)
    quality = quality_metrics(ctx, result, paths)

    if ctx.name == "fault_repair":
        stream = fault_stream(ctx)[:max(6, int(seconds // 3))]
        primary, outcomes = run_faults(ctx, new_supervisor(ctx), 0.0, stream, count=len(stream))
        with rec.span("service.supervisor.restore"):
            RoutingSupervisor.restore(ctx.workdir / "service")
        replay_faults(ctx, stream, result, layer)
        layer["service.supervisor.repair_share"] = (
            sum(o.action == "repair" for o in outcomes) / len(outcomes))
        layer["service.supervisor.attempts_per_batch"] = (
            sum(o.attempts for o in outcomes) / len(outcomes))
        layer["service.supervisor.timeouts"] = sum(o.timeouts for o in outcomes)
    elif ctx.name == "des_collectives":
        primary, totals, per_kind = run_collectives(ctx, 0.0, result, count=TRACED_REPS)
        layer["des.run_s"] = _median(primary)
        layer["des.events"] = totals["events"] // len(primary)
        layer["des.packets_delivered"] = totals["delivered"] // len(primary)
        for kind, t in per_kind.items():
            layer[f"des.{kind}.events_per_s"] = t["events"] / t["run_s"]
    if with_sink_probe:
        layer["obs.sink_overhead"] = sink_overhead(ctx, store)

    for metric, (span_name, scale) in SPAN_METRICS.items():
        layer[metric] = _median(rec.durations(span_name)) * scale
    layer["network.build_s"] = ctx.build_s
    layer["service.query_us"] = min(ctx.batch_us)
    layer["simulator.congestion.patterns"] = ctx.spec.ebb_patterns
    layer["deadlock.incremental.edges"] = rec.counts("deadlock.incremental.build", "edges")[0]
    cycles = rec.counts("deadlock.incremental.assign", "cycles_broken")[0]
    moved = rec.counts("deadlock.incremental.assign", "paths_moved")[0]
    assign_s = layer["deadlock.incremental.assign_s"]
    layer["deadlock.incremental.cycles_broken"] = cycles
    layer["deadlock.incremental.paths_moved"] = moved
    layer["deadlock.incremental.evictions_per_s"] = cycles / assign_s if assign_s else 0.0
    layer["deadlock.incremental.moved_per_cycle"] = moved / cycles if cycles else 0.0
    if layer["parallel.run_s"]:
        # The Amdahl term: what the parent does alone per destination
        # (refine + validate + weight update), over the whole pool run.
        serial_s = (layer["parallel.refine_us"] + layer["core.sssp.update_us"]) * 1e-6
        layer["parallel.serial_share"] = (
            serial_s * ctx.fabric.num_terminals / layer["parallel.run_s"])
        layer["parallel.efficiency"] = layer["core.sssp.serial_route_s"] / (
            ctx.engine_opts["workers"] * layer["parallel.run_s"])

    route_s = _median(rec.durations("route_pipeline"))
    wall = rec.spans[-1]["end"] - rec.spans[0]["start"]
    routing_share = sum(rec.durations("route_pipeline")) / wall
    coverage = min(rec.coverage(name) for name in COVERED_SPANS if rec.durations(name))
    return {
        "traced_op_s": typical(ctx, primary), "traced_op_n": len(primary),
        "traced_route_s": route_s, "routing_share_of_wall": routing_share,
        "coverage": coverage, "ebb": quality["ebb"], "layers_needed": quality["layers_needed"],
        "guards": dominance_guards(ctx.name, layer, route_s, coverage, routing_share),
    }


def dominance_guards(name: str, layer: dict, route_s: float, coverage: float,
                     routing_share: float) -> list[dict]:
    """Does the workload still stress what it was chosen for? A failed
    guard is a warning row in the report, never an error."""
    parallel = layer["parallel.run_s"] / route_s
    assign = layer["deadlock.incremental.assign_s"] / route_s
    guards = [("layer spans / end-to-end span", coverage, ">=", 0.90)]
    if name == "fattree_pool":
        guards += [("parallel.run_s / route_s", parallel, ">=", 0.55),
                   ("deadlock.incremental.assign_s / route_s", assign, "<=", 0.15)]
    elif name == "random_layers":
        guards += [("deadlock.incremental.assign_s / route_s", assign, ">=", 0.55),
                   ("parallel.run_s / route_s", parallel, "<=", 0.25)]
    elif name == "des_collectives":
        guards.append(("routing / traced wall", routing_share, "<=", 0.02))
    return [{"guard": text, "value": value, "op": op, "limit": limit,
             "ok": value >= limit if op == ">=" else value <= limit}
            for text, value, op, limit in guards]


# ----------------------------------------------------------------------
# child entry points
# ----------------------------------------------------------------------
def peak_rss_mb() -> float:
    """Peak resident set of this process or of any child it has reaped
    (the pool workers), whichever is larger; ``ru_maxrss`` is in KiB."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def measure(name: str, seed: int, seconds: float, trace: bool, layer_names: list[str],
            trace_path: str | None = None, with_sink_probe: bool = False) -> dict:
    """Set up, run and tear down one workload; the child's whole report."""
    ctx = setup(name, seed, trace)
    try:
        if trace:
            layer = dict.fromkeys(layer_names, 0.0)
            report = run_traced(ctx, seconds, layer, with_sink_probe)
            undeclared = sorted(set(layer) - set(layer_names) - {"obs.sink_overhead"})
            if undeclared:
                raise RuntimeError(f"per-layer metrics missing from BENCHMARK.json: {undeclared}")
            report["layers"] = layer
            if trace_path:
                ctx.rec.write_jsonl(trace_path)
        else:
            report = {"metrics": run_untraced(ctx, seconds)}
    finally:
        teardown(ctx)
    report.update(
        attempted=ctx.tally.attempted, failed=ctx.tally.failed, errors=ctx.tally.errors,
        digest_checked=bool(ctx.expected), peak_rss_mb=peak_rss_mb(),
        numba_available=bool(numba_available()), numpy=np.__version__,
    )
    return report


def reference_record(name: str, seed: int) -> dict:
    """One workload's ``expected.json`` entry, computed by the reference
    path (python kernel, serial, rebuild CDG)."""
    ctx = setup(name, seed, engine_config=REFERENCE_CONFIG)
    ctx.expected = {}
    try:
        _, (result, paths), _ = run_routes(ctx, 0.0, count=1)
        record = {"route": route_facts(result)}
        if name == "fault_repair":
            sup = new_supervisor(ctx)
            record["events"] = []
            for event, _ in fault_stream(ctx):
                sup.submit(event)
                with ctx.tally.operation(f"reference fault {event.kind}") as problems:
                    problems += outcome_problems(sup.process())
                record["events"].append(event_digest(sup.serving().result))
        else:  # the served routing changes with every fault; the others pin its eBB
            record["ebb"] = CongestionSimulator(result.tables, paths).effective_bisection_bandwidth(
                ctx.spec.ebb_patterns, seed=seed).ebb
        if name == "des_collectives":
            des = PacketDES(result, buffer_packets=16)
            record["log_hash"] = {
                kind: des.run(make_workload(kind, ctx.fabric, **params)).log_hash
                for kind, params in COLLECTIVES}
    finally:
        teardown(ctx)
    if ctx.tally.failed:
        raise RuntimeError(f"the reference path failed: {ctx.tally.errors}")
    return record
