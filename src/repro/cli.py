"""Command-line interface: ``repro-route`` / ``python -m repro``.

Subcommands mirror the OpenSM-era workflow on the fabric model:

* ``topo``       — generate a topology, print a summary, optionally save it;
* ``route``      — run a routing engine, print path/layer statistics;
* ``simulate``   — effective bisection bandwidth for one or more engines;
* ``vls``        — virtual-lane requirements (DFSSSP heuristics vs LASH);
* ``deadlock``   — Figure 2 on the packet DES: drain a shift pattern, or
  print the wedge's credit wait-for cycle;
* ``throughput`` — open-loop saturation sweep (offered vs delivered load);
* ``bisection``  — theoretical bisection width of the fabric;
* ``orcs``       — ORCS-style named pattern / metric evaluation;
* ``des``        — packet-level discrete-event scenario sweep: AI-collective
  workloads (AllReduce, all-to-all, TP+PP, mice probes) over any engine set,
  with FCT percentiles, queue-occupancy stats and optional mid-run fault
  injection (see ``docs/des.md``);
* ``chaos``      — fault-injection soak (degrade/repair/verify loop);
* ``serve``      — supervised service-mode soak (deadlines, backoff,
  last-known-good serving, checkpoint/restore; see ``docs/service.md``);
* ``fleet-soak`` — fleet chaos soak: shard N fabrics across fault-isolated
  worker processes, replay concurrent requests while SIGKILLing workers,
  and assert zero unserved requests with certified respawns
  (see ``docs/fleet.md``);
* ``checkpoint`` — inspect and verify a service checkpoint directory;
* ``certify``    — emit / validate deadlock-freedom certificates (per-layer
  topological orders over the CDG, checkable in O(V+E) by the
  dependency-free ``python -m repro.deadlock.checker``);
* ``stats``      — render a ``--metrics`` JSON dump as a table, a
  ``--trace`` JSONL file as a span tree (``--trace-tree``, optionally
  filtered to one ``--request`` id), or a flight-recorder dump
  (``--flight``);
* ``health``     — judge declarative SLOs against a metrics dump
  (exit 1 on violation; powers the CI health gate).

Fabrics come from generators (``--family``), saved JSON (``--fabric``) or
real ``ibnetdiscover`` dumps (``--ibnetdiscover``).

Shared option groups are declared once, as parent parsers. Observability:
the routing, simulation and soak commands accept ``--trace FILE``
(JSON-lines span events) and ``--metrics FILE`` (metrics-registry dump
after the run; ``-`` = stdout, ``*.json`` = JSON, anything else
Prometheus text); the soaks add ``--flight-out`` (also dumped on SIGTERM)
and ``--health-out``. ``--json`` switches a command's result to
machine-readable JSON.

Examples::

    repro-route topo --family random --switches 16 --links 32 \
        --terminals-per-switch 4 --seed 7 --out fabric.json
    repro-route simulate --fabric fabric.json --engines minhop,dfsssp
    repro-route deadlock --family ring --switches 5 --shift 2
    repro-route route --family ring --switches 5 --terminals-per-switch 2 \
        --engine dfsssp --trace trace.jsonl --metrics metrics.json
    repro-route chaos --family random --switches 12 --links 26 --events 200 \
        --chaos-seed 42 --out chaos.json
    repro-route des --scenario scenario.json --out report.json \
        --trace des-trace.jsonl --metrics des-metrics.json
    repro-route serve --family random --switches 12 --links 26 --events 200 \
        --chaos-seed 7 --checkpoint-dir ckpt --out service.json
    repro-route serve --restore --checkpoint-dir ckpt --out service.json
    repro-route checkpoint ckpt
    repro-route stats metrics.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.exceptions import ReproError, RoutingError
from repro.network import load_fabric, save_fabric
from repro.network import topologies as topo
from repro.network.fabric import Fabric
from repro.obs import JsonlSink, get_recorder, get_registry, set_sink
from repro.obs.export import (
    build_trace_tree,
    event_detail,
    read_trace,
    render_top,
    render_trace_tree,
    slo_verdict,
    trace_request_ids,
)
from repro.routing import PAPER_ENGINES, make_engine
from repro.routing.base import LayeredRouting
from repro.deadlock.certificate import check_servable
from repro.simulator import CongestionSimulator, permutation_pattern, shift_pattern
from repro.utils.atomicio import atomic_write_text
from repro.utils.reporting import Table


def _build_topo(args, seed: int | None = None) -> Fabric:
    """The fabric the topology options describe (``seed`` overrides ``--seed``)."""
    if args.ibnetdiscover:
        from repro.network import load_ibnetdiscover

        return load_ibnetdiscover(args.ibnetdiscover)
    if args.fabric:
        return load_fabric(args.fabric)
    family = args.family
    if family == "ring":
        return topo.ring(args.switches, args.terminals_per_switch)
    if family == "torus":
        dims = tuple(int(d) for d in args.dims.split("x"))
        return topo.torus(dims, args.terminals_per_switch)
    if family == "hypercube":
        return topo.hypercube(args.dimension, args.terminals_per_switch)
    if family == "ktree":
        return topo.kary_ntree(args.k, args.n)
    if family == "xgft":
        ms = tuple(int(m) for m in args.ms.split(","))
        ws = tuple(int(w) for w in args.ws.split(","))
        return topo.xgft(len(ms), ms, ws)
    if family == "kautz":
        return topo.kautz(args.b, args.n, args.endpoints)
    if family == "random":
        return topo.random_topology(
            args.switches, args.links, args.terminals_per_switch,
            seed=args.seed if seed is None else seed,
        )
    if family == "dragonfly":
        return topo.dragonfly(args.a, args.p, args.h)
    if family in topo.CLUSTERS:
        return topo.cluster(family, scale=args.scale)
    raise ReproError(f"unknown topology family {family!r}")


def _read_json(path: str):
    """Parse a JSON file; ``-`` reads stdin."""
    if path == "-":
        return json.load(sys.stdin)
    with open(path, encoding="utf-8") as fp:
        return json.load(fp)


def _dump_metrics(target: str) -> None:
    reg = get_registry()
    if target == "-":
        sys.stdout.write(reg.render_prometheus())
    elif target.endswith(".json"):
        atomic_write_text(target, reg.render_json() + "\n")
    else:
        atomic_write_text(target, reg.render_prometheus())


def _print_fields(args, title: str, rows: dict) -> None:
    """``--json``: the dict as JSON; otherwise a field/value table."""
    if args.json:
        print(json.dumps(rows, indent=2))
        return
    table = Table(["field", "value"], title=title)
    for row in rows.items():
        table.add_row(row)
    print(table.render())


def _finish_soak(args, report, summary: dict, rows: dict, mode: str, title: str,
                 ok: bool) -> int:
    """The soaks' common tail: save ``--out``, write ``--flight-out`` and
    ``--health-out`` (``mode``'s SLOs), print the summary (``--json``) or
    the field/value ``rows``, and exit 0 iff the soak survived / passed."""
    if args.out:
        report.save(args.out)
    if args.flight_out:
        get_recorder().dump(args.flight_out)
    if args.health_out:
        from repro.obs.slo import evaluate_slos, slos_for

        health = evaluate_slos(slos_for(mode), get_registry().snapshot())
        health.save(args.health_out)
        # only the service summary has ever listed its violated SLOs
        if mode == "service" and not health.healthy:
            summary["slo_violations"] = [r.name for r in health.violations]
    _print_fields(args, title, summary if args.json else rows)
    if args.out and not args.json:
        print(f"report saved to {args.out}")
    return 0 if ok else 1


def cmd_topo(args) -> int:
    fabric = _build_topo(args)
    print(fabric)
    print(f"  switches:  {fabric.num_switches}")
    print(f"  terminals: {fabric.num_terminals}")
    print(f"  cables:    {fabric.num_channels // 2}")
    if args.out:
        save_fabric(fabric, args.out)
        print(f"saved to {args.out}")
    return 0


def cmd_route(args) -> int:
    fabric = _build_topo(args)
    table = Table(
        ["engine", "status", "deadlock-free", "layers", "mean hops", "max hops"],
        title=f"routing on {fabric}",
    )
    for name in args.engines.split(","):
        try:
            result = make_engine(name).route(fabric)
            layered = result.layered or LayeredRouting.single_layer(result.tables)
            verdict = check_servable(result.tables, layered)
            if verdict.paths is None:
                raise RoutingError(verdict.problem)
            lengths = verdict.paths.lengths()
            table.add_row(
                [
                    name,
                    "ok",
                    verdict.deadlock_free,
                    result.stats.get("layers_needed", result.num_layers),
                    float(lengths.mean()),
                    int(lengths.max(initial=0)),
                ]
            )
        except ReproError as err:
            table.add_row([name, f"failed: {type(err).__name__}", None, None, None, None])
    print(table.to_json() if args.json else table.render())
    return 0


def cmd_simulate(args) -> int:
    fabric = _build_topo(args)
    table = Table(
        ["engine", "eBB", "min", "max"],
        title=f"effective bisection bandwidth, {args.patterns} patterns, {fabric}",
    )
    for name in args.engines.split(","):
        try:
            result = make_engine(name).route(fabric)
            sim = CongestionSimulator(result.tables)
            ebb = sim.effective_bisection_bandwidth(args.patterns, seed=args.seed)
            table.add_row([name, ebb.ebb, ebb.minimum, ebb.maximum])
        except ReproError:
            table.add_row([name, None, None, None])
    print(table.to_json() if args.json else table.render())
    return 0


def cmd_stats(args) -> int:
    """Render a ``--metrics`` JSON dump, a trace tree and/or a flight dump."""
    if not args.file and not args.trace_tree and not args.flight:
        raise ReproError("stats needs a metrics file, --trace-tree or --flight")
    if args.trace_tree:
        records = read_trace(args.trace_tree)
        if args.request:
            roots = build_trace_tree(records, request_id=args.request)
            if not roots:
                raise ReproError(
                    f"{args.trace_tree}: no spans with request_id {args.request!r} "
                    f"(known: {', '.join(trace_request_ids(records)) or 'none'})"
                )
            print(f"request {args.request}:")
        else:
            roots = build_trace_tree(records)
        print(render_trace_tree(roots))
    if args.flight:
        dump = _read_json(args.flight)
        events = dump.get("events", [])
        print(
            f"flight recorder: {dump.get('recorded', len(events))} events recorded, "
            f"{dump.get('evicted', 0)} evicted, showing {len(events)}"
        )
        table = Table(["seq", "kind", "request", "detail"], title=args.flight)
        for event in events:
            table.add_row([
                event.get("seq"), event.get("kind"), event.get("request_id") or "-",
                event_detail(event),
            ])
        print(table.render())
    if args.file:
        data = _read_json(args.file)
        entries = data.get("metrics")
        if entries is None:
            raise ReproError(f"{args.file}: not a metrics dump (no 'metrics' key)")
        table = Table(["metric", "type", "labels", "value"], title="metrics registry")
        for e in entries:
            labels = ",".join(f"{k}={v}" for k, v in sorted(e.get("labels", {}).items())) or "-"
            if e["type"] == "histogram":
                table.add_row([f"{e['name']}_count", e["type"], labels, e["count"]])
                table.add_row([f"{e['name']}_sum", e["type"], labels, float(e["sum"])])
                table.add_row([f"{e['name']}_mean", e["type"], labels, float(e["mean"])])
            else:
                table.add_row([e["name"], e["type"], labels, e["value"]])
        print(table.render())
    return 0


def cmd_health(args) -> int:
    """Judge declarative SLOs against a recorded metrics dump."""
    from repro.obs.slo import evaluate_slos, load_slos, slos_for

    data = _read_json(args.file)
    if data.get("metrics") is None:
        raise ReproError(f"{args.file}: not a metrics dump (no 'metrics' key)")
    slos = load_slos(args.slos) if args.slos else slos_for(args.mode)
    report = evaluate_slos(slos, data)
    if args.out:
        report.save(args.out)
    if args.json:
        print(report.to_json())
    else:
        table = Table(
            ["slo", "objective", "value", "target", "burn", "verdict"],
            title=f"health ({args.mode} SLOs) from {args.file}",
        )
        for r in report.results:
            table.add_row(
                [
                    r.name,
                    r.objective,
                    round(r.value, 6) if r.value is not None else None,
                    r.threshold,
                    round(r.burn_rate, 3) if r.burn_rate is not None else None,
                    slo_verdict(r),
                ]
            )
        print(table.render())
        print(
            f"healthy: {report.healthy} "
            f"({len(report.evaluated)} evaluated, {len(report.violations)} violated)"
        )
    return 0 if report.healthy else 1


def cmd_vls(args) -> int:
    from repro.core import DFSSSPEngine, HEURISTICS
    from repro.routing.lash import LASHEngine

    fabric = _build_topo(args)
    table = Table(["algorithm", "virtual layers"], title=f"VL requirements on {fabric}")
    engines = {
        f"dfsssp/{h}": DFSSSPEngine(max_layers=args.max_layers, heuristic=h) for h in HEURISTICS
    }
    engines["lash"] = LASHEngine(max_layers=args.max_layers)
    for label, engine in engines.items():
        try:
            table.add_row([label, engine.route(fabric).stats["layers_needed"]])
        except ReproError:
            table.add_row([label, None])
    print(table.render())
    return 0


def cmd_throughput(args) -> int:
    from repro.des import saturation_sweep

    fabric = _build_topo(args)
    pattern = permutation_pattern(fabric, seed=args.seed)
    rates = [float(r) for r in args.rates.split(",")]
    table = Table(
        ["engine", "offered", "delivered", "latency [cyc]", "deadlocked"],
        title=f"open-loop throughput on {fabric}",
    )
    for name in args.engines.split(","):
        result = make_engine(name).route(fabric)
        for r in saturation_sweep(
            result, pattern, rates, buffers=args.buffers, packet_length=args.packet_length,
            warmup=args.warmup, measure=args.measure, seed=args.seed,
        ):
            table.add_row([name, r.offered_rate, r.delivered_rate, r.mean_latency, r.deadlocked])
    print(table.render())
    return 0


def cmd_orcs(args) -> int:
    from repro.simulator.orcs import run_orcs

    fabric = _build_topo(args)
    for name in args.engines.split(","):
        result = make_engine(name).route(fabric)
        orcs = run_orcs(
            result.tables,
            pattern=args.pattern,
            metric=args.metric,
            num_runs=args.runs,
            seed=args.seed,
        )
        print(f"--- {name} ---")
        print(orcs.report())
    return 0


def cmd_bisection(args) -> int:
    from repro.analysis import estimate_bisection

    fabric = _build_topo(args)
    est = estimate_bisection(fabric, restarts=args.restarts, seed=args.seed)
    kind = "exact" if est.exact else "heuristic upper bound"
    print(f"fabric            : {fabric}")
    print(f"bisection width   : {est.cut_capacity:g} link(s) ({kind})")
    print(f"terminal split    : {est.terminals_a} | {est.terminals_b}")
    print(f"per-pair bandwidth: {est.per_pair_bandwidth:.3f} of link speed")
    return 0


def cmd_des(args) -> int:
    from repro.des import run_scenario

    raw = _read_json(args.scenario)
    scenarios = raw if isinstance(raw, list) else [raw]
    reports = [run_scenario(spec) for spec in scenarios]
    payload = [r.to_dict() for r in reports]
    out_doc = payload[0] if not isinstance(raw, list) else payload
    if args.out:
        atomic_write_text(args.out, json.dumps(out_doc, indent=2) + "\n")
    if args.events_out:
        events = {
            r.scenario["name"]: {
                name: outcome.log
                for name, outcome in r.outcomes.items()
                if outcome.log is not None
            }
            for r in reports
        }
        atomic_write_text(args.events_out, json.dumps(events, indent=1) + "\n")
    if args.json:
        print(json.dumps(out_doc, indent=2))
    else:
        for report in reports:
            spec = report.scenario
            table = Table(
                ["engine", "status", "flows", "fct p50 [us]", "fct p99 [us]",
                 "Gbytes/s", "drops", "lost", "max queue", "layers"],
                title=f"des: {spec['name']} ({spec['workload']['kind']}, "
                f"{report.fabric_summary['terminals']} terminals)",
            )
            for name in spec["engines"]:
                res = report.results[name]
                if "error" in res:
                    table.add_row([name, "error", res["error"], "", "", "", "", "", "", ""])
                    continue
                fct = res["fct"]
                table.add_row([
                    name,
                    res["status"],
                    f"{res['flows_completed']}/{res['flows_released']}",
                    round(fct["p50"] * 1e6, 3) if fct["p50"] is not None else "-",
                    round(fct["p99"] * 1e6, 3) if fct["p99"] is not None else "-",
                    round(res["throughput_bytes_per_s"] / 1e9, 3),
                    res["dropped"],
                    res["lost"],
                    res["queues"]["max_occupancy"],
                    res["layers"],
                ])
            print(table.render())
            for name in spec["engines"]:
                for note in report.results[name].get("faults", []):
                    print(f"  fault[{name}]: {note}")
            if args.out:
                print(f"report saved to {args.out}")
    ok = all(
        any("error" not in res for res in report.results.values())
        for report in reports
    )
    return 0 if ok else 1


def cmd_chaos(args) -> int:
    from repro.resilience import ChaosRunner

    fabric = _build_topo(args)
    runner = ChaosRunner(
        make_engine(args.engine),
        verify=not args.no_verify,
    )
    report = runner.run(
        fabric,
        num_events=args.events,
        seed=args.chaos_seed,
        p_switch_down=args.p_switch_down,
        p_link_up=args.p_link_up,
    )
    summary = report.summary()
    rows = {
        key: summary[key]
        for key in (
            "events_requested",
            "events_applied",
            "incremental_repairs",
            "full_reroutes",
            "escalations",
            "destinations_repaired",
            "destinations_examined",
        )
    }
    rows.update((f"events[{kind}]", n) for kind, n in sorted(summary["events_by_kind"].items()))
    if summary["mean_repair_seconds"] is not None:
        rows["mean repair [s]"] = round(summary["mean_repair_seconds"], 6)
    if summary["mean_full_reroute_seconds"] is not None:
        rows["mean full reroute [s]"] = round(summary["mean_full_reroute_seconds"], 6)
    rows["survived"] = summary["survived"]
    title = f"chaos soak: {args.engine} on {fabric}, seed {args.chaos_seed}"
    return _finish_soak(args, report, summary, rows, "chaos", title, report.survived)


def cmd_serve(args) -> int:
    from repro.obs import record_event
    from repro.obs.slo import SLOEngine, slos_for
    from repro.resilience import run_service_soak
    from repro.service import BackoffPolicy, RoutingSupervisor, ServicePolicy

    def _deadline(value: float) -> float | None:
        return None if value <= 0 else value

    inject = frozenset(
        int(x) for x in (args.inject_timeout_at or "").split(",") if x.strip()
    )
    soak_kwargs = {
        "seed": args.chaos_seed,
        "p_switch_down": args.p_switch_down,
        "p_link_up": args.p_link_up,
        "burst_max": args.burst_max,
    }
    if args.restore:
        if not args.checkpoint_dir:
            raise ReproError("serve --restore requires --checkpoint-dir")
        supervisor = RoutingSupervisor.restore(args.checkpoint_dir)
        # A restored soak must replay the original stream: the persisted
        # parameters win over whatever defaults the restart command used.
        persisted = supervisor.extra.get("soak", {})
        events = persisted.get("num_events", args.events)
        for key in ("seed", "p_switch_down", "p_link_up", "burst_max"):
            if key in persisted:
                soak_kwargs[key] = persisted[key]
    else:
        fabric = _build_topo(args)
        policy = ServicePolicy(
            repair_deadline_s=_deadline(args.repair_deadline),
            full_deadline_s=_deadline(args.full_deadline),
            backoff=BackoffPolicy(max_attempts=args.max_attempts),
            breaker_threshold=args.breaker_threshold,
            breaker_cooldown_s=args.breaker_cooldown,
            fallback_engine=args.fallback or None,
            checkpoint_every=args.checkpoint_every,
            keep_checkpoints=args.keep_checkpoints,
        )
        supervisor = RoutingSupervisor(
            fabric,
            engine=args.engine,
            policy=policy,
            checkpoint_dir=args.checkpoint_dir,
            seed=args.seed,
        )
        events = args.events

    kill_fn = None
    if args.kill_after is not None:
        if not args.checkpoint_dir:
            raise ReproError("serve --kill-after requires --checkpoint-dir")

        def kill_fn() -> None:
            # Simulate SIGKILL: no cleanup, no atexit, no report. The
            # checkpoint written by the preceding batch is all that
            # survives — exactly what `serve --restore` must cope with.
            # The flight recorder dumps first: its last events are the
            # post-mortem explanation of this kill.
            record_event(
                "kill", reason="simulated SIGKILL (--kill-after)",
                events_submitted=supervisor.events_submitted,
            )
            if args.flight_out:
                get_recorder().dump(args.flight_out)
            sys.stderr.write(
                f"serve: simulating hard kill after "
                f"{supervisor.events_submitted} events\n"
            )
            sys.stderr.flush()
            os._exit(137)

    slo_engine = (
        SLOEngine(slos_for("service")) if (args.health_out or args.top) else None
    )

    def on_batch(record: dict) -> None:
        health = slo_engine.tick() if slo_engine is not None else None
        if args.top:
            out = render_top(
                served=supervisor.serving(),
                report=health,
                recorder=get_recorder(),
                batches=supervisor.batches,
                events=supervisor.events_submitted,
            )
            if sys.stdout.isatty():  # pragma: no cover - interactive only
                sys.stdout.write("\x1b[2J\x1b[H")
            sys.stdout.write(out)
            sys.stdout.flush()

    report = run_service_soak(
        supervisor,
        events,
        inject_timeout_at=inject,
        kill_after=args.kill_after,
        kill_fn=kill_fn,
        on_batch=on_batch,
        **soak_kwargs,
    )
    summary = report.summary()
    rows = {
        key: summary[key]
        for key in (
            "events_requested",
            "events_submitted",
            "skipped_events",
            "batches",
            "ladder_attempts",
            "compute_timeouts",
            "stale_serves",
            "final_state",
            "final_version",
        )
    }
    rows.update(
        (f"batches[{action}]", n) for action, n in sorted(summary["batches_by_action"].items())
    )
    rows["survived"] = summary["survived"]
    if summary["failure"]:
        rows["failure"] = summary["failure"]
    title = f"service soak: {summary['engine']} on {summary['fabric']}, seed {summary['seed']}"
    return _finish_soak(args, report, summary, rows, "service", title, report.survived)


def cmd_fleet_soak(args) -> int:
    """Fleet chaos soak: concurrent requests + worker SIGKILLs.

    Builds ``--fabrics`` fabrics from the topology arguments (the
    ``random`` family varies its seed per fabric, so the shards differ),
    shards them across ``--workers`` fault-isolated worker processes and
    replays ``--requests`` concurrent requests while SIGKILLing
    ``--kills`` workers mid-run. Exit 0 iff the run passed: zero
    unserved requests, every kill respawned, every respawned shard
    restored from checkpoint and certificate-verified, full recovery,
    and the fleet SLO set green.
    """
    import tempfile
    from dataclasses import replace

    from repro.fleet import FleetConfig, FleetManager, run_fleet_soak

    if args.retries < 0:
        raise ReproError(f"retries must be >= 0, got {args.retries}")
    fabrics = {
        f"fab-{i:02d}": _build_topo(args, seed=args.seed + i) for i in range(args.fabrics)
    }
    root = args.root or tempfile.mkdtemp(prefix="repro-fleet-")
    config = FleetConfig(
        workers=args.workers,
        engine=args.engine,
        request_timeout_s=args.request_timeout,
        backoff=replace(FleetConfig.backoff, max_attempts=args.retries + 1),
        heartbeat_timeout_s=args.heartbeat_timeout,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
        degraded_delay_s=args.degraded_delay,
    )
    with FleetManager(fabrics, root, config) as manager:
        report = run_fleet_soak(
            manager,
            requests=args.requests,
            kills=args.kills,
            seed=args.soak_seed,
            concurrency=args.concurrency,
            fault_ratio=args.fault_ratio,
            health_ratio=args.health_ratio,
            tenants=args.tenants,
        )
    summary = report.summary()
    rows = {}
    for key in (
        "requests_sent", "served_ok", "served_degraded", "failed",
        "retries", "stale_serves", "faults_applied", "faults_deferred",
        "kills", "respawns", "respawned_shards_certified",
        "recovered", "throughput_rps",
    ):
        value = summary[key]
        rows[key] = round(value, 3) if isinstance(value, float) else value
    lat = summary.get("latency") or {}
    rows.update(
        (f"latency[{key}]", round(lat[key], 6)) for key in ("p50_s", "p95_s", "p99_s")
        if key in lat
    )
    rows["slo healthy"] = report.slo.get("healthy")
    rows["passed"] = summary["passed"]
    if summary["failure"]:
        rows["failure"] = summary["failure"]
    title = f"fleet soak: {len(fabrics)} fabrics / {args.workers} workers, seed {args.soak_seed}"
    rc = _finish_soak(args, report, summary, rows, "fleet", title, report.passed)
    if not args.json:
        print(f"fleet root: {root}")
    return rc


def cmd_checkpoint(args) -> int:
    from repro.service import CheckpointStore

    store = CheckpointStore(args.dir)
    if args.version is None and store.latest_version() is None:
        raise ReproError(f"{args.dir}: no checkpoint found")
    ckpt = store.load(args.version)
    state = ckpt.state
    result = ckpt.result
    verdict = check_servable(result.tables, result.layered, result.certificate)
    info = {
        "dir": str(store.root),
        "version": ckpt.version,
        "path": str(ckpt.path),
        "engine": state.get("engine"),
        "state": state.get("state"),
        "stale": state.get("stale"),
        "lkg_version": state.get("lkg_version"),
        "baseline": repr(ckpt.baseline),
        "serving": repr(ckpt.degraded.fabric),
        "dead_switches": len(state.get("dead_switches", [])),
        "dead_cables": len(state.get("dead_cables", [])),
        "uncommitted_events": len(state.get("uncommitted", [])),
        "events_submitted": state.get("events_submitted"),
        "layers_used": result.layers_used,
        "routable": verdict.paths is not None,
        "deadlock_free": verdict.deadlock_free,
        "ok": verdict.problem is None,
    }
    if verdict.problem:
        info["problem"] = verdict.problem
    _print_fields(args, f"checkpoint {store._name(ckpt.version)}", info)
    return 0 if verdict.problem is None else 1


def cmd_deadlock(args) -> int:
    from repro.des import run_pattern

    fabric = _build_topo(args)
    pattern = shift_pattern(fabric, args.shift)
    for name in args.engines.split(","):
        result = make_engine(name).route(fabric)
        outcome = run_pattern(
            result, pattern, buffers=args.buffers, packets_per_flow=args.packets,
            packet_length=args.packet_length,
        )
        print(
            f"{name:8s} -> {outcome.status:10s} cycles={outcome.time:g} "
            f"delivered={outcome.delivered} in-flight={outcome.in_network}"
        )
        if outcome.waitfor_cycle:
            print(f"         wait-for cycle: {outcome.waitfor_cycle}")
    return 0


def _certify_load_routing(args):
    """The (tables, layered) pair the ``certify`` subcommand operates on."""
    fabric = _build_topo(args)
    if args.lft:
        from pathlib import Path

        from repro.network.opensm_export import import_lft, import_sl_assignment

        tables = import_lft(Path(args.lft).read_text(), fabric)
        if args.sl:
            layered = import_sl_assignment(Path(args.sl).read_text(), tables)
        else:
            layered = LayeredRouting.single_layer(tables)
    elif args.routing:
        from repro.routing.io import load_routing_state

        state = load_routing_state(args.routing, fabric)
        tables = state.tables
        layered = state.layered or LayeredRouting.single_layer(tables)
    else:
        result = make_engine(args.engine).route(fabric)
        tables = result.tables
        layered = result.layered or LayeredRouting.single_layer(tables)
    return tables, layered


def cmd_certify(args) -> int:
    """Emit or validate deadlock-freedom certificates.

    Emission: route (or import a saved routing / OpenSM LFT dump), derive
    the certificate, run it through the independent checker and print the
    verdict; ``--out`` persists the JSON. ``--check CERT`` validates an
    existing certificate instead — standalone, or bound against a routing
    when ``--routing``/``--lft`` names one. Exit 1 on any rejection, with
    the witness edge and minimal counterexample cycle printed.
    """
    from repro.deadlock import checker
    from repro.deadlock.certificate import DeadlockFreedomCertificate

    if args.check:
        res = checker.check_file(args.check)
        mode = "standalone"
        if res.ok and (args.lft or args.routing or args.bind):
            tables, layered = _certify_load_routing(args)
            cert = DeadlockFreedomCertificate.load(args.check)
            verdict = check_servable(tables, layered, cert)
            if verdict.check is None:
                raise RoutingError(verdict.problem)
            res = verdict.check
            mode = "bound to routing"
        if args.json:
            print(json.dumps({
                "ok": res.ok, "mode": mode, "reason": res.reason,
                "layer": res.layer,
                "witness_edge": list(res.witness_edge) if res.witness_edge else None,
                "counterexample": res.counterexample,
                "layers": res.layers, "nodes": res.nodes, "edges": res.edges,
            }, indent=2))
        else:
            print(f"{args.check} ({mode}): {res.summary()}")
        return 0 if res.ok else 1

    verdict = check_servable(*_certify_load_routing(args))
    if verdict.problem is not None:
        print(f"cannot certify: {verdict.problem}", file=sys.stderr)
        return 1
    cert = verdict.certificate
    res = cert.check()  # independent re-check of our own emission
    if args.out:
        cert.save(args.out)
    info = {
        "engine": cert.engine,
        "fingerprint": cert.fingerprint,
        "layers": cert.num_layers,
        "cdg_nodes": cert.num_nodes,
        "dependency_edges": cert.num_edges,
        "paths": int(len(cert.path_layers)),
        "checker_verdict": res.summary(),
        "ok": res.ok,
    }
    if args.out:
        info["out"] = str(args.out)
    _print_fields(args, "deadlock-freedom certificate", info)
    return 0 if res.ok else 1


def build_parser() -> argparse.ArgumentParser:
    # Option groups several subcommands share are parent parsers, declared once.
    topo_opts = argparse.ArgumentParser(add_help=False)
    topo_opts.add_argument("--fabric", help="load fabric from JSON instead of generating")
    topo_opts.add_argument("--ibnetdiscover", help="load fabric from ibnetdiscover output")
    topo_opts.add_argument("--family", default="random", help="topology family or cluster name")
    topo_opts.add_argument("--switches", type=int, default=16)
    topo_opts.add_argument("--links", type=int, default=32)
    topo_opts.add_argument("--terminals-per-switch", type=int, default=2)
    topo_opts.add_argument("--dims", default="4x4", help="torus/mesh dims, e.g. 4x4x4")
    topo_opts.add_argument("--dimension", type=int, default=4, help="hypercube dimension")
    topo_opts.add_argument("--k", type=int, default=4)
    topo_opts.add_argument("--n", type=int, default=2)
    topo_opts.add_argument("--b", type=int, default=2)
    topo_opts.add_argument("--ms", default="4,4", help="XGFT child counts")
    topo_opts.add_argument("--ws", default="1,2", help="XGFT parent counts")
    topo_opts.add_argument("--endpoints", type=int, default=64, help="Kautz endpoint count")
    topo_opts.add_argument("--a", type=int, default=4, help="dragonfly group size")
    topo_opts.add_argument("--p", type=int, default=2, help="dragonfly terminals/switch")
    topo_opts.add_argument("--h", type=int, default=2, help="dragonfly global links/switch")
    topo_opts.add_argument("--scale", type=float, default=0.1, help="cluster lookalike scale")
    topo_opts.add_argument("--seed", type=int, default=0)

    obs_opts = argparse.ArgumentParser(add_help=False)
    obs_opts.add_argument(
        "--trace", metavar="FILE",
        help="write span start/stop events as JSON lines ('-' = stdout)",
    )
    obs_opts.add_argument(
        "--metrics", metavar="FILE",
        help="dump the metrics registry after the run "
        "('-' = stdout as Prometheus text; '*.json' = JSON; else Prometheus text)",
    )

    telemetry_opts = argparse.ArgumentParser(add_help=False)
    telemetry_opts.add_argument(
        "--flight-out", metavar="FILE",
        help="dump the flight recorder (last-events ring) here after the "
        "run and on SIGTERM — post-mortem context for kills",
    )
    telemetry_opts.add_argument(
        "--health-out", metavar="FILE",
        help="write a machine-readable SLO health report here after the run",
    )

    json_opt = argparse.ArgumentParser(add_help=False)
    json_opt.add_argument("--json", action="store_true", help="machine-readable JSON output")

    fault_opts = argparse.ArgumentParser(add_help=False)
    fault_opts.add_argument("--events", type=int, default=50, help="fault events to inject")
    fault_opts.add_argument("--chaos-seed", type=int, default=0, help="fault-stream RNG seed")
    fault_opts.add_argument("--p-switch-down", type=float, default=0.15, dest="p_switch_down")
    fault_opts.add_argument("--p-link-up", type=float, default=0.2, dest="p_link_up")

    parser = argparse.ArgumentParser(prog="repro-route", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *parents) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help, parents=list(parents))
        p.set_defaults(func=func)
        return p

    p = command("topo", cmd_topo, "generate / inspect a topology", topo_opts)
    p.add_argument("--out", help="save fabric JSON here")

    p = command("route", cmd_route, "run routing engines, show path stats",
                topo_opts, obs_opts, json_opt)
    p.add_argument("--engines", "--engine", default=",".join(PAPER_ENGINES))

    p = command("simulate", cmd_simulate, "effective bisection bandwidth",
                topo_opts, obs_opts, json_opt)
    p.add_argument("--engines", "--engine", default="minhop,dfsssp")
    p.add_argument("--patterns", type=int, default=50)

    p = command("vls", cmd_vls, "virtual-lane requirements", topo_opts)
    p.add_argument("--max-layers", type=int, default=16)

    p = command("throughput", cmd_throughput, "open-loop saturation sweep",
                topo_opts, obs_opts)
    p.add_argument("--engines", "--engine", default="dfsssp")
    p.add_argument("--rates", default="0.1,0.3,0.6,0.9")
    p.add_argument("--buffers", type=int, default=2)
    p.add_argument("--packet-length", type=int, default=1, dest="packet_length")
    p.add_argument("--warmup", type=int, default=200)
    p.add_argument("--measure", type=int, default=500)

    p = command("orcs", cmd_orcs, "ORCS-style pattern/metric evaluation", topo_opts)
    p.add_argument("--engines", default="dfsssp")
    p.add_argument("--pattern", default="bisect")
    p.add_argument("--metric", default="avg_bandwidth")
    p.add_argument("--runs", type=int, default=50)

    p = command("bisection", cmd_bisection, "theoretical bisection estimate", topo_opts)
    p.add_argument("--restarts", type=int, default=4)

    p = command("deadlock", cmd_deadlock, "packet-level deadlock experiment (Fig. 2)",
                topo_opts, obs_opts)
    p.add_argument("--engines", "--engine", default="sssp,dfsssp")
    p.add_argument("--shift", type=int, default=2)
    p.add_argument("--buffers", type=int, default=1)
    p.add_argument("--packets", type=int, default=8)
    p.add_argument("--packet-length", type=int, default=1, dest="packet_length")

    p = command(
        "des", cmd_des,
        "packet-level DES scenario sweep (FCT percentiles, queue "
        "occupancy, faults mid-collective; see docs/des.md)",
        obs_opts, json_opt,
    )
    p.add_argument(
        "--scenario", required=True, metavar="FILE",
        help="scenario JSON: one dict or a list of dicts ('-' = stdin)",
    )
    p.add_argument("--out", metavar="FILE", help="write the JSON report here")
    p.add_argument(
        "--events-out", metavar="FILE",
        help="write recorded event logs here (needs \"record_events\": true)",
    )

    p = command("chaos", cmd_chaos, "fault-injection soak (degrade/repair/verify)",
                topo_opts, obs_opts, fault_opts, telemetry_opts, json_opt)
    p.add_argument("--engine", default="dfsssp", help="engine under test")
    p.add_argument(
        "--no-verify", action="store_true",
        help="skip per-event reachability / deadlock-freedom verification",
    )
    p.add_argument("--out", help="write the full report (summary + events) as JSON")

    p = command("serve", cmd_serve,
                "supervised service-mode soak (deadlines, backoff, checkpoint/restore)",
                topo_opts, obs_opts, fault_opts, telemetry_opts, json_opt)
    p.add_argument("--engine", default="dfsssp", help="primary routing engine")
    p.add_argument(
        "--burst-max", type=int, default=1,
        help="submit up to N events per batch (exercises coalescing)",
    )
    p.add_argument(
        "--repair-deadline", type=float, default=5.0,
        help="incremental-repair budget in seconds (<= 0 disables the deadline)",
    )
    p.add_argument(
        "--full-deadline", type=float, default=30.0,
        help="full-reroute budget in seconds (<= 0 disables the deadline)",
    )
    p.add_argument(
        "--max-attempts", type=int, default=3,
        help="attempts per escalation rung before moving on",
    )
    p.add_argument("--breaker-threshold", type=int, default=3)
    p.add_argument("--breaker-cooldown", type=float, default=30.0)
    p.add_argument(
        "--fallback", default="updown",
        help="last-resort engine ('' disables the fallback rung)",
    )
    p.add_argument("--checkpoint-dir", help="persist checkpoints here (enables restore)")
    p.add_argument(
        "--checkpoint-every", type=int, default=1,
        help="checkpoint after every N accepted batches",
    )
    p.add_argument("--keep-checkpoints", type=int, default=3)
    p.add_argument(
        "--inject-timeout-at", metavar="I,J,...",
        help="event indices where the repair deadline is forced to zero",
    )
    p.add_argument(
        "--kill-after", type=int, metavar="N",
        help="simulate SIGKILL (exit 137) once N events are submitted",
    )
    p.add_argument(
        "--restore", action="store_true",
        help="resume from the newest checkpoint in --checkpoint-dir "
        "(replays the persisted soak parameters)",
    )
    p.add_argument("--out", help="write the full report (summary + batches) as JSON")
    p.add_argument(
        "--top", action="store_true",
        help="redraw a top-style live health view after every batch "
        "(supervisor state, SLO table, flight-recorder tail)",
    )

    p = command("fleet-soak", cmd_fleet_soak,
                "fleet chaos soak (sharded workers, SIGKILLs, degradation)",
                topo_opts, obs_opts, telemetry_opts, json_opt)
    p.add_argument(
        "--fabrics", type=int, default=4,
        help="number of fabrics to shard (random family varies seed per fabric)",
    )
    p.add_argument(
        "--workers", type=int, default=2,
        help="fault-isolated worker processes hosting the shards",
    )
    p.add_argument("--engine", default="dfsssp", help="routing engine per shard")
    p.add_argument("--requests", type=int, default=1000, help="requests to replay")
    p.add_argument(
        "--kills", type=int, default=2,
        help="workers to SIGKILL at evenly spaced points mid-run",
    )
    p.add_argument("--soak-seed", type=int, default=0, help="request-schedule seed")
    p.add_argument("--concurrency", type=int, default=8, help="client threads")
    p.add_argument("--fault-ratio", type=float, default=0.10, dest="fault_ratio")
    p.add_argument("--health-ratio", type=float, default=0.05, dest="health_ratio")
    p.add_argument("--tenants", type=int, default=4, help="tenant ids to rotate")
    p.add_argument(
        "--root",
        help="fleet state dir (checkpoints/flight dumps); default temp dir",
    )
    p.add_argument(
        "--request-timeout", type=float, default=30.0, dest="request_timeout",
        help="per-request deadline in seconds",
    )
    p.add_argument("--retries", type=int, default=2, help="retries after the first attempt")
    p.add_argument("--heartbeat-timeout", type=float, default=2.0, dest="heartbeat_timeout")
    p.add_argument("--breaker-threshold", type=int, default=3)
    p.add_argument("--breaker-cooldown", type=float, default=1.0)
    p.add_argument(
        "--degraded-delay", type=float, default=0.1, dest="degraded_delay",
        help="backpressure pacing per degraded serve in seconds",
    )
    p.add_argument("--out", help="write the full soak report as JSON")

    p = command("checkpoint", cmd_checkpoint, "inspect / verify a service checkpoint",
                json_opt)
    p.add_argument("dir", help="checkpoint directory (as passed to serve)")
    p.add_argument(
        "--version", type=int,
        help="inspect this checkpoint version instead of CURRENT",
    )

    p = command("certify", cmd_certify, "emit / validate deadlock-freedom certificates",
                topo_opts, json_opt)
    p.add_argument(
        "--engine", default="dfsssp", choices=sorted(PAPER_ENGINES),
        help="engine to route with when no routing source is given",
    )
    p.add_argument(
        "--routing", metavar="NPZ",
        help="certify a saved routing state instead of routing fresh",
    )
    p.add_argument(
        "--lft", metavar="FILE",
        help="certify an imported OpenSM-style LFT dump (see opensm_export)",
    )
    p.add_argument(
        "--sl", metavar="FILE",
        help="SL assignment dump accompanying --lft (default: single layer)",
    )
    p.add_argument(
        "--check", metavar="CERT",
        help="validate an existing certificate instead of emitting one; "
        "combine with --routing/--lft to also re-bind it to that routing",
    )
    p.add_argument(
        "--bind", action="store_true",
        help="with --check and no --routing/--lft: route the described "
        "topology with --engine and bind the certificate against that",
    )
    p.add_argument("--out", help="write the emitted certificate JSON here")

    p = command("stats", cmd_stats, "render metrics dumps, trace trees and flight dumps")
    p.add_argument("file", nargs="?", help="metrics JSON file ('-' = stdin)")
    p.add_argument(
        "--trace-tree", metavar="FILE",
        help="render a --trace JSONL file as an indented span tree",
    )
    p.add_argument(
        "--request", metavar="ID",
        help="restrict --trace-tree to one request id's causal tree",
    )
    p.add_argument(
        "--flight", metavar="FILE",
        help="render a flight-recorder dump (--flight-out) as a table",
    )

    p = command("health", cmd_health, "judge declarative SLOs against a metrics dump",
                json_opt)
    p.add_argument("file", help="metrics JSON dump ('-' = stdin)")
    p.add_argument(
        "--mode", choices=("service", "chaos", "fleet"), default="service",
        help="which default SLO set to evaluate",
    )
    p.add_argument(
        "--slos", metavar="FILE",
        help="custom SLO definitions (JSON list) instead of the defaults",
    )
    p.add_argument("--out", help="write the machine-readable health report here")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    sink = prev_sink = None
    try:
        if getattr(args, "trace", None):
            sink = JsonlSink(sys.stdout if args.trace == "-" else args.trace)
            prev_sink = set_sink(sink)
        if getattr(args, "flight_out", None):
            from repro.obs import install_signal_dump

            # A SIGTERM mid-soak still leaves a post-mortem dump behind.
            install_signal_dump(args.flight_out)
        rc = args.func(args)
    except BrokenPipeError:
        # stdout went away (e.g. `| head`); suppress the exit-flush noise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ReproError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        if sink is not None:
            set_sink(prev_sink)
            sink.close()
    if getattr(args, "metrics", None):
        try:
            _dump_metrics(args.metrics)
        except OSError as err:
            print(f"error: {err}", file=sys.stderr)
            return 1
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
