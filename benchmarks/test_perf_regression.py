"""Performance-regression gate for the routing hot path.

Measures, on the reference fabric ``xgft(3, (8,8,6), (1,4,4))`` (88
switches, 384 terminals — large enough that process-pool startup is
noise):

* serial SSSP / DFSSSP route time and peak memory (tracemalloc) of the
  heap-Dijkstra reference (``kernel="python"``),
* parallel DFSSSP (``workers=4, kernel="numpy"``) route time,
* cycle breaking: the incremental CSR engine
  (:func:`repro.deadlock.incremental.assign_layers_incremental`) vs the
  rebuild-based reference (:func:`repro.core.layers.assign_layers_offline`)
  on the same XGFT plus a dragonfly,

and writes everything to ``benchmarks/results/BENCH_parallel.json`` and
``benchmarks/results/BENCH_cdg.json`` (the CI artifacts) plus the usual
text tables for RESULTS.md.

Three gates fail the run:

* **speedup** — parallel DFSSSP must be ≥ 2× faster than serial at 4
  workers (currently ~2.7×);
* **cycle breaking** — the incremental engine must be ≥ 3× faster than
  the rebuild reference on *both* benchmark fabrics, with bit-identical
  layer assignments (currently ~4.5× on the XGFT, ~3.4× on the
  dragonfly);
* **regression** — serial SSSP and the incremental cycle breaker,
  *normalized by a machine-speed calibration primitive*, must not be
  > 20% slower than the committed baselines in ``benchmarks/baselines/``.
  The calibration primitive (pure-Python heap churn, independent of the
  routing code) cancels host-speed differences, so the gate tracks code
  regressions, not runner hardware.

After an *intentional* perf change, refresh the baselines::

    PYTHONPATH=src python benchmarks/test_perf_regression.py --rebaseline
"""

from __future__ import annotations

import heapq
import json
import time
import tracemalloc
from pathlib import Path

import numpy as np

from repro.core import DFSSSPEngine, SSSPEngine
from repro.core.layers import assign_layers_offline
from repro.deadlock.incremental import assign_layers_incremental
from repro.network.topologies import dragonfly, xgft
from repro.routing import extract_paths
from repro.utils.reporting import Table

from conftest import RESULTS_DIR, emit

BASELINE_PATH = Path(__file__).parent / "baselines" / "BENCH_parallel_baseline.json"
BENCH_JSON = RESULTS_DIR / "BENCH_parallel.json"
CDG_BASELINE_PATH = Path(__file__).parent / "baselines" / "BENCH_cdg_baseline.json"
CDG_BENCH_JSON = RESULTS_DIR / "BENCH_cdg.json"

#: reference fabric (see module docstring)
REFERENCE_XGFT = (3, (8, 8, 6), (1, 4, 4))

#: smaller companion fabric for the tracemalloc pass — allocation tracing
#: slows Python-heavy code ~10x, so memory is profiled separately from time
MEMORY_XGFT = (3, (6, 6, 6), (1, 3, 3))

#: serial-SSSP regression tolerance vs the committed baseline
REGRESSION_FACTOR = 1.2

#: required parallel-DFSSSP speedup at PARALLEL_WORKERS workers
MIN_SPEEDUP = 2.0
PARALLEL_WORKERS = 4

#: cycle-breaking benchmark fabrics: the reference XGFT plus a dragonfly
#: (dense global links make its CDGs much more cyclic — the adversarial
#: case for the drain/eviction machinery)
CDG_FABRICS = {
    "xgft(3, (8, 8, 6), (1, 4, 4))": lambda: xgft(3, (8, 8, 6), (1, 4, 4)),
    "dragonfly(8, 4, 4)": lambda: dragonfly(8, 4, 4),
}

#: required incremental-vs-rebuild cycle-breaking speedup, per fabric
MIN_CDG_SPEEDUP = 3.0


def _calibrate() -> float:
    """Machine-speed unit: seconds for a fixed pure-Python heap workload.

    Deliberately independent of the routing code (a regression there must
    not slow the yardstick too) but dominated by the same interpreter
    operations — heap pushes/pops and integer arithmetic — as the serial
    SSSP hot loop, so host-speed variation divides out of the ratio.
    """
    start = time.perf_counter()
    acc = 0
    for _ in range(3):
        h: list[tuple[int, int]] = []
        for i in range(120_000):
            heapq.heappush(h, ((i * 2654435761) & 0xFFFFF, i))
        while h:
            acc ^= heapq.heappop(h)[1]
    assert acc == 0
    return time.perf_counter() - start


def _timed_route(engine, fabric):
    start = time.perf_counter()
    result = engine.route(fabric)
    return result, time.perf_counter() - start


def _peak_memory_mb(engine, fabric) -> float:
    """Peak Python-heap allocation of one route, in MB (tracemalloc)."""
    tracemalloc.start()
    try:
        engine.route(fabric)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / 1e6


def measure() -> dict:
    """All measurements as one JSON-ready record."""
    fabric = xgft(*REFERENCE_XGFT)
    calib = _calibrate()

    # The serial baselines are the heap-Dijkstra reference, named
    # explicitly: the engines' default is the production step.
    serial_sssp, t_sssp = _timed_route(SSSPEngine(kernel="python"), fabric)
    serial_df, t_df = _timed_route(DFSSSPEngine(kernel="python"), fabric)
    par_engine = DFSSSPEngine(workers=PARALLEL_WORKERS, kernel="numpy")
    par_df, t_par = _timed_route(par_engine, fabric)
    par_sssp_engine = SSSPEngine(workers=PARALLEL_WORKERS, kernel="numpy")
    par_sssp, t_par_sssp = _timed_route(par_sssp_engine, fabric)

    mem_fabric = xgft(*MEMORY_XGFT)
    mem_sssp = _peak_memory_mb(SSSPEngine(kernel="python"), mem_fabric)
    mem_df = _peak_memory_mb(DFSSSPEngine(kernel="python"), mem_fabric)

    # The gate only means anything if the parallel run is the *same* run.
    assert np.array_equal(
        par_df.tables.next_channel, serial_df.tables.next_channel
    ), "parallel DFSSSP diverged from serial — perf numbers are meaningless"
    assert np.array_equal(par_df.layered.path_layers, serial_df.layered.path_layers)
    assert np.array_equal(
        par_sssp.tables.next_channel, serial_sssp.tables.next_channel
    )

    return {
        "fabric": f"xgft{REFERENCE_XGFT}",
        "terminals": fabric.num_terminals,
        "switches": fabric.num_switches,
        "memory_fabric": f"xgft{MEMORY_XGFT}",
        "calibration_s": calib,
        "serial_sssp_s": t_sssp,
        "serial_sssp_peak_mb": mem_sssp,
        "serial_dfsssp_s": t_df,
        "serial_dfsssp_peak_mb": mem_df,
        "parallel_sssp_s": t_par_sssp,
        "parallel_dfsssp_s": t_par,
        "parallel_workers": PARALLEL_WORKERS,
        "parallel_kernel": "numpy",
        "dfsssp_speedup": t_df / t_par,
        "sssp_speedup": t_sssp / t_par_sssp,
        "serial_sssp_per_calib": t_sssp / calib,
    }


def measure_cdg() -> dict:
    """Cycle-breaking comparison on both benchmark fabrics."""
    calib = _calibrate()
    fabrics = {}
    for name, build in CDG_FABRICS.items():
        fabric = build()
        paths = extract_paths(SSSPEngine().route(fabric).tables)
        pids = paths.active_pids()

        # Best-of-2 per engine: one noisy scheduler hiccup must not trip
        # a gate that the code clears by a comfortable margin.
        t_rebuild = t_inc = float("inf")
        for _ in range(2):
            start = time.perf_counter()
            ref = assign_layers_offline(paths, pids=pids)
            t_rebuild = min(t_rebuild, time.perf_counter() - start)

            start = time.perf_counter()
            inc = assign_layers_incremental(paths, pids=pids)
            t_inc = min(t_inc, time.perf_counter() - start)

        # The speedup only means anything if both engines did the same work.
        assert np.array_equal(inc.path_layers, ref.path_layers), (
            f"{name}: incremental diverged from rebuild — numbers are meaningless"
        )
        assert inc.cycles_broken == ref.cycles_broken

        fabrics[name] = {
            "switches": fabric.num_switches,
            "terminals": fabric.num_terminals,
            "paths": int(len(pids)),
            "cycles_broken": ref.cycles_broken,
            "layers_needed": ref.layers_needed,
            "rebuild_s": t_rebuild,
            "incremental_s": t_inc,
            "speedup": t_rebuild / t_inc,
            "incremental_per_calib": t_inc / calib,
        }
    return {"calibration_s": calib, "fabrics": fabrics}


def _emit_cdg(record: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    CDG_BENCH_JSON.write_text(json.dumps(record, indent=1) + "\n")
    table = Table(
        ["fabric", "paths", "cycles", "rebuild [s]", "incremental [s]", "speedup"],
        title="cycle breaking: incremental CSR engine vs rebuild reference "
        "(bit-identical assignments)",
    )
    for name, f in record["fabrics"].items():
        table.add_row([
            name, f["paths"], f["cycles_broken"],
            round(f["rebuild_s"], 3), round(f["incremental_s"], 3),
            round(f["speedup"], 2),
        ])
    emit("cdg_speedup", table.render(), table)


def _emit(record: dict) -> None:
    RESULTS_DIR.mkdir(exist_ok=True)
    BENCH_JSON.write_text(json.dumps(record, indent=1) + "\n")
    table = Table(
        ["configuration", "time [s]", "speedup", "peak mem [MB]"],
        title=f"parallel routing on {record['fabric']} "
        f"({record['terminals']} terminals; memory profiled on "
        f"{record['memory_fabric']})",
    )
    table.add_row(["sssp serial", round(record["serial_sssp_s"], 3), 1.0,
                   round(record["serial_sssp_peak_mb"], 1)])
    table.add_row([f"sssp workers={record['parallel_workers']} numpy",
                   round(record["parallel_sssp_s"], 3),
                   round(record["sssp_speedup"], 2), None])
    table.add_row(["dfsssp serial", round(record["serial_dfsssp_s"], 3), 1.0,
                   round(record["serial_dfsssp_peak_mb"], 1)])
    table.add_row([f"dfsssp workers={record['parallel_workers']} numpy",
                   round(record["parallel_dfsssp_s"], 3),
                   round(record["dfsssp_speedup"], 2), None])
    emit("parallel_speedup", table.render(), table)


def test_parallel_speedup_and_no_serial_regression():
    record = measure()
    _emit(record)

    assert record["dfsssp_speedup"] >= MIN_SPEEDUP, (
        f"parallel DFSSSP speedup {record['dfsssp_speedup']:.2f}x at "
        f"{PARALLEL_WORKERS} workers is below the required {MIN_SPEEDUP}x "
        f"(serial {record['serial_dfsssp_s']:.3f}s, "
        f"parallel {record['parallel_dfsssp_s']:.3f}s)"
    )

    assert BASELINE_PATH.is_file(), (
        f"missing committed baseline {BASELINE_PATH}; create it with "
        "`PYTHONPATH=src python benchmarks/test_perf_regression.py --rebaseline`"
    )
    baseline = json.loads(BASELINE_PATH.read_text())
    allowed = baseline["serial_sssp_per_calib"] * REGRESSION_FACTOR
    assert record["serial_sssp_per_calib"] <= allowed, (
        f"serial SSSP regressed: {record['serial_sssp_per_calib']:.2f} "
        f"calibration units vs baseline "
        f"{baseline['serial_sssp_per_calib']:.2f} "
        f"(gate: {REGRESSION_FACTOR:.1f}x). If intentional, rebaseline with "
        "`PYTHONPATH=src python benchmarks/test_perf_regression.py --rebaseline`"
    )


def test_cycle_breaking_speedup_and_no_regression():
    record = measure_cdg()
    _emit_cdg(record)

    for name, f in record["fabrics"].items():
        assert f["speedup"] >= MIN_CDG_SPEEDUP, (
            f"incremental cycle breaking on {name} is only "
            f"{f['speedup']:.2f}x the rebuild reference "
            f"(rebuild {f['rebuild_s']:.3f}s, incremental "
            f"{f['incremental_s']:.3f}s); gate requires {MIN_CDG_SPEEDUP}x"
        )

    assert CDG_BASELINE_PATH.is_file(), (
        f"missing committed baseline {CDG_BASELINE_PATH}; create it with "
        "`PYTHONPATH=src python benchmarks/test_perf_regression.py --rebaseline`"
    )
    baseline = json.loads(CDG_BASELINE_PATH.read_text())
    for name, base in baseline["incremental_per_calib"].items():
        got = record["fabrics"][name]["incremental_per_calib"]
        assert got <= base * REGRESSION_FACTOR, (
            f"incremental cycle breaking on {name} regressed: {got:.2f} "
            f"calibration units vs baseline {base:.2f} "
            f"(gate: {REGRESSION_FACTOR:.1f}x). If intentional, rebaseline with "
            "`PYTHONPATH=src python benchmarks/test_perf_regression.py --rebaseline`"
        )


def _rebaseline() -> None:
    record = measure()
    _emit(record)
    BASELINE_PATH.parent.mkdir(parents=True, exist_ok=True)
    BASELINE_PATH.write_text(
        json.dumps(
            {
                "fabric": record["fabric"],
                "serial_sssp_per_calib": record["serial_sssp_per_calib"],
                "note": "serial SSSP route time divided by the calibration "
                "primitive; gate allows 1.2x",
            },
            indent=1,
        )
        + "\n"
    )
    print(f"baseline written to {BASELINE_PATH}")
    print(json.dumps(record, indent=1))

    cdg = measure_cdg()
    _emit_cdg(cdg)
    CDG_BASELINE_PATH.write_text(
        json.dumps(
            {
                "incremental_per_calib": {
                    name: f["incremental_per_calib"]
                    for name, f in cdg["fabrics"].items()
                },
                "note": "incremental cycle-breaking time divided by the "
                "calibration primitive; gate allows 1.2x",
            },
            indent=1,
        )
        + "\n"
    )
    print(f"baseline written to {CDG_BASELINE_PATH}")
    print(json.dumps(cdg, indent=1))


if __name__ == "__main__":
    import sys

    if "--rebaseline" in sys.argv:
        _rebaseline()
    else:
        test_parallel_speedup_and_no_serial_regression()
        print(BENCH_JSON.read_text())
        test_cycle_breaking_speedup_and_no_regression()
        print(CDG_BENCH_JSON.read_text())
