"""Golden-route drift tests.

Every committed fixture under ``tests/data/golden/`` is recomputed from
scratch and compared bit for bit. A mismatch fails with a readable diff
— which engine, which topology, and the first differing forwarding
entries as ``(node, dest_terminal): got != want`` — so a drift report is
actionable without rerunning anything.

If a routing change is *intentional*, regenerate the fixtures::

    PYTHONPATH=src python -m tests.data.golden_gen
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from tests.data.golden_gen import (
    DIGEST_FABRICS,
    ENGINES,
    FABRICS,
    compute_golden,
    compute_golden_digest,
    golden_path,
)

MAX_DIFFS_SHOWN = 8


def _diff_tables(topology: str, engine: str, got, want) -> list[str]:
    got = np.asarray(got)
    want = np.asarray(want)
    lines: list[str] = []
    if got.shape != want.shape:
        return [f"{topology}/{engine}: table shape {got.shape} != golden {want.shape}"]
    nodes, dests = np.nonzero(got != want)
    for node, dest in list(zip(nodes, dests))[:MAX_DIFFS_SHOWN]:
        lines.append(
            f"{topology}/{engine}: next_channel[node={node}, dest_terminal={dest}] "
            f"= {got[node, dest]}, golden has {want[node, dest]}"
        )
    if len(nodes) > MAX_DIFFS_SHOWN:
        lines.append(f"... and {len(nodes) - MAX_DIFFS_SHOWN} more differing entries")
    return lines


def _diff_vector(topology: str, engine: str, field: str, got, want) -> list[str]:
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape:
        return [f"{topology}/{engine}: {field} length {got.size} != golden {want.size}"]
    idx = np.flatnonzero(got != want)
    lines = [
        f"{topology}/{engine}: {field}[{i}] = {got[i]}, golden has {want[i]}"
        for i in idx[:MAX_DIFFS_SHOWN]
    ]
    if len(idx) > MAX_DIFFS_SHOWN:
        lines.append(f"... and {len(idx) - MAX_DIFFS_SHOWN} more differing entries")
    return lines


@pytest.mark.parametrize("topology", sorted(FABRICS))
def test_routes_match_golden(topology):
    path = golden_path(topology)
    assert path.is_file(), (
        f"missing golden fixture {path}; run "
        f"`PYTHONPATH=src python -m tests.data.golden_gen`"
    )
    golden = json.loads(path.read_text())
    current = compute_golden(topology)

    # Fabric shape drift invalidates the fixture wholesale.
    for field in ("num_nodes", "num_terminals", "num_channels", "builder"):
        assert current[field] == golden[field], (
            f"{topology}: fabric {field} changed "
            f"({current[field]!r} != golden {golden[field]!r})"
        )

    problems: list[str] = []
    for engine, want in golden["engines"].items():
        got = current["engines"].get(engine)
        if got is None:
            problems.append(f"{topology}: engine {engine!r} missing from oracle")
            continue
        problems += _diff_tables(topology, engine, got["next_channel"], want["next_channel"])
        problems += _diff_vector(
            topology, engine, "channel_weights", got["channel_weights"],
            want["channel_weights"],
        )
        if "path_layers" in want:
            problems += _diff_vector(
                topology, engine, "path_layers", got["path_layers"], want["path_layers"]
            )
            if got.get("layers_used") != want["layers_used"]:
                problems.append(
                    f"{topology}/{engine}: layers_used = {got.get('layers_used')}, "
                    f"golden has {want['layers_used']}"
                )
    assert not problems, (
        "golden routes drifted (regenerate with "
        "`PYTHONPATH=src python -m tests.data.golden_gen` if intentional):\n"
        + "\n".join(problems)
    )


@pytest.mark.parametrize("topology", sorted(DIGEST_FABRICS))
def test_routes_match_golden_digest(topology):
    """The ~1k-endpoint pin: digests of the canonical array bytes.

    When this fails alone, the drift is scale-dependent (batching,
    sharding, kernel dispatch); when the small fixtures fail too, their
    diff says what changed.
    """
    path = golden_path(topology)
    assert path.is_file(), (
        f"missing golden fixture {path}; run "
        f"`PYTHONPATH=src python -m tests.data.golden_gen`"
    )
    golden = json.loads(path.read_text())
    current = compute_golden_digest(topology)

    for field in ("num_nodes", "num_terminals", "num_channels", "builder", "digest"):
        assert current[field] == golden[field], (
            f"{topology}: fabric {field} changed "
            f"({current[field]!r} != golden {golden[field]!r})"
        )
    problems = [
        f"{topology}/{engine}: {field} = {got[field]!r}, golden has {want[field]!r}"
        for engine, want in golden["engines"].items()
        for got in [current["engines"][engine]]
        for field in want
        if got.get(field) != want[field]
    ]
    assert not problems, (
        "golden digests drifted (regenerate with "
        "`PYTHONPATH=src python -m tests.data.golden_gen` if intentional):\n"
        + "\n".join(problems)
    )


@pytest.mark.parametrize("topology", sorted(FABRICS))
def test_serial_numpy_kernel_matches_golden(topology):
    """The fixtures were written by the heap Dijkstra; the serial numpy
    engine builds every column from a hop sweep, the min-hop-DAG
    refinement and the Bellman-fixpoint validation instead."""
    golden = json.loads(golden_path(topology).read_text())
    fabric = FABRICS[topology][1]()
    problems: list[str] = []
    for engine, want in golden["engines"].items():
        result = ENGINES[engine](kernel="numpy").route(fabric)
        problems += _diff_tables(
            topology, engine, result.tables.next_channel, want["next_channel"]
        )
        problems += _diff_vector(
            topology, engine, "channel_weights", result.channel_weights,
            want["channel_weights"],
        )
        if "path_layers" in want:
            problems += _diff_vector(
                topology, engine, "path_layers", result.layered.path_layers,
                want["path_layers"],
            )
    assert not problems, "\n".join(problems)
