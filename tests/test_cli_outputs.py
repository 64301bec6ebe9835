"""The CLI's observable surface, pinned.

Exact stdout, stderr and exit code of ``route``, ``simulate``, ``chaos``,
``serve``, ``checkpoint`` and ``certify`` (table and ``--json`` mode) on
one seeded fabric, and every subcommand's option table. Fixtures and the
regeneration command are described in ``tests/data/cli_outputs_gen.py``.
"""

from __future__ import annotations

import json

import pytest

from tests.data.cli_outputs_gen import CASES, OUTPUTS, PARSER, parser_snapshot, run_cases

REGEN = "`PYTHONPATH=src python -m tests.data.cli_outputs_gen` if intentional"


@pytest.fixture(scope="module")
def observed(tmp_path_factory):
    return run_cases(tmp_path_factory.mktemp("cli-outputs"))


@pytest.fixture(scope="module")
def expected():
    return json.loads(OUTPUTS.read_text())


def test_fixture_covers_every_case(expected):
    assert list(expected) == list(CASES), f"case list changed; regenerate with {REGEN}"


@pytest.mark.parametrize("name", list(CASES))
def test_output_pinned(observed, expected, name):
    got, want = observed[name], expected[name]
    assert got["argv"] == want["argv"]
    assert got["stdout"] == want["stdout"], f"{name}: stdout changed ({REGEN})"
    assert got["stderr"] == want["stderr"], f"{name}: stderr changed ({REGEN})"
    assert got["rc"] == want["rc"], f"{name}: exit code changed ({REGEN})"


def test_soak_exit_codes_follow_survival(expected):
    assert expected["chaos"]["rc"] == 0 and expected["serve"]["rc"] == 0
    assert expected["chaos_dead"]["rc"] == 1
    assert json.loads(expected["chaos_dead_json"]["stdout"])["survived"] is False
    assert expected["checkpoint_missing"]["rc"] == 1


def test_parser_pinned():
    want = json.loads(PARSER.read_text())
    got = parser_snapshot()
    assert sorted(got) == sorted(want), "subcommand set changed"
    for command in want:
        assert got[command] == want[command], f"{command}: options changed ({REGEN})"
