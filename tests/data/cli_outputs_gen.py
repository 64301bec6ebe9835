"""Pinned surface of the ``repro-route`` CLI.

Two fixtures, read by ``tests/test_cli_outputs.py``:

* ``cli_outputs.json`` — stdout, stderr and exit code of ``route``,
  ``simulate``, ``chaos``, ``serve``, ``checkpoint`` and ``certify``, in
  table and ``--json`` mode, on one small seeded fabric. The cases run in
  order in one scratch directory with relative paths (``checkpoint``
  inspects the directory ``serve`` wrote, ``certify --check`` the
  certificate ``certify`` wrote), so printed paths and column widths do
  not depend on where the scratch directory lives. Wall-clock fields are
  masked: JSON keys ending in ``_seconds`` and ``mean … [s]`` table rows.
* ``cli_parser.json`` — for every subcommand, each option's
  ``(option_strings, dest, default, type, choices, nargs, required)``.
  Help strings are not pinned.

Regenerate *only* after an intentional change to the CLI's surface::

    PYTHONPATH=src python -m tests.data.cli_outputs_gen

and commit the JSON diff alongside the code change.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from repro.cli import main
from repro.obs import get_recorder, get_registry

OUTPUTS = Path(__file__).parent / "cli_outputs.json"
PARSER = Path(__file__).parent / "cli_parser.json"

TOPO = [
    "--family", "random", "--switches", "8", "--links", "18",
    "--terminals-per-switch", "2", "--seed", "3",
]
CHAOS = ["chaos", *TOPO, "--events", "8", "--chaos-seed", "42"]
SERVE = ["serve", *TOPO, "--events", "6", "--chaos-seed", "7", "--burst-max", "2"]

#: case name -> argv, run in this order in one directory
CASES: dict[str, list[str]] = {
    "route": ["route", *TOPO],
    "route_json": ["route", *TOPO, "--json"],
    "simulate": ["simulate", *TOPO, "--patterns", "3"],
    "simulate_json": ["simulate", *TOPO, "--patterns", "3", "--json"],
    "chaos": [*CHAOS, "--out", "chaos.json"],
    "chaos_json": [*CHAOS, "--json", "--out", "chaos.json"],
    "chaos_dead": [*CHAOS, "--engine", "ftree"],
    "chaos_dead_json": [*CHAOS, "--engine", "ftree", "--json"],
    "serve": [*SERVE, "--checkpoint-dir", "ckpt", "--out", "serve.json"],
    "serve_json": [*SERVE, "--json", "--out", "serve.json", "--health-out", "health.json"],
    "checkpoint": ["checkpoint", "ckpt"],
    "checkpoint_json": ["checkpoint", "ckpt", "--json"],
    "checkpoint_missing": ["checkpoint", "empty"],
    "certify": ["certify", *TOPO, "--out", "cert.json"],
    "certify_json": ["certify", *TOPO, "--json"],
    "certify_check": ["certify", "--check", "cert.json"],
    "certify_check_json": ["certify", *TOPO, "--check", "cert.json", "--bind", "--json"],
}

_MASKS = (
    (re.compile(r'("\w+_seconds": )-?\d[\d.e+-]*'), r'\1"<t>"'),
    (re.compile(r"(mean [\w ]+ \[s\]\s+)\d+\.\d+"), r"\1<t>"),
)


def mask(text: str) -> str:
    for pattern, repl in _MASKS:
        text = pattern.sub(repl, text)
    return text


def run_case(argv: list[str]) -> dict:
    """One in-process ``main(argv)`` on a fresh registry and recorder."""
    get_registry().reset()
    get_recorder().clear()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(list(argv))
    return {"argv": argv, "rc": rc, "stdout": mask(out.getvalue()),
            "stderr": mask(err.getvalue())}


def run_cases(workdir) -> dict[str, dict]:
    """Every case of :data:`CASES`, in order, with ``workdir`` as cwd."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        return {name: run_case(argv) for name, argv in CASES.items()}
    finally:
        os.chdir(cwd)
        get_registry().reset()
        get_recorder().clear()


class _Parsed(Exception):
    def __init__(self, parser: argparse.ArgumentParser):
        super().__init__("parser built")
        self.parser = parser


def cli_parser() -> argparse.ArgumentParser:
    """The parser ``main()`` builds, caught as it is about to parse."""
    original = argparse.ArgumentParser.parse_args

    def intercept(self, *args, **kwargs):
        raise _Parsed(self)

    argparse.ArgumentParser.parse_args = intercept
    try:
        main([])
    except _Parsed as caught:
        return caught.parser
    finally:
        argparse.ArgumentParser.parse_args = original
    raise RuntimeError("main() returned without parsing its arguments")


def _option(action: argparse.Action) -> list:
    return [
        list(action.option_strings),
        action.dest,
        action.default,
        getattr(action.type, "__name__", action.type),
        list(action.choices) if action.choices is not None else None,
        action.nargs,
        action.required,
    ]


def parser_snapshot() -> dict[str, dict[str, list]]:
    """subcommand -> option key (first option string, or dest) -> option
    as ``[option_strings, dest, default, type, choices, nargs, required]``."""
    (subparsers,) = [
        a for a in cli_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    return {
        name: {
            (a.option_strings[0] if a.option_strings else a.dest): _option(a)
            for a in sub._actions
        }
        for name, sub in subparsers.choices.items()
    }


def main_gen() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        outputs = run_cases(workdir)
    OUTPUTS.write_text(json.dumps(outputs, indent=1) + "\n")
    # one line per option, so a changed option is a one-line diff
    commands = [
        f" {json.dumps(name)}: {{\n" + ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(option)}" for key, option in sorted(options.items())
        ) + "\n }"
        for name, options in sorted(parser_snapshot().items())
    ]
    PARSER.write_text("{\n" + ",\n".join(commands) + "\n}\n")
    print(f"wrote {OUTPUTS} ({len(outputs)} cases) and {PARSER}")


if __name__ == "__main__":
    main_gen()
