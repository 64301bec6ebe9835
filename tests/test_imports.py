"""Every ``repro`` package and module imports cleanly as the first import.

A cycle between layers shows only when the import graph is entered
through the wrong module, so each module is imported into an
interpreter that holds no ``repro`` module yet. A module that its
package's ``__init__`` already imports is covered by that package's
first import: importing it first runs the same sequence.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import importlib, json, pkgutil, sys
import repro

names = ["repro"] + sorted(
    m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")
    if not m.name.endswith("__main__")
)
loaded_by, failed = {}, {}
for name in names:
    if name in loaded_by.get(name.rpartition(".")[0], ()):
        continue
    for key in [k for k in sys.modules if k.partition(".")[0] == "repro"]:
        del sys.modules[key]
    try:
        importlib.import_module(name)
    except ImportError as err:
        failed[name] = str(err)
    else:
        loaded_by[name] = set(sys.modules)
network = sorted(m for m in loaded_by["repro.network"] if m.startswith("repro.routing"))
print(json.dumps({"modules": len(names), "failed": failed, "network_imports": network}))
"""


def _probe() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_every_module_imports_first_and_network_stays_below_routing():
    report = _probe()
    assert report["modules"] > 50  # the walk found the package tree
    assert report["failed"] == {}
    # The fabric layer must not pull in the routing layer above it.
    assert report["network_imports"] == []
