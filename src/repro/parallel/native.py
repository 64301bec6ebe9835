"""Residue of the deleted numba kernels: only the probe below remains.

``benchmarks/e2e/workloads.py`` imports it for its metadata line and a
simplicity PR may not edit that file; the next ``benchmark`` PR drops the
import and this module with it. Nothing under ``src/`` uses numba.
"""

from importlib.util import find_spec


def numba_available() -> bool:
    """True iff numba is importable in this environment."""
    return find_spec("numba") is not None
