"""Name → engine factory registry.

Used by the CLI and the benchmark harnesses to iterate "all engines the
paper compares" uniformly. Factories take no arguments; engines with
parameters get sensible defaults (8 virtual lanes, weakest-edge
heuristic) matching the paper's hardware constraints.
"""

from __future__ import annotations

import functools
from collections.abc import Callable

from repro.routing.base import RoutingEngine


@functools.cache
def engines() -> dict[str, Callable[..., RoutingEngine]]:
    """Name -> engine class, built on the first call."""
    # Imported lazily: repro.core's engines themselves import
    # repro.routing.base, so eager imports here would be circular.
    from repro.core.dfsssp import DFSSSPEngine
    from repro.core.sssp import SSSPEngine
    from repro.routing.dor import DOREngine
    from repro.routing.dor_vc import DORVCEngine
    from repro.routing.ftree import FatTreeEngine
    from repro.routing.lash import LASHEngine
    from repro.routing.minhop import MinHopEngine
    from repro.routing.updown import UpDownEngine

    return {
        "minhop": MinHopEngine,
        "updown": UpDownEngine,
        "dor": DOREngine,
        "dor_vc": DORVCEngine,
        "ftree": FatTreeEngine,
        "lash": LASHEngine,
        "sssp": SSSPEngine,
        "dfsssp": DFSSSPEngine,
    }


def __getattr__(name: str):
    # ``ENGINES`` is the table of :func:`engines`, built on first access.
    if name == "ENGINES":
        return engines()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


#: the engine list of the paper's Figure 4, in presentation order
PAPER_ENGINES = ("minhop", "updown", "dor", "ftree", "lash", "sssp", "dfsssp")

#: engines that guarantee deadlock-freedom by construction
DEADLOCK_FREE_ENGINES = ("updown", "dor_vc", "ftree", "lash", "dfsssp")


def make_engine(name: str, **kwargs) -> RoutingEngine:
    """Instantiate an engine by name, forwarding keyword options."""
    try:
        factory = engines()[name]
    except KeyError:
        raise ValueError(
            f"unknown routing engine {name!r}; available: {sorted(engines())}"
        ) from None
    return factory(**kwargs)
