"""Channel dependency graphs, cycle search and deadlock-freedom checks.

Everything here resolves lazily (PEP 562). Two reasons:

* :mod:`repro.deadlock.incremental` imports the heuristics/layers
  machinery from :mod:`repro.core`, which itself imports
  :mod:`repro.deadlock.cdg` — lazy loading keeps package initialisation
  acyclic;
* ``python -m repro.deadlock.checker`` must run with *zero* imports of
  numpy / :mod:`repro.core` / :mod:`repro.deadlock.cdg` — the standalone
  certificate checker is only independent evidence if importing its
  package cannot drag the machinery it checks into the process.
"""

_LAZY = {
    "ChannelDependencyGraph": "repro.deadlock.cdg",
    "drain_cycles": "repro.deadlock.cycles",
    "tarjan_sccs": "repro.deadlock.cycles",
    "VerificationReport": "repro.deadlock.verify",
    "build_layer_cdgs": "repro.deadlock.verify",
    "verify_deadlock_free": "repro.deadlock.verify",
    "verify_with_networkx": "repro.deadlock.verify",
    "LayerCDG": "repro.deadlock.incremental",
    "assign_layers_incremental": "repro.deadlock.incremental",
    "DeadlockFreedomCertificate": "repro.deadlock.certificate",
    "emit_certificate": "repro.deadlock.certificate",
    "check_against_routing": "repro.deadlock.certificate",
    "check_servable": "repro.deadlock.certificate",
    "CheckResult": "repro.deadlock.checker",
    "check_certificate": "repro.deadlock.checker",
    "check_layers": "repro.deadlock.checker",
    "find_minimal_cycle": "repro.deadlock.checker",
}


def __getattr__(name: str):
    target = _LAZY.get(name)
    if target is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    value = getattr(importlib.import_module(target), name)
    globals()[name] = value  # cache: next access skips __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "ChannelDependencyGraph",
    "CheckResult",
    "DeadlockFreedomCertificate",
    "LayerCDG",
    "VerificationReport",
    "assign_layers_incremental",
    "build_layer_cdgs",
    "check_against_routing",
    "check_certificate",
    "check_layers",
    "check_servable",
    "drain_cycles",
    "emit_certificate",
    "find_minimal_cycle",
    "tarjan_sccs",
    "verify_deadlock_free",
    "verify_with_networkx",
]
