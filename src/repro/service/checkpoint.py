"""Atomic, versioned checkpoints for the supervised routing service.

A checkpoint captures everything the supervisor needs to resume after a
crash (including SIGKILL at any instant):

* the **healthy baseline fabric** (``fabric.json``) — fault history is
  expressed in its coordinates;
* the **last-known-good routing** (``routing.npz``: forwarding tables,
  virtual-layer assignment and balancing weights, fingerprinted against
  the *degraded* fabric they were computed for);
* the **supervisor state** (``state.json``: state-machine state, dead
  cable/switch sets, uncommitted fault events, failure counters, breaker
  state, monotonically increasing version, plus a caller-owned ``extra``
  dict — the serve CLI stashes its fault-stream seed there).

Layout under the store root::

    CURRENT             # name of the newest complete checkpoint
    ckpt-00000007/      # one immutable directory per version
        fabric.json
        routing.npz
        state.json
        certificate.json  # deadlock-freedom certificate (layered routings)

Writes are crash-safe by construction: a checkpoint is staged in a
temporary directory, published with a single ``rename`` to its (never
reused) versioned name, and only then does ``CURRENT`` flip — itself an
atomic tmp-file + ``os.replace``. Every file is fsynced before the
staging directory is, that directory before its rename, and the store
root after it, so ``CURRENT`` never names a version the disk may not
hold yet. Readers always follow ``CURRENT``, so they see the previous
checkpoint until the new one is complete. Stale staging directories and
pruned old versions are cleaned opportunistically.
"""

from __future__ import annotations

import errno
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

from repro.exceptions import CheckpointError, FabricError, ReproError, RoutingError
from repro.network.fabric import Fabric
from repro.network.faults import DegradedFabric, degrade
from repro.network.io import fabric_json, load_fabric
from repro.obs import get_registry
from repro.obs.recorder import record_event
from repro.routing.base import RoutingResult
from repro.routing.io import load_routing_state, save_routing
from repro.utils.atomicio import atomic_write_text

STATE_FORMAT = 1

_CURRENT = "CURRENT"
_PREFIX = "ckpt-"


def write_text(path: Path, text: str) -> None:
    """Write one file of a staging directory and fsync it; the
    directory's rename publishes it, so no per-file rename is needed."""
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(text)
        fp.flush()
        os.fsync(fp.fileno())


def fsync_dir(path: Path) -> None:
    """Make the entries of directory ``path`` (names created or renamed
    in it) durable."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


@dataclass
class Checkpoint:
    """One restored checkpoint, fully materialised."""

    version: int
    path: Path
    baseline: Fabric
    degraded: DegradedFabric
    result: RoutingResult
    state: dict


class CheckpointStore:
    """Versioned checkpoint directory with an atomic ``CURRENT`` pointer."""

    def __init__(self, root: str | Path, keep: int = 3):
        if keep < 1:
            raise ValueError("keep must be >= 1")
        self.root = Path(root)
        self.keep = keep
        self.root.mkdir(parents=True, exist_ok=True)
        #: ``(baseline, its fabric.json text)`` of the last save: a fabric is
        #: immutable, so the same object renders to the same text
        self._baseline: tuple[Fabric, str] | None = None

    # ------------------------------------------------------------------
    def latest_version(self) -> int | None:
        """Version named by ``CURRENT``, or ``None`` if no checkpoint exists."""
        pointer = self.root / _CURRENT
        try:
            name = pointer.read_text().strip()
        except FileNotFoundError:
            return None
        except OSError as err:
            raise CheckpointError(f"{pointer}: cannot read checkpoint pointer: {err}") from err
        if not name.startswith(_PREFIX):
            raise CheckpointError(f"{pointer}: corrupt pointer contents {name!r}")
        try:
            return int(name[len(_PREFIX):])
        except ValueError as err:
            raise CheckpointError(f"{pointer}: corrupt pointer contents {name!r}") from err

    def __contains__(self, version: int) -> bool:
        return (self.root / self._name(version) / "state.json").exists()

    def complete_versions(self) -> list[int]:
        """Versions whose directory is complete (published with its
        ``state.json``), ascending. Staging dirs never qualify — a
        checkpoint only becomes visible through its final ``rename``."""
        out = []
        for entry in self.root.iterdir():
            if entry.name.startswith(_PREFIX) and (entry / "state.json").is_file():
                try:
                    out.append(int(entry.name[len(_PREFIX):]))
                except ValueError:  # pragma: no cover - foreign dir
                    continue
        return sorted(out)

    @staticmethod
    def _name(version: int) -> str:
        return f"{_PREFIX}{version:08d}"

    # ------------------------------------------------------------------
    def save(
        self,
        *,
        version: int,
        baseline: Fabric,
        result: RoutingResult,
        state: dict,
    ) -> Path:
        """Persist one checkpoint; returns its directory.

        ``state`` must be JSON-serialisable and carry the dead sets that
        reproduce ``result``'s fabric from ``baseline`` (see
        :meth:`load`). The version must be new — checkpoints are immutable.
        A write the filesystem refuses (read-only directory, full disk) is
        a :class:`CheckpointError` naming the directory and the errno; it
        leaves no staging directory and ``CURRENT`` where it was.

        The baseline's JSON is rendered once per baseline object and
        reused by later saves; every version still gets a ``fabric.json``
        file of its own, so damage to one version's copy leaves the
        older versions loadable.
        """
        final = self.root / self._name(version)
        if final.exists():
            raise CheckpointError(f"{final}: checkpoint version {version} already exists")
        staging = self.root / f".staging-{self._name(version)}-{os.getpid()}"
        if staging.exists():  # pragma: no cover - leftover from a crashed pid reuse
            shutil.rmtree(staging)
        try:
            staging.mkdir(parents=True)
            if self._baseline is None or self._baseline[0] is not baseline:
                self._baseline = (baseline, fabric_json(baseline))
            write_text(staging / "fabric.json", self._baseline[1])
            save_routing(
                staging / "routing.npz",
                result.tables,
                result.layered,
                channel_weights=result.channel_weights,
            )
            if result.certificate is not None:  # streamed from its arrays, block by block
                with open(staging / "certificate.json", "w", encoding="utf-8") as fp:
                    fp.writelines(result.certificate.json_chunks())
                    fp.flush()
                    os.fsync(fp.fileno())
            payload = dict(state)
            payload["format"] = STATE_FORMAT
            payload["version"] = version
            write_text(staging / "state.json", json.dumps(payload, indent=1, sort_keys=True))
            fsync_dir(staging)
            os.rename(staging, final)
        except BaseException as err:
            shutil.rmtree(staging, ignore_errors=True)
            if isinstance(err, OSError):
                raise self._write_error(version, err) from err
            raise
        try:
            fsync_dir(self.root)  # the rename, before CURRENT names it
            atomic_write_text(self.root / _CURRENT, self._name(version) + "\n")
        except OSError as err:
            # Unpublished: drop it so the version number can be reissued.
            shutil.rmtree(final, ignore_errors=True)
            raise self._write_error(version, err) from err
        self._cleanup(current=version)
        return final

    def _write_error(self, version: int, err: OSError) -> CheckpointError:
        code = errno.errorcode.get(err.errno, "unknown")
        return CheckpointError(
            f"{self.root}: cannot write checkpoint version {version} "
            f"(errno {err.errno} {code}): {err.strerror or err}"
        )

    def _cleanup(self, current: int) -> None:
        """Drop stale staging dirs and checkpoints beyond ``keep``."""
        versions = []
        for entry in self.root.iterdir():
            if entry.name.startswith(".staging-"):
                shutil.rmtree(entry, ignore_errors=True)
            elif entry.name.startswith(_PREFIX) and entry.is_dir():
                try:
                    versions.append(int(entry.name[len(_PREFIX):]))
                except ValueError:  # pragma: no cover - foreign dir
                    continue
        versions.sort(reverse=True)
        for v in versions[self.keep:]:
            if v != current:
                shutil.rmtree(self.root / self._name(v), ignore_errors=True)

    # ------------------------------------------------------------------
    def load(self, version: int | None = None) -> Checkpoint:
        """Materialise a checkpoint (default: the one ``CURRENT`` names).

        Reconstructs the degraded fabric by re-applying the checkpointed
        dead sets to the baseline, then validates the routing against it
        (fingerprint check). Raises :class:`CheckpointError` naming the
        offending file on any corruption or mismatch.

        When no explicit ``version`` is requested and the version named
        by ``CURRENT`` is missing or corrupt — a disk fault or tampering,
        never a normal crash, which the staged-rename protocol already
        covers — the store falls back to the newest *older* complete
        checkpoint instead of raising, recording a ``checkpoint_fallback``
        flight event (and bumping ``checkpoint_fallbacks_total``) so the
        post-mortem shows the service resumed from older state. An
        explicit ``version`` is a precise request and never falls back.
        """
        if version is not None:
            return self._load_version(version)
        current = self.latest_version()
        if current is None:
            raise CheckpointError(f"{self.root}: no checkpoint found (missing {_CURRENT})")
        try:
            return self._load_version(current)
        except CheckpointError as err:
            for candidate in reversed([v for v in self.complete_versions() if v < current]):
                try:
                    ckpt = self._load_version(candidate)
                except CheckpointError:
                    continue  # also damaged; keep walking back
                # Clear the damaged version so the resumed supervisor can
                # reuse its number (checkpoint dirs are never overwritten).
                shutil.rmtree(self.root / self._name(current), ignore_errors=True)
                record_event(
                    "checkpoint_fallback", root=str(self.root),
                    failed_version=current, fallback_version=candidate,
                    reason=str(err),
                )
                get_registry().counter(
                    "checkpoint_fallbacks_total",
                    "restores served by an older checkpoint after CURRENT's was damaged",
                ).inc()
                return ckpt
            raise

    def _load_version(self, version: int) -> Checkpoint:
        path = self.root / self._name(version)
        state_path = path / "state.json"
        try:
            state = json.loads(state_path.read_text())
        except FileNotFoundError as err:
            raise CheckpointError(f"{state_path}: missing checkpoint state") from err
        except (OSError, json.JSONDecodeError) as err:
            raise CheckpointError(f"{state_path}: corrupt checkpoint state: {err}") from err
        if state.get("format") != STATE_FORMAT:
            raise CheckpointError(
                f"{state_path}: unsupported checkpoint format {state.get('format')!r}"
            )
        for key in ("engine", "state", "dead_cables", "dead_switches"):
            if key not in state:
                raise CheckpointError(f"{state_path}: missing key {key!r}")

        try:
            baseline = load_fabric(path / "fabric.json")
        except FabricError as err:
            raise CheckpointError(f"{path / 'fabric.json'}: {err}") from err

        dead_switches = {int(s) for s in state["dead_switches"]}
        dead_cables = {tuple(int(c) for c in key) for key in state["dead_cables"]}
        try:
            degraded = degrade(baseline, dead_switches, dead_cables)
        except ReproError as err:
            raise CheckpointError(
                f"{state_path}: dead sets do not apply to the baseline fabric: {err}"
            ) from err

        routing_path = path / "routing.npz"
        try:
            routing = load_routing_state(routing_path, degraded.fabric)
        except FileNotFoundError as err:
            raise CheckpointError(f"{routing_path}: missing routing state") from err
        except (RoutingError, OSError, ValueError) as err:
            raise CheckpointError(f"{routing_path}: {err}") from err

        certificate = None
        cert_path = path / "certificate.json"
        if cert_path.is_file():
            from repro.deadlock.certificate import DeadlockFreedomCertificate
            from repro.exceptions import CertificateError

            try:
                certificate = DeadlockFreedomCertificate.load(cert_path)
            except CertificateError as err:
                # Checkpoints are immutable and written atomically; an
                # unparsable certificate means tampering or disk fault —
                # fail loudly like any other corrupt checkpoint file.
                raise CheckpointError(f"{cert_path}: {err}") from err

        result = RoutingResult(
            tables=routing.tables,
            layered=routing.layered,
            deadlock_free=routing.layered is not None,
            stats={"engine": routing.engine, "restored_from": str(path)},
            channel_weights=routing.channel_weights,
            certificate=certificate,
        )
        return Checkpoint(
            version=int(state.get("version", version)),
            path=path,
            baseline=baseline,
            degraded=degraded,
            result=result,
            state=state,
        )
