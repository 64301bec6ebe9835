"""Fingerprint-keyed routing cache.

A full DFSSSP run on a large fabric costs seconds to minutes, yet its
inputs are completely determined by (a) the fabric's structure and (b)
the engine configuration — both engines are deterministic functions of
those. :class:`RoutingCache` memoises full routing results on disk under
a key derived from the :func:`~repro.routing.io.fabric_fingerprint` and
the engine's name + options, so a :class:`~repro.service.supervisor.RoutingSupervisor`
restarting (or re-encountering a previously seen degraded fabric) can
warm-start instead of recomputing.

Each entry is up to three files in the cache directory:

* ``<key>.npz`` — tables, lane assignment and balancing weights, written
  through :func:`~repro.routing.io.save_routing` (atomic, fingerprint-
  stamped, so a cache hit is *still* validated against the live fabric
  at load time — a re-cabled fabric can never be served stale tables);
* ``<key>.meta.json`` — human-inspectable metadata (engine, options,
  fingerprint, the engine's ``stats`` dict) for ``repro-route stats``;
* ``<key>.cert.json`` — the deadlock-freedom certificate of layered
  results (see :mod:`repro.deadlock.certificate`). Emitted at store
  time and re-checked — structure *and* binding to the live routing —
  at load time, so a warm start serves provably safe tables without
  re-running the layer assignment. A missing, corrupt or mismatched
  certificate turns the hit into a miss and bumps
  ``routing_cert_invalid_total``.

The cache can be **bounded**: ``max_entries`` / ``max_bytes`` cap the
entry count and total on-disk footprint, with least-recently-used
entries pruned at store time (a hit refreshes the entry's recency via
its ``mtime``, so long-running fleets keep their hot fabrics warm).
Unbounded by default, matching the old behaviour.

Counters: ``routing_cache_hit_total`` / ``routing_cache_miss_total`` /
``routing_cache_store_total`` / ``routing_cache_evicted_total`` /
``routing_cert_invalid_total``, labelled by engine.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import numpy as np

from repro.exceptions import CertificateError, RoutingError
from repro.network.fabric import Fabric
from repro.obs import get_registry
from repro.obs.recorder import record_event
from repro.routing.base import RoutingResult
from repro.routing.io import fabric_fingerprint, load_routing_state, save_routing
from repro.utils.atomicio import atomic_write_text

_KEY_LEN = 24


def cache_key(fingerprint: str, engine: str, opts: dict | None = None) -> str:
    """Deterministic entry key: fingerprint + engine + sorted options.

    Options are JSON-encoded with sorted keys so dict ordering never
    splits the cache; anything unserialisable raises immediately rather
    than silently colliding.
    """
    payload = json.dumps(opts or {}, sort_keys=True, default=_jsonify)
    digest = hashlib.sha256(
        f"{fingerprint}|{engine}|{payload}".encode()
    ).hexdigest()
    return digest[:_KEY_LEN]


def _jsonify(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    raise TypeError(f"cache options must be JSON-serialisable, got {type(obj).__name__}")


class RoutingCache:
    """Disk cache of full routing results, keyed by fabric + engine config.

    >>> cache = RoutingCache(tmp_dir)            # doctest: +SKIP
    >>> hit = cache.load(fabric, "dfsssp", {})   # None on miss
    >>> cache.store(fabric, "dfsssp", {}, result)

    ``max_entries`` / ``max_bytes`` (``None`` = unlimited) bound the
    cache; :meth:`store` prunes least-recently-used entries past either
    limit. The entry being stored is never its own eviction victim, so a
    single oversized routing still caches (the bound then holds again at
    the next store).
    """

    def __init__(
        self,
        cache_dir: str | Path,
        *,
        max_entries: int | None = None,
        max_bytes: int | None = None,
    ):
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        if max_bytes is not None and max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.dir = Path(cache_dir)
        self.max_entries = max_entries
        self.max_bytes = max_bytes
        self.dir.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    def _paths(self, key: str) -> tuple[Path, Path, Path]:
        return (
            self.dir / f"{key}.npz",
            self.dir / f"{key}.meta.json",
            self.dir / f"{key}.cert.json",
        )

    def _counter(self, event: str, engine: str, key: str | None = None):
        record_event(f"cache_{event}", engine=str(engine), key=key)
        return get_registry().counter(
            f"routing_cache_{event}_total",
            f"routing-cache {event}s",
            engine=str(engine),
        )

    # ------------------------------------------------------------------
    def load(self, fabric: Fabric, engine: str, opts: dict | None = None) -> RoutingResult | None:
        """Return the cached routing for ``fabric`` + config, or ``None``.

        A hit re-validates the stored fingerprint against ``fabric`` (via
        :func:`load_routing_state`); a corrupt or mismatched entry counts
        as a miss and is left for :meth:`store` to overwrite. Layered
        entries additionally carry a deadlock-freedom certificate that is
        re-checked — structurally and against the loaded routing — before
        the hit is served; an invalid certificate is a miss.
        """
        key = cache_key(fabric_fingerprint(fabric), engine, opts)
        npz, meta_path, cert_path = self._paths(key)
        if not npz.is_file():
            self._counter("miss", engine, key).inc()
            return None
        try:
            state = load_routing_state(npz, fabric)
            meta = json.loads(meta_path.read_text()) if meta_path.is_file() else {}
        except (RoutingError, OSError, ValueError, KeyError):
            self._counter("miss", engine, key).inc()
            return None
        cert = None
        if state.layered is not None:
            cert = self._checked_certificate(cert_path, state, engine, key)
            if cert is None:
                self._counter("miss", engine, key).inc()
                return None
        self._counter("hit", engine, key).inc()
        self._touch(npz)
        stats = dict(meta.get("stats", {}))
        stats["cache"] = "hit"
        if cert is not None:
            stats["certified"] = True
        return RoutingResult(
            tables=state.tables,
            layered=state.layered,
            deadlock_free=bool(meta.get("deadlock_free", state.layered is not None)),
            stats=stats,
            channel_weights=state.channel_weights,
            certificate=cert,
        )

    def _checked_certificate(self, cert_path: Path, state, engine: str, key: str):
        """Load + fully check the entry's certificate; ``None`` if invalid.

        An entry stored before certificates existed (or whose certificate
        was corrupted/tampered with) must not be served as deadlock-free
        on trust — the caller treats ``None`` as a cache miss so the
        routing is recomputed and re-certified.
        """
        from repro.deadlock.certificate import DeadlockFreedomCertificate, check_servable

        try:
            cert = DeadlockFreedomCertificate.load(cert_path)
        except CertificateError as err:
            reason = str(err)
        else:
            reason = check_servable(state.tables, state.layered, cert).problem
            if reason is None:
                return cert
        record_event("cache_cert_invalid", engine=str(engine), key=key, reason=reason)
        get_registry().counter(
            "routing_cert_invalid_total",
            "cache entries rejected for a missing/invalid deadlock certificate",
            engine=str(engine),
        ).inc()
        return None

    def store(
        self, fabric: Fabric, engine: str, opts: dict | None, result: RoutingResult
    ) -> str:
        """Persist ``result`` for ``fabric`` + config; returns the key.

        All files are written atomically; a crash mid-store leaves any
        previous entry intact. Layered results are certified on the way
        in (the certificate is also attached to ``result``); an
        uncertifiable layered routing — a cyclic layer — refuses to
        enter the cache by raising :class:`CertificateError` with a
        witness cycle.
        """
        key = cache_key(fabric_fingerprint(fabric), engine, opts)
        npz, meta_path, cert_path = self._paths(key)
        if result.layered is not None and result.certificate is None:
            from repro.deadlock.certificate import check_servable

            verdict = check_servable(result.tables, result.layered)
            if verdict.problem is not None:
                raise CertificateError(f"routing cannot be certified: {verdict.problem}")
            result.certificate = verdict.certificate
        save_routing(
            npz,
            result.tables,
            layered=result.layered,
            channel_weights=result.channel_weights,
        )
        if result.certificate is not None:
            result.certificate.save(cert_path)
        meta = {
            "key": key,
            "engine": str(engine),
            "opts": json.loads(json.dumps(opts or {}, sort_keys=True, default=_jsonify)),
            "fingerprint": fabric_fingerprint(fabric),
            "deadlock_free": bool(result.deadlock_free),
            "stats": _json_safe_stats(result.stats),
        }
        atomic_write_text(meta_path, json.dumps(meta, indent=2, sort_keys=True) + "\n")
        self._counter("store", engine, key).inc()
        self._prune(keep_key=key)
        return key

    # ------------------------------------------------------------------
    @staticmethod
    def _touch(npz: Path) -> None:
        """Refresh an entry's LRU recency (mtime of its ``.npz``)."""
        try:
            os.utime(npz)
        except OSError:  # pragma: no cover - read-only cache mount
            pass

    def _prune(self, keep_key: str) -> None:
        """Evict least-recently-used entries past ``max_entries``/``max_bytes``.

        An entry is the ``.npz`` + ``.meta.json`` + ``.cert.json`` triple;
        its recency is the ``.npz`` mtime (touched on every hit) and its
        size the triple's combined bytes. ``keep_key`` — the entry just
        stored — is exempt from this round.
        """
        if self.max_entries is None and self.max_bytes is None:
            return
        entries = []  # (mtime, key, bytes)
        total = 0
        for npz in self.dir.glob("*.npz"):
            key = npz.stem
            try:
                size = sum(p.stat().st_size for p in self._paths(key) if p.is_file())
                mtime = npz.stat().st_mtime
            except OSError:  # pragma: no cover - raced with clear()
                continue
            entries.append((mtime, key, size))
            total += size
        entries.sort()
        count = len(entries)
        for mtime, key, size in entries:
            over_entries = self.max_entries is not None and count > self.max_entries
            over_bytes = self.max_bytes is not None and total > self.max_bytes
            if not (over_entries or over_bytes):
                break
            if key == keep_key:
                continue
            npz, meta_path, cert_path = self._paths(key)
            engine = "?"
            try:
                engine = str(json.loads(meta_path.read_text()).get("engine", "?"))
            except (OSError, ValueError):
                pass
            for p in (npz, meta_path, cert_path):
                p.unlink(missing_ok=True)
            count -= 1
            total -= size
            self._counter("evicted", engine, key).inc()

    # ------------------------------------------------------------------
    def entries(self) -> list[dict]:
        """Metadata of every cache entry (for ``repro-route stats``)."""
        out = []
        for meta_path in sorted(self.dir.glob("*.meta.json")):
            try:
                meta = json.loads(meta_path.read_text())
            except (OSError, ValueError):  # pragma: no cover - corrupt entry
                continue
            key = meta.get("key", meta_path.stem.split(".")[0])
            npz = self.dir / f"{key}.npz"
            meta["bytes"] = npz.stat().st_size if npz.is_file() else 0
            meta["certified"] = (self.dir / f"{key}.cert.json").is_file()
            out.append(meta)
        return out

    def clear(self) -> int:
        """Delete every entry file; returns how many were removed."""
        removed = 0
        for pattern in ("*.npz", "*.meta.json", "*.cert.json"):
            for p in self.dir.glob(pattern):
                p.unlink(missing_ok=True)
                removed += 1
        return removed


def _json_safe_stats(stats: dict) -> dict:
    """Engine stats dicts hold numpy scalars; coerce for JSON."""
    safe = {}
    for k, v in stats.items():
        try:
            safe[k] = json.loads(json.dumps(v, default=_jsonify))
        except TypeError:
            safe[k] = str(v)
    return safe
