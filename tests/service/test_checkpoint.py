"""Checkpoint/restore: atomic persistence, round-trips, corruption handling."""

from __future__ import annotations

import errno
import json
import os
import zipfile

import numpy as np
import pytest

from repro import topologies
from repro.exceptions import CheckpointError
from repro.obs import InMemorySink, use_sink
from repro.resilience import FaultInjector
from repro.service import (
    BackoffPolicy,
    CheckpointStore,
    RoutingSupervisor,
    ServicePolicy,
)

FAST = ServicePolicy(backoff=BackoffPolicy(base_s=0.0, jitter=0.0, max_attempts=2))


@pytest.fixture()
def fabric():
    return topologies.random_topology(8, 18, terminals_per_switch=2, seed=3)


def _run_events(sup, fabric, n, seed=5, skip=0):
    injector = FaultInjector(fabric, seed=seed)
    for _ in range(skip):
        injector.step()
    for _ in range(n):
        stepped = injector.step()
        if stepped is None:
            break
        sup.submit(stepped[0])
        sup.process()


def test_engine_opts_survive_restore(tmp_path, fabric):
    """A service configured with ``{"workers": 2}`` (accepted, and inert)
    restores with the same options, re-verifies its routing by the
    checkpointed certificate, and serves and repairs exactly what a
    default service does."""
    opts = {"workers": 2, "kernel": "numpy"}
    injector = FaultInjector(fabric, seed=5, p_switch_down=0.0, p_link_up=0.0)
    events = [injector.step()[0] for _ in range(2)]
    sup = RoutingSupervisor(
        fabric,
        engine="dfsssp",
        policy=FAST,
        checkpoint_dir=tmp_path / "ckpt",
        engine_opts=opts,
    )
    assert sup.engine._sssp.workers == 2
    assert sup.engine._sssp.kernel == "numpy"
    sup.submit(events[0])
    assert sup.process().ok
    expected = sup.serving()

    sink = InMemorySink()
    with use_sink(sink):
        restored = RoutingSupervisor.restore(tmp_path / "ckpt")
    assert restored.engine_opts == opts
    assert restored.engine._sssp.workers == 2
    assert restored.engine._sssp.kernel == "numpy"
    (verify,) = sink.find("service.verify")
    assert verify.attrs["method"] == "certificate" and verify.attrs["ok"]
    served = restored.serving()
    assert served.result.deadlock_free
    assert np.array_equal(
        served.result.tables.next_channel, expected.result.tables.next_channel
    )
    restored.submit(events[1])
    assert restored.process().ok

    # A default supervisor over the same fabric and events serves
    # identical tables and layers: ``workers`` changes nothing.
    serial = RoutingSupervisor(fabric, engine="dfsssp", policy=FAST)
    for event in events:
        serial.submit(event)
        assert serial.process().ok
    got, want = restored.serving().result, serial.serving().result
    assert np.array_equal(got.tables.next_channel, want.tables.next_channel)
    assert np.array_equal(got.layered.path_layers, want.layered.path_layers)


def test_checkpoint_restore_round_trip(tmp_path, fabric):
    """save -> kill -> restore yields identical tables, layers and weights."""
    sup = RoutingSupervisor(fabric, policy=FAST, checkpoint_dir=tmp_path / "ckpt")
    _run_events(sup, fabric, 4)
    expected = sup.serving()

    # "Kill" the process: drop the object, restore purely from disk.
    restored = RoutingSupervisor.restore(tmp_path / "ckpt")
    served = restored.serving()

    assert served.version == expected.version
    assert served.state == expected.state
    assert served.stale == expected.stale
    assert np.array_equal(
        served.result.tables.next_channel, expected.result.tables.next_channel
    )
    assert np.array_equal(
        served.result.layered.path_layers, expected.result.layered.path_layers
    )
    assert served.result.layered.num_layers == expected.result.layered.num_layers
    assert np.array_equal(
        served.result.channel_weights, expected.result.channel_weights
    )
    assert restored.events_submitted == sup.events_submitted
    assert restored.policy == sup.policy

    # The restored supervisor keeps working: feed it the next events.
    _run_events(restored, fabric, 2, skip=4)
    assert restored.serving().version == expected.version + 2


def test_checkpoint_pruning_keeps_latest(tmp_path, fabric):
    policy = FAST.with_(keep_checkpoints=2)
    sup = RoutingSupervisor(fabric, policy=policy, checkpoint_dir=tmp_path / "ckpt")
    _run_events(sup, fabric, 5)
    dirs = sorted(p.name for p in (tmp_path / "ckpt").iterdir() if p.is_dir())
    assert len(dirs) == 2
    store = CheckpointStore(tmp_path / "ckpt")
    latest = store.latest_version()
    assert dirs[-1].endswith(f"{latest:08d}")
    # CURRENT always points at a loadable checkpoint.
    assert store.load().version == latest


def test_load_missing_store_raises(tmp_path):
    store = CheckpointStore(tmp_path / "empty")
    with pytest.raises(CheckpointError):
        store.load()


def test_corrupt_state_json_names_file(tmp_path, fabric):
    # Only one checkpoint exists (the constructor's), so there is no
    # older version to fall back to: the original error propagates.
    RoutingSupervisor(fabric, policy=FAST, checkpoint_dir=tmp_path / "ckpt")
    store = CheckpointStore(tmp_path / "ckpt")
    state_file = store.root / store._name(store.latest_version()) / "state.json"
    state_file.write_text("{ truncated")
    with pytest.raises(CheckpointError) as exc:
        store.load()
    assert "state.json" in str(exc.value)


@pytest.mark.parametrize("opts, named", [
    ({"cdg": "sharded"}, ("cdg", "'incremental' or 'rebuild'")),
    ({"kernel": "native"}, ("kernel", "('python', 'numpy')")),
    ({"workers": 2, "shm": False}, ("['shm']", "'workers'")),
    ({"batch": 8}, ("['batch']", "'kernel'")),
    ({"mode": "online"}, ("['mode']", "'heuristic'")),
    ({"dest_order": "random"}, ("['dest_order']", "'workers'")),
    ({"seed": 3}, ("['seed']", "'kernel'")),
    ({"count_switch_sources": True}, ("['count_switch_sources']", "'balance'")),
    ({"heuristic": "bogus"}, ("unknown heuristic 'bogus'", "'weakest'")),
    ({"max_layers": 0}, ("max_layers must be >= 1", "got 0")),
])
def test_restore_rejects_removed_engine_opts(tmp_path, fabric, opts, named):
    """A checkpoint written with an option this version no longer has is
    a checkpoint fault naming the key and what is accepted instead."""
    RoutingSupervisor(fabric, engine="dfsssp", policy=FAST, checkpoint_dir=tmp_path / "ckpt")
    store = CheckpointStore(tmp_path / "ckpt")
    state_file = store.root / store._name(store.latest_version()) / "state.json"
    data = json.loads(state_file.read_text())
    data["engine_opts"] = opts
    state_file.write_text(json.dumps(data))
    with pytest.raises(CheckpointError) as exc:
        RoutingSupervisor.restore(tmp_path / "ckpt")
    assert "state.json" in str(exc.value)
    for text in named:
        assert text in str(exc.value)


def test_corrupt_current_pointer(tmp_path, fabric):
    RoutingSupervisor(fabric, policy=FAST, checkpoint_dir=tmp_path / "ckpt")
    (tmp_path / "ckpt" / "CURRENT").write_text("garbage")
    with pytest.raises(CheckpointError):
        CheckpointStore(tmp_path / "ckpt").load()


def test_missing_state_keys_rejected(tmp_path, fabric):
    RoutingSupervisor(fabric, policy=FAST, checkpoint_dir=tmp_path / "ckpt")
    store = CheckpointStore(tmp_path / "ckpt")
    state_file = store.root / store._name(store.latest_version()) / "state.json"
    data = json.loads(state_file.read_text())
    del data["dead_cables"]
    state_file.write_text(json.dumps(data))
    with pytest.raises(CheckpointError):
        store.load()


def test_no_stale_staging_dirs_left(tmp_path, fabric):
    sup = RoutingSupervisor(fabric, policy=FAST, checkpoint_dir=tmp_path / "ckpt")
    _run_events(sup, fabric, 3)
    leftovers = [p for p in (tmp_path / "ckpt").iterdir() if p.name.startswith(".")]
    assert leftovers == []


# ----------------------------------------------------------------------
# Fallback to an older checkpoint when CURRENT's version is damaged.


def _two_checkpoints(tmp_path, fabric):
    sup = RoutingSupervisor(fabric, policy=FAST, checkpoint_dir=tmp_path / "ckpt")
    sup.checkpoint()
    store = CheckpointStore(tmp_path / "ckpt")
    return sup, store, store.latest_version()


def test_fallback_to_older_on_corrupt_current(tmp_path, fabric):
    from repro.obs.recorder import FlightRecorder, use_recorder

    _, store, latest = _two_checkpoints(tmp_path, fabric)
    assert len(store.complete_versions()) == 2
    state_file = store.root / store._name(latest) / "state.json"
    state_file.write_text("{ truncated")

    flight = FlightRecorder()
    with use_recorder(flight):
        ckpt = store.load()
    assert ckpt.version == latest - 1
    # The damaged directory is gone so the version number can be reissued.
    assert not (store.root / store._name(latest)).exists()
    events = [e for e in flight.snapshot() if e["kind"] == "checkpoint_fallback"]
    assert len(events) == 1
    assert events[0]["failed_version"] == latest
    assert events[0]["fallback_version"] == latest - 1


def test_fallback_on_missing_current_dir(tmp_path, fabric):
    import shutil

    _, store, latest = _two_checkpoints(tmp_path, fabric)
    shutil.rmtree(store.root / store._name(latest))
    assert store.load().version == latest - 1


def test_explicit_version_never_falls_back(tmp_path, fabric):
    _, store, latest = _two_checkpoints(tmp_path, fabric)
    state_file = store.root / store._name(latest) / "state.json"
    state_file.write_text("{ truncated")
    with pytest.raises(CheckpointError):
        store.load(version=latest)


def _tear(npz, how: str) -> None:
    """Damage a ``routing.npz`` the way a disk fault or a partial copy does."""
    if how == "empty":
        npz.write_bytes(b"")
    elif how == "truncated":
        blob = npz.read_bytes()
        npz.write_bytes(blob[: len(blob) // 2])
    else:  # ``how`` names the member to drop
        with zipfile.ZipFile(npz) as archive:
            members = {name: archive.read(name) for name in archive.namelist()}
        with zipfile.ZipFile(npz, "w") as archive:
            for name, data in members.items():
                if name != how:
                    archive.writestr(name, data)


# ``routing.npz`` format 2: the stored rows and the leaf exceptions are
# members too; an archive without either is torn.
TEARS = ["empty", "truncated", "num_layers.npy", "next_channel_rows.npy",
         "leaf_exceptions.npy"]


@pytest.mark.parametrize("how", TEARS)
def test_torn_routing_falls_back_to_older(tmp_path, fabric, how):
    from repro.obs.recorder import FlightRecorder, use_recorder

    _, store, latest = _two_checkpoints(tmp_path, fabric)
    _tear(store.root / store._name(latest) / "routing.npz", how)
    flight = FlightRecorder()
    with use_recorder(flight):
        ckpt = store.load()
    assert ckpt.version == latest - 1
    events = [e for e in flight.snapshot() if e["kind"] == "checkpoint_fallback"]
    assert len(events) == 1
    assert events[0]["failed_version"] == latest
    assert "routing.npz" in events[0]["reason"]


@pytest.mark.parametrize("how", TEARS)
def test_torn_routing_with_explicit_version_raises(tmp_path, fabric, how):
    _, store, latest = _two_checkpoints(tmp_path, fabric)
    _tear(store.root / store._name(latest) / "routing.npz", how)
    with pytest.raises(CheckpointError, match="routing.npz: torn routing state"):
        store.load(version=latest)


def test_supervisor_restores_and_checkpoints_after_fallback(tmp_path, fabric):
    """End-to-end: restore survives a damaged CURRENT checkpoint, and the
    resumed supervisor can checkpoint again (the damaged version number is
    reissued, not collided with)."""
    import shutil

    _, store, latest = _two_checkpoints(tmp_path, fabric)
    shutil.rmtree(store.root / store._name(latest))

    restored = RoutingSupervisor.restore(tmp_path / "ckpt")
    assert restored.serving().version == latest - 1
    restored.checkpoint()
    assert store.latest_version() == latest


# ----------------------------------------------------------------------
# writes the filesystem refuses: a named error, nothing half-written
# ----------------------------------------------------------------------
def _refuse(code):
    def writer(*_args, **_kwargs):
        raise OSError(code, os.strerror(code))
    return writer


# Root ignores a read-only chmod, so the writers are made to fail instead:
# (test id, the writer patched, errno). ``fabric.json`` is written by
# ``write_text`` from the baseline text the store renders once.
WRITE_FAULTS = [
    ("save_fabric", "write_text", errno.EROFS),  # the first file of the staging directory
    ("save_routing", "save_routing", errno.ENOSPC),  # the disk fills mid-checkpoint
    ("atomic_write_text", "atomic_write_text", errno.ENOSPC),  # published, CURRENT cannot flip
]


@pytest.mark.parametrize("writer, code", [(w, c) for _, w, c in WRITE_FAULTS],
                         ids=[name for name, _, _ in WRITE_FAULTS])
def test_refused_write_is_a_named_error_and_leaves_nothing(tmp_path, fabric, monkeypatch,
                                                          writer, code):
    from repro.service import checkpoint as checkpoint_mod

    sup, store, latest = _two_checkpoints(tmp_path, fabric)
    before = sorted(p.name for p in store.root.iterdir())
    monkeypatch.setattr(checkpoint_mod, writer, _refuse(code))
    with pytest.raises(CheckpointError) as err:
        store.save(version=latest + 1, baseline=fabric, result=sup.serving().result,
                   state=sup.state_dict())
    assert str(store.root) in str(err.value)
    assert f"errno {code} {errno.errorcode[code]}" in str(err.value)
    assert sorted(p.name for p in store.root.iterdir()) == before  # no staging, no orphan
    assert store.latest_version() == latest
    monkeypatch.undo()  # the disk recovers: the same version number is free
    store.save(version=latest + 1, baseline=fabric, result=sup.serving().result,
               state=sup.state_dict())
    assert store.load().version == latest + 1


def test_supervisor_records_a_failed_checkpoint_and_serves_on(tmp_path, fabric, monkeypatch):
    from repro.obs.recorder import FlightRecorder, use_recorder
    from repro.service import checkpoint as checkpoint_mod

    sup, store, latest = _two_checkpoints(tmp_path, fabric)
    served = sup.serving()
    monkeypatch.setattr(checkpoint_mod, "save_routing", _refuse(errno.ENOSPC))
    flight = FlightRecorder()
    with use_recorder(flight), pytest.raises(CheckpointError, match="ENOSPC"):
        sup.checkpoint()
    failed = [e for e in flight.snapshot() if e["kind"] == "checkpoint_failed"]
    assert len(failed) == 1
    assert failed[0]["version"] == latest + 1 and "ENOSPC" in failed[0]["reason"]
    assert not [e for e in flight.snapshot() if e["kind"] == "checkpoint"]
    after = sup.serving()
    assert after.version == served.version and after.result is served.result
    assert store.latest_version() == latest
    monkeypatch.undo()
    sup.checkpoint()  # retries the version that failed
    assert store.latest_version() == latest + 1


# ----------------------------------------------------------------------
# derive once: one path walk per routing, however many stages read it
# ----------------------------------------------------------------------
def test_route_to_checkpoint_walks_the_tables_once(tmp_path):
    """The benchmark's ``route_pipeline``, stage by stage."""
    from repro.core import DFSSSPEngine
    from repro.deadlock import verify_deadlock_free
    from repro.deadlock.certificate import check_against_routing, emit_certificate
    from repro.obs import InMemorySink, use_sink
    from repro.routing import extract_paths

    fabric = topologies.xgft(2, (4, 4), (1, 2))
    store = CheckpointStore(tmp_path / "routes")
    with use_sink(InMemorySink()) as sink:
        result = DFSSSPEngine().route(fabric)
        paths = extract_paths(result.tables)
        assert verify_deadlock_free(result.layered, paths).deadlock_free
        result.certificate = emit_certificate(result.layered, paths, engine="dfsssp")
        assert check_against_routing(result.certificate, result.layered, paths).ok
        store.save(version=1, baseline=fabric, result=result,
                   state={"engine": "dfsssp", "state": "healthy",
                          "dead_cables": [], "dead_switches": []})
    assert len(sink.find("paths.extract")) == 1
    assert store.load().result.certificate.to_json() == result.certificate.to_json()


# ----------------------------------------------------------------------
# the baseline is rendered once; every version keeps its own copy
# ----------------------------------------------------------------------
def _count_renders(monkeypatch) -> list:
    from repro.service import checkpoint as checkpoint_mod

    rendered = []
    real = checkpoint_mod.fabric_json
    monkeypatch.setattr(checkpoint_mod, "fabric_json",
                        lambda baseline: rendered.append(baseline) or real(baseline))
    return rendered


def test_two_saves_render_the_baseline_once(tmp_path, fabric, monkeypatch):
    from repro.network.io import save_fabric

    sup, store, latest = _two_checkpoints(tmp_path, fabric)
    rendered = _count_renders(monkeypatch)
    for version in (latest + 1, latest + 2):
        store.save(version=version, baseline=fabric, result=sup.serving().result,
                   state=sup.state_dict())
    assert rendered == [fabric]
    first, second = (store.root / store._name(v) / "fabric.json" for v in (latest + 1, latest + 2))
    save_fabric(fabric, tmp_path / "reference.json")
    assert first.read_bytes() == second.read_bytes() == (tmp_path / "reference.json").read_bytes()
    assert first.stat().st_ino != second.stat().st_ino  # a file each, not a link
    assert first.stat().st_nlink == second.stat().st_nlink == 1
    assert store.load().version == latest + 2


def test_a_different_baseline_object_is_rendered_fresh(tmp_path, fabric, monkeypatch):
    from repro.network.io import fabric_json

    sup, store, latest = _two_checkpoints(tmp_path, fabric)
    other = topologies.random_topology(8, 18, terminals_per_switch=2, seed=4)
    rendered = _count_renders(monkeypatch)
    result, state = sup.serving().result, sup.state_dict()
    store.save(version=latest + 1, baseline=fabric, result=result, state=state)
    store.save(version=latest + 2, baseline=other, result=result, state=state)
    store.save(version=latest + 3, baseline=other, result=result, state=state)
    assert rendered == [fabric, other]
    for version, baseline in ((latest + 1, fabric), (latest + 2, other), (latest + 3, other)):
        text = (store.root / store._name(version) / "fabric.json").read_text()
        assert text == fabric_json(baseline)


def test_corrupt_fabric_json_falls_back_to_older(tmp_path, fabric):
    """Each version's ``fabric.json`` is its own file: damage to the
    newest one leaves the older version loadable."""
    from repro.obs.recorder import FlightRecorder, use_recorder

    _, store, latest = _two_checkpoints(tmp_path, fabric)
    older = store.root / store._name(latest - 1) / "fabric.json"
    newest = store.root / store._name(latest) / "fabric.json"
    before = older.read_bytes()
    newest.write_text('{"version": 1, "nod')
    assert older.read_bytes() == before
    with pytest.raises(CheckpointError) as err:
        store.load(version=latest)
    assert str(newest) in str(err.value)
    flight = FlightRecorder()
    with use_recorder(flight):
        ckpt = store.load()
    assert ckpt.version == latest - 1
    events = [e for e in flight.snapshot() if e["kind"] == "checkpoint_fallback"]
    assert len(events) == 1 and str(newest) in events[0]["reason"]


def test_fabric_json_reaches_the_disk_before_current_flips(tmp_path, fabric, monkeypatch):
    """The reused baseline text is fsynced like the file ``save_fabric``
    wrote: ``CURRENT`` never names a version whose ``fabric.json`` may
    still be only in the page cache."""
    sup, store, latest = _two_checkpoints(tmp_path, fabric)
    synced = []  # (inode, CURRENT's contents at the time)
    real = os.fsync

    def spy(fd):
        real(fd)
        synced.append((os.fstat(fd).st_ino, store.latest_version()))

    monkeypatch.setattr(os, "fsync", spy)
    for version in (latest + 1, latest + 2):  # rendered, then reused
        store.save(version=version, baseline=fabric, result=sup.serving().result,
                   state=sup.state_dict())
        inode = (store.root / store._name(version) / "fabric.json").stat().st_ino
        assert (inode, version - 1) in synced


def test_save_syncs_files_then_directory_then_rename_then_root(tmp_path, fabric, monkeypatch):
    """The durability order of one save: every file of the staging
    directory is fsynced, then the directory, then it is renamed into
    place, then the store root is fsynced — all before ``CURRENT`` is
    replaced."""
    sup, store, latest = _two_checkpoints(tmp_path, fabric)
    calls = []  # ("fsync", inode) / ("rename" | "replace", destination name)
    real = {name: getattr(os, name) for name in ("fsync", "rename", "replace")}

    def fsync(fd):
        calls.append(("fsync", os.fstat(fd).st_ino))
        real["fsync"](fd)

    def moved(name):
        def move(src, dst, *args, **kwargs):
            calls.append((name, os.path.basename(dst)))
            real[name](src, dst, *args, **kwargs)
        return move

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "rename", moved("rename"))
    monkeypatch.setattr(os, "replace", moved("replace"))
    final = store.save(version=latest + 1, baseline=fabric, result=sup.serving().result,
                       state=sup.state_dict())
    monkeypatch.undo()

    files = sorted(p.name for p in final.iterdir())
    assert files == ["certificate.json", "fabric.json", "routing.npz", "state.json"]
    synced = [calls.index(("fsync", (final / f).stat().st_ino)) for f in files]
    directory = calls.index(("fsync", final.stat().st_ino))
    rename = calls.index(("rename", final.name))
    root = calls.index(("fsync", store.root.stat().st_ino))
    current = calls.index(("replace", "CURRENT"))
    assert max(synced) < directory < rename < root < current
    assert ("fsync", (store.root / "CURRENT").stat().st_ino) in calls[root:current]
