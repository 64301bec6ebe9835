"""Atomic file writes: all-or-nothing semantics, no temp litter."""

from __future__ import annotations

import os

import pytest

from repro.utils.atomicio import atomic_path, atomic_write_text


def _entries(directory):
    return sorted(p.name for p in directory.iterdir())


def test_atomic_write_text_creates_file(tmp_path):
    target = tmp_path / "out.json"
    atomic_write_text(target, '{"ok": true}')
    assert target.read_text() == '{"ok": true}'
    assert _entries(tmp_path) == ["out.json"]  # no temp files left


def test_failure_leaves_previous_content(tmp_path):
    target = tmp_path / "state.json"
    target.write_text("previous good")
    with pytest.raises(RuntimeError):
        with atomic_path(target, "w") as fp:
            fp.write("half-writ")
            raise RuntimeError("crash mid-write")
    assert target.read_text() == "previous good"
    assert _entries(tmp_path) == ["state.json"]  # temp cleaned up


def test_failure_without_previous_leaves_nothing(tmp_path):
    target = tmp_path / "fresh.json"
    with pytest.raises(RuntimeError):
        with atomic_path(target, "w") as fp:
            fp.write("partial")
            raise RuntimeError("boom")
    assert not target.exists()
    assert _entries(tmp_path) == []


def test_overwrite_is_atomic_replace(tmp_path):
    target = tmp_path / "f.txt"
    atomic_write_text(target, "v1")
    ino_before = os.stat(target).st_ino
    atomic_write_text(target, "v2")
    assert target.read_text() == "v2"
    assert os.stat(target).st_ino != ino_before  # replaced, not rewritten

