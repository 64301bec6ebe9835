"""Crash-safe file writes (tmp file + ``os.replace``).

Checkpoints, fabric snapshots and soak reports are the service's
recovery substrate: a process killed mid-write must never leave a
truncated JSON file behind, because the next start would then fail while
trying to restore. Every artifact writer in the library therefore funnels
through these helpers — the payload is written to a sibling temporary
file in the *same directory* (so the final ``os.replace`` is an atomic
rename on POSIX, never a cross-device copy) and only a complete file
ever appears under the target name.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_path(path: str | Path, mode: str = "wb"):
    """Yield an open temp file that atomically replaces ``path`` on success.

    On any exception the temp file is removed and ``path`` is left
    untouched (whatever was there before — including nothing — stays).

    >>> import tempfile, os
    >>> target = os.path.join(tempfile.mkdtemp(), "out.txt")
    >>> with atomic_path(target, "w") as fp:
    ...     _ = fp.write("done")
    >>> open(target).read()
    'done'
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent or Path("."), prefix=f".{path.name}.", suffix=".tmp"
    )
    fp = os.fdopen(fd, mode, encoding=None if "b" in mode else "utf-8")
    try:
        yield fp
        fp.flush()
        os.fsync(fp.fileno())
        fp.close()
        os.replace(tmp, path)
    except BaseException:
        fp.close()
        try:
            os.unlink(tmp)
        except OSError:  # pragma: no cover - already gone
            pass
        raise


def atomic_write_text(path: str | Path, text: str) -> None:
    """Atomically write ``text`` to ``path`` (complete file or no change)."""
    with atomic_path(path, "w") as fp:
        fp.write(text)
