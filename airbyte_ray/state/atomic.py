"""Atomic file replacement: the one place a committed file is published.

A reader of ``path`` sees the old file or the new one, never a partial write
(Delta Lake's commit files, VLDB 2020).  Each writer writes a tmp of its own,
``<path>.tmp-<pid>-<thread id>``, so two committers never share one; a write
that raises removes it.  ``LakeTable.vacuum()`` sweeps a crash's lake tmps.
"""

import json
import os
import threading


def replace_atomically(path: str, write) -> None:
    """``write(tmp)`` the new file, then rename it over ``path`` (whose
    directory is created if missing)."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    tmp = f"{path}.tmp-{os.getpid()}-{threading.get_ident()}"
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def commit_json(path: str, obj) -> None:
    """:func:`replace_atomically` with ``obj`` as JSON, durably: the file is
    fsynced before the rename and its directory after, so a power loss after
    this returns cannot revert the commit."""

    def write(tmp: str) -> None:
        with open(tmp, "w") as f:
            json.dump(obj, f)
            f.flush()
            os.fsync(f.fileno())

    replace_atomically(path, write)
    dfd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(dfd)
    finally:
        os.close(dfd)
