"""The one persistence discipline for every small on-disk artifact.

Two primitives, shared by the sweep store, its structural links, the
schedule registry and the calibration rollout/feedback files:

* :func:`atomic_write` — whole-file replacement.  Bytes go to a temp file
  in the target's directory (``*.tmp``), optionally fsynced, then
  ``os.replace`` moves it into place.  A reader sees the previous complete
  file or the new complete file, never a torn one; a failed write removes
  its temp file (a process killed mid-write leaves an orphaned ``*.tmp``,
  which nothing reads).
* :func:`durable_append` — one ``write`` + ``flush`` + ``fsync`` onto a
  line-oriented log, so a crash tears at most the final line.

Both create the parent directory on demand.
"""

from __future__ import annotations

import os
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO

__all__ = ["atomic_write", "durable_append"]


@contextmanager
def atomic_write(path: Path, *, fsync: bool = False) -> Iterator[BinaryIO]:
    """Yield a binary handle whose contents atomically replace ``path``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
            if fsync:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def durable_append(path: Path, data: bytes) -> None:
    """Append ``data`` to ``path`` and fsync before returning."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "ab") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
