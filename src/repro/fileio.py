"""Atomic file writes.  Imports nothing from the simulator, so
:mod:`repro.analysis.perf_report` can still render without it."""

from __future__ import annotations

import os
import pathlib
import tempfile
from typing import Union

__all__ = ["atomic_write"]


def atomic_write(path, data: Union[str, bytes]) -> pathlib.Path:
    """Write *data* (text as UTF-8) to *path* via a temp file in its
    directory and ``os.replace``: readers see the old file or the new
    one, never a truncated one."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(data, str):
        data = data.encode("utf-8")
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path
