"""Whole-file writes: a file is either its old bytes or its new ones."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path: Path | str, mode: str = "w", **open_kwargs):
    """Open a temporary file beside ``path``; rename it over ``path`` once the block succeeds.

    If the block or the rename fails, the temporary file is removed and any
    previous ``path`` is left intact.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
