"""The one way ptqlab writes a workspace file."""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path, data: bytes | str) -> None:
    """Put ``data`` (str is utf-8 encoded) at ``path``.

    The bytes go to a temp file in the same directory, which ``os.replace``
    then moves into place, so a crash or a failed write leaves the previous
    file whole and no partial one. A file that already holds exactly these
    bytes is left alone, mtime included, so a run that changes nothing
    writes nothing; only a write makes a missing parent directory. The temp
    file is not fsynced: this guards against a process dying, not against
    losing power.
    """
    path = Path(path)
    blob = data.encode("utf-8") if isinstance(data, str) else data
    try:
        if path.stat().st_size == len(blob) and path.read_bytes() == blob:
            return
    except FileNotFoundError:
        pass
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(blob)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
