"""Atomic file writes: every file the package writes goes through here."""
from __future__ import annotations

import json
from pathlib import Path


def write_atomic(path, data: bytes | bytearray | str) -> None:
    """Write `data` to a sibling temp file, then rename it over `path`, so a
    reader sees the old file or the new one, never a partial write."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    if isinstance(data, str):
        tmp.write_text(data)
    else:
        tmp.write_bytes(data)
    tmp.replace(path)


def write_json(path, payload) -> None:
    write_atomic(path, json.dumps(payload, indent=2, sort_keys=True))
