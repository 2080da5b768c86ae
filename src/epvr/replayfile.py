"""Replay files: a self-describing JSON header line, then one JSON record
per frame.

Motion files (`descriptor`) and keypoint files (`refine`) share this
container and differ only in the header's format name and in what a frame
record holds.
"""

from __future__ import annotations

import json

from .errors import FileFormat


def header(fmt: str) -> dict:
    return {
        "format": fmt,
        "version": 1,
        "coordinate_convention": {"handedness": "right", "up": "y"},
        "units": "meters",
    }


class ReplayWriter:
    """Writes the header for fmt, then one line per write(record)."""

    def __init__(self, path, fmt: str):
        self._fh = open(path, "w")
        self.write(header(fmt))

    def write(self, record: dict):
        self._fh.write(json.dumps(record) + "\n")

    def close(self):
        self._fh.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def read_replay(path, fmt: str, parse):
    """parse(record) for every frame record of a fmt file, in order.

    A header of another format, or a line that is not JSON or that parse
    rejects with KeyError, TypeError or ValueError, raises FileFormat
    naming path:lineno. Blank lines are skipped.
    """
    frames = []
    with open(path) as fh:
        try:
            doc = json.loads(fh.readline())
        except json.JSONDecodeError as e:
            raise FileFormat(f"{path}:1: bad header ({e})") from None
        if not isinstance(doc, dict) or doc.get("format") != fmt:
            raise FileFormat(f"{path}: not an {fmt} replay file")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                frames.append(parse(json.loads(line)))
            except (KeyError, TypeError, ValueError) as e:
                raise FileFormat(f"{path}:{lineno}: bad frame record ({e})") from None
    return frames
