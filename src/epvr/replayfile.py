"""Replay files: a self-describing JSON header line, then one JSON record
per frame; docs/replay.md gives both formats.

Motion files (device poses, optionally with the ground-truth pose) and
keypoint files share this container. This is the only module that knows a
record key: writers take typed values and readers return them.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import core
from .errors import FileFormat

MOTION_FORMAT = "epvr-motion"
KEYPOINT_FORMAT = "epvr-keypoints"
_DEVICES = ("head", "left", "right")


def header(fmt: str) -> dict:
    return {
        "format": fmt,
        "version": 1,
        "coordinate_convention": {"handedness": "right", "up": "y"},
        "units": "meters",
    }


def write_replay(path, fmt: str, records):
    """Write the header for fmt, then one line per record."""
    with open(path, "w") as fh:
        fh.write(json.dumps(header(fmt)) + "\n")
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


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


def _floats(values):
    return np.asarray(values, dtype=np.float64).tolist()


def _array(values, shape: tuple, name: str):
    """values as a float array of shape; a None length (J) takes any length."""
    array = np.array(values, dtype=np.float64)
    if array.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, array.shape)):
        want = tuple("J" if n is None else n for n in shape)
        raise ValueError(f"{name} must have shape {want}, not {array.shape}")
    return array


def _time(rec) -> float:
    t = rec["t"]
    if isinstance(t, bool) or not isinstance(t, (int, float)) or not math.isfinite(t):
        raise ValueError(f"t must be a finite number, not {t!r}")
    return float(t)


def motion_record(head, left, right, gt=None) -> dict:
    """One motion file frame record; gt is the ground-truth pose
    (rotations (J, 6), positions (J, 3)) or None."""
    rec = {"t": float(head.timestamp)}
    for name, pose in zip(_DEVICES, (head, left, right)):
        rec[name] = {"p": _floats(pose.position), "r6": _floats(pose.orientation),
                     "v": _floats(pose.linear_velocity), "w6": _floats(pose.angular_velocity)}
    if gt is not None:
        rec["gt"] = {"r6": _floats(gt[0]), "p": _floats(gt[1])}
    return rec


def read_motion_file(path, joints=None):
    """Load every frame: list of (head, left, right, gt) tuples; gt is
    (rotations (J, 6), positions (J, 3)), or None for a record without one.
    J must equal joints unless that is None."""

    def frame(rec):
        t = _time(rec)
        poses = [core.DevicePose(t, d["p"], d["r6"], d["v"], d["w6"])
                 for d in (rec[name] for name in _DEVICES)]
        gt = None
        if "gt" in rec:
            rotations = _array(rec["gt"]["r6"], (joints, 6), "gt r6")
            gt = (rotations, _array(rec["gt"]["p"], (len(rotations), 3), "gt p"))
        return (*poses, gt)

    return read_replay(path, MOTION_FORMAT, frame)


def keypoint_record(t, positions, visibility) -> dict:
    """One keypoint file frame record: positions (J, 3), visibility (J,)."""
    return {"t": float(t), "Z": _floats(positions), "zeta": _floats(visibility)}


def read_keypoint_file(path, joints=None):
    """Load every frame: list of (t, positions (J, 3), visibility (J,))
    tuples. J must equal joints unless that is None."""

    def frame(rec):
        t, z = _time(rec), _array(rec["Z"], (joints, 3), "Z")
        return t, z, _array(rec["zeta"], (len(z),), "zeta")

    return read_replay(path, KEYPOINT_FORMAT, frame)
