"""Per-frame 72-D headset/controller motion descriptors and temporal windows.

Descriptor layout (72 entries):

    [ g_head(18) | g_left(18) | g_right(18) | r_left(9) | r_right(9) ]

where each global block g = [position(3), rot6d(6), lin_vel(3), rot6d_rate(6)]
and each relative block r = [position(3), rot6d(6)] expressed in the
headset frame.
"""

from __future__ import annotations

import numpy as np

from . import core, replayfile
from .errors import NonFiniteInput, NonMonotonicTime, StaleFrame, TimestampSkew

DESCRIPTOR_DIM = 72
SYNC_TOLERANCE = 1e-4  # seconds between the three device timestamps

# slot ranges of the layout, usable to slice descriptors back apart
G_HEAD = slice(0, 18)
G_LEFT = slice(18, 36)
G_RIGHT = slice(36, 54)
R_LEFT = slice(54, 63)
R_RIGHT = slice(63, 72)


def build_descriptor(head: core.DevicePose, left: core.DevicePose, right: core.DevicePose):
    """Concatenate global and head-relative motion blocks into one 72-vector.

    Raises TimestampSkew when the device timestamps diverge and
    NonFiniteInput when a timestamp or any entry is NaN or infinite.
    """
    ts = (head.timestamp, left.timestamp, right.timestamp)
    out = np.empty(DESCRIPTOR_DIM)
    for slot, pose in zip((G_HEAD, G_LEFT, G_RIGHT), (head, left, right)):
        block = out[slot]
        block[0:3] = pose.position
        block[3:9] = pose.orientation
        block[9:12] = pose.linear_velocity
        block[12:18] = pose.angular_velocity
    # before any arithmetic, which would turn a NaN or inf into a numpy warning
    if not np.isfinite(np.concatenate([ts, out[:G_RIGHT.stop]])).all():
        raise NonFiniteInput("device poses carry a NaN or infinite value")
    if max(ts) - min(ts) > SYNC_TOLERANCE:
        raise TimestampSkew(f"device timestamps diverge: {ts}")
    rots = core.rot6d_to_matrix(
        np.stack([head.orientation, left.orientation, right.orientation])
    )
    head_rot_t = rots[0].T
    for slot, pose, rot in zip((R_LEFT, R_RIGHT), (left, right), rots[1:]):
        block = out[slot]
        block[0:3] = head_rot_t @ (pose.position - head.position)
        rel = head_rot_t @ rot  # orthonormal product: extract 6D directly
        block[3:6] = rel[:, 0]
        block[6:9] = rel[:, 1]
    return out


def derive_velocities(prev: core.DevicePose, curr: core.DevicePose) -> core.DevicePose:
    """Fill velocity fields by finite differences over two consecutive poses.

    The angular rate is the componentwise rate of the 6D representation,
    matching the descriptor's rot6d_rate slots.
    """
    dt = curr.timestamp - prev.timestamp
    if dt <= 0.0:
        raise NonMonotonicTime(f"dt = {dt} between consecutive poses")
    v = (curr.position - prev.position) / dt
    w = (curr.orientation - prev.orientation) / dt
    return core.DevicePose(curr.timestamp, curr.position, curr.orientation, v, w)


class DescriptorWindow:
    """T-frame stack of descriptors ending at end_timestamp, owned by one
    session and updated in place by push_frame.

    Until T distinct frames have been pushed, the earliest frame is
    replicated backward so the window is always full. end_timestamp is
    None until the first push.
    """

    def __init__(self, window_length: int):
        self.frames = np.empty((window_length, DESCRIPTOR_DIM))
        self.end_timestamp = None


def push_frame(window: DescriptorWindow, descriptor, timestamp: float):
    """Append one frame in place with sliding-window semantics.

    The first push fills every row; later pushes drop the oldest row.
    Raises StaleFrame, leaving the window unchanged, when timestamp is not
    newer than the window end.
    """
    d = np.asarray(descriptor, dtype=np.float64)
    if d.shape != (DESCRIPTOR_DIM,):
        raise ValueError(f"descriptor must have {DESCRIPTOR_DIM} entries, got {d.shape}")
    if window.end_timestamp is None:
        window.frames[:] = d
    elif timestamp <= window.end_timestamp:
        raise StaleFrame(
            f"frame at {timestamp} not newer than window end {window.end_timestamp}"
        )
    else:
        window.frames[:-1] = window.frames[1:]
        window.frames[-1] = d
    window.end_timestamp = timestamp


# ---------------------------------------------------------------------------
# Motion replay files (see replayfile). Extra keys on frame records (e.g.
# ground-truth pose annotations written by the synthetic generator) are
# preserved for other readers.

MOTION_FORMAT = "epvr-motion"


def _pose_to_record(pose: core.DevicePose):
    return {
        "p": [float(v) for v in pose.position],
        "r6": [float(v) for v in pose.orientation],
        "v": [float(v) for v in pose.linear_velocity],
        "w6": [float(v) for v in pose.angular_velocity],
    }


def _pose_from_record(t, rec):
    return core.DevicePose(t, rec["p"], rec["r6"], rec["v"], rec["w6"])


def motion_record(head, left, right, extra=None) -> dict:
    """One motion file frame record; extra keys are merged in."""
    rec = {
        "t": float(head.timestamp),
        "head": _pose_to_record(head),
        "left": _pose_to_record(left),
        "right": _pose_to_record(right),
    }
    if extra:
        rec.update(extra)
    return rec


def _motion_frame(rec):
    t = rec["t"]
    return (
        _pose_from_record(t, rec["head"]),
        _pose_from_record(t, rec["left"]),
        _pose_from_record(t, rec["right"]),
        rec,
    )


def read_motion_file(path):
    """Load every frame: list of (head, left, right, raw_record) tuples."""
    return replayfile.read_replay(path, MOTION_FORMAT, _motion_frame)
