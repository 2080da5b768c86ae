"""Per-frame 72-D headset/controller motion descriptors and temporal windows.

Descriptor layout (72 entries):

    [ g_head(18) | g_left(18) | g_right(18) | r_left(9) | r_right(9) ]

where each global block g = [position(3), rot6d(6), lin_vel(3), rot6d_rate(6)]
and each relative block r = [position(3), rot6d(6)] expressed in the
headset frame.
"""

from __future__ import annotations

import numpy as np

from . import core
from .errors import NonFiniteInput, StaleFrame, TimestampSkew

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
    # the timestamps, then the three global blocks in layout order
    values = np.concatenate((
        ts, head.position, head.orientation, head.linear_velocity, head.angular_velocity,
        left.position, left.orientation, left.linear_velocity, left.angular_velocity,
        right.position, right.orientation, right.linear_velocity, right.angular_velocity))
    # before any arithmetic, which would turn a NaN or inf into a numpy warning
    if not np.isfinite(values).all():
        raise NonFiniteInput("device poses carry a NaN or infinite value")
    if max(ts) - min(ts) > SYNC_TOLERANCE:
        raise TimestampSkew(f"device timestamps diverge: {ts}")
    out = np.empty(DESCRIPTOR_DIM)
    out[:G_RIGHT.stop] = values[len(ts):]
    # one global block per device; the orientations are slots 3:9 of each
    rots = core.rot6d_to_matrix(out[:G_RIGHT.stop].reshape(3, -1)[:, 3:9])
    head_rot_t = rots[0].T
    for slot, pose, rot in zip((R_LEFT, R_RIGHT), (left, right), rots[1:]):
        block = out[slot]
        block[0:3] = head_rot_t @ (pose.position - head.position)
        rel = head_rot_t @ rot  # orthonormal product: extract 6D directly
        block[3:6] = rel[:, 0]
        block[6:9] = rel[:, 1]
    return out


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

