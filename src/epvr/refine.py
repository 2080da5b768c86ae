"""Visibility-aware temporal refinement of 3D keypoint sequences.

Per joint, the visibility probability stream is smoothed by a one-Euro
filter, turned into a soft mask, and multiplied into the keypoint
coordinates. A KeypointStream refines each frame once as it arrives and
keeps the last `window` refined frames.

Two mask variants exist:

* literal:     mask = max(smoothed_visibility - 0.5, 0)   (range [0, 0.5])
* normalized:  mask = clamp(2 * literal, 0, 1)            (range [0, 1])

The literal variant attenuates even fully visible joints by 0.5; the
normalized variant passes them through unchanged. Downstream consumers
must pick one and stay with it.
"""

from __future__ import annotations

import numpy as np

from .errors import ShapeError
from .filtering import VectorFilterBank

MISSING_ZETA_DECAY = 0.9  # carried-over visibility kept per frame without keypoints


class KeypointStream:
    """Refined keypoint window of one stream, advanced one frame at a time.

    Owns the visibility filter bank, a (window, J, 3) buffer of refined
    frames in time order, and the last keypoints with their carried-over
    visibility. A frame without keypoints reuses the last positions with
    visibility decayed by MISSING_ZETA_DECAY. The visibility filter runs at
    the one-Euro defaults of filtering. Every frame is refined once,
    when it arrives, so the window equals a single full pass over the
    stream on every retained frame. Keypoints are checked by validated
    before the frame is stepped, so a refused frame leaves the stream as
    it was.
    """

    def __init__(self, joint_count: int, window: int):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.filters = VectorFilterBank(joint_count)
        self.refined = np.zeros((window, joint_count, 3))
        self.fill = 0
        self.last_z = None
        self.carry_zeta = None

    def validated(self, keypoints):
        """(z (J, 3), zeta (J,)) as float arrays; raises ShapeError on
        another shape, a non-finite z or a zeta outside [0, 1]."""
        j = self.filters.channels
        z, zeta = keypoints
        z = np.array(z, dtype=np.float64)
        zeta = np.array(zeta, dtype=np.float64)
        if z.shape != (j, 3):
            raise ShapeError(f"keypoints must be ({j}, 3), got {z.shape}")
        if zeta.shape != (j,):
            raise ShapeError(f"visibility must be ({j},), got {zeta.shape}")
        if not np.isfinite(z).all():
            raise ShapeError("keypoint coordinates must be finite")
        if not np.all((zeta >= 0.0) & (zeta <= 1.0)):
            raise ShapeError("visibility probabilities must lie in [0, 1]")
        return z, zeta

    def _step(self, t: float, keypoints, normalized: bool):
        """Refine the frame at time t; keypoints is a pair returned by
        validated, or None. Returns a copy of the refined window (oldest
        first), or None while no keypoints have arrived yet."""
        if keypoints is not None:
            z, zeta = keypoints
        elif self.last_z is not None:
            z, zeta = self.last_z, self.carry_zeta * MISSING_ZETA_DECAY
        else:
            return None
        mask = np.maximum(self.filters.step(zeta, t) - 0.5, 0.0)
        if normalized:
            mask = np.minimum(2.0 * mask, 1.0)
        if self.fill == len(self.refined):
            self.refined[:-1] = self.refined[1:]
        else:
            self.fill += 1
        self.refined[self.fill - 1] = z * mask[:, None]
        self.last_z, self.carry_zeta = z, zeta
        return self.refined[: self.fill].copy()


def refine(stream: KeypointStream, t: float, keypoints=None):
    """Literal-mask step: push one frame (keypoints from stream.validated,
    or None), return the refined window or None."""
    return stream._step(t, keypoints, normalized=False)


def refine_normalized(stream: KeypointStream, t: float, keypoints=None):
    """Normalized-mask step: fully visible joints pass unattenuated."""
    return stream._step(t, keypoints, normalized=True)

