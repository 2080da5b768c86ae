"""Pose metrics and a synthetic ground-truth generator.

Metrics follow the usual conventions: position errors in centimeters,
rotation errors in degrees, Procrustes alignment is the full similarity
(rotation + translation + uniform scale) solved in closed form.

The generator drives a skeleton from a table of parametric sinusoidal
motions (static / walk / squat / kick), each giving per frame the local
rotations of the joints it moves and the root position. The rest of a
sequence is built in one pass over whole-sequence arrays: one batched
forward-kinematics call, device poses on the head and wrist joints with
finite-difference velocities, and per-joint visibility from the joints
seen through a downward-facing head camera. Joint counts and indices come
from the kinematic tree (the shipped 22-joint one by default), and MPJPE-U
/ MPJPE-L split it at the spine1 subtree. It is bit-reproducible for a
fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import core, kinematics
from .errors import DegenerateCloud, NotARotation, ShapeError, UnknownMotionKind

M_TO_CM = 100.0


def body_halves(tree: core.KinematicTree):
    """Ascending joint indices (upper, lower): the upper body is the spine1
    subtree, the lower body every other joint."""
    # spine1's subtree: the joints whose chain holds the bone into spine1
    upper = tree.chain[:, tree.joint_index("spine1") - 1] > 0
    return tuple(np.flatnonzero(upper).tolist()), tuple(np.flatnonzero(~upper).tolist())


def mpjpe(pred, gt, joints=None) -> float:
    """Mean per-joint position error in centimeters."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape or pred.ndim != 2 or pred.shape[1] != 3:
        raise ShapeError(f"point sets must share (J, 3) shape, got {pred.shape} vs {gt.shape}")
    if joints is not None:
        pred = pred[list(joints)]
        gt = gt[list(joints)]
    return float(np.mean(np.linalg.norm(pred - gt, axis=1))) * M_TO_CM


def similarity_align(src, dst):
    """Closed-form similarity (scale, rotation, translation) mapping src onto dst.

    Least-squares optimal; raises DegenerateCloud when dst has no spread.
    """
    src = np.asarray(src, dtype=np.float64)
    dst = np.asarray(dst, dtype=np.float64)
    n = src.shape[0]
    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    sc = src - mu_s
    dc = dst - mu_d
    var_d = float(np.einsum("ij,ij->", dc, dc)) / n
    if var_d < 1e-18:
        raise DegenerateCloud("reference cloud has zero spread")
    var_s = float(np.einsum("ij,ij->", sc, sc)) / n
    if var_s < 1e-18:
        return 1.0, np.eye(3), mu_d - mu_s
    cov = dc.T @ sc / n
    u, d, vt = np.linalg.svd(cov)
    sign = np.ones(3)
    if np.linalg.det(u) * np.linalg.det(vt) < 0.0:
        sign[2] = -1.0
    rot = u @ np.diag(sign) @ vt
    scale = float(np.dot(d, sign)) / var_s
    trans = mu_d - scale * rot @ mu_s
    return scale, rot, trans


def pa_mpjpe(pred, gt) -> float:
    """Procrustes-aligned MPJPE (cm): similarity-align pred to gt first."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    scale, rot, trans = similarity_align(pred, gt)
    aligned = scale * pred @ rot.T + trans
    return mpjpe(aligned, gt)


def _as_matrices(rotations):
    r = np.asarray(rotations, dtype=np.float64)
    if r.ndim == 2 and r.shape[1] == 6:
        return core.rot6d_to_matrix(r)
    if r.ndim == 3 and r.shape[1:] == (3, 3):
        gram = r @ np.swapaxes(r, -1, -2)
        if not np.all(np.abs(gram - np.eye(3)) <= 1e-6):
            raise NotARotation("rotation input is not orthonormal within 1e-6")
        return r
    raise ShapeError(f"rotations must be (J, 6) or (J, 3, 3), got {r.shape}")


def mpjre(pred_rotations, gt_rotations) -> float:
    """Mean per-joint rotation error in degrees."""
    pred = _as_matrices(pred_rotations)
    gt = _as_matrices(gt_rotations)
    if pred.shape != gt.shape:
        raise ShapeError("rotation sets must have matching joint counts")
    return float(np.mean(core.geodesic_angle(pred, gt)))


# ---------------------------------------------------------------------------
# camera


@dataclass(frozen=True)
class CameraModel:
    """Pinhole intrinsics plus the rigid head-to-camera mount transform."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    mount_rotation: np.ndarray
    mount_position: np.ndarray

    def __post_init__(self):
        if self.fx <= 0 or self.fy <= 0 or self.width <= 0 or self.height <= 0:
            raise ValueError("camera intrinsics and resolution must be positive")
        object.__setattr__(
            self, "mount_rotation", np.asarray(self.mount_rotation, dtype=np.float64).reshape(3, 3)
        )
        object.__setattr__(
            self, "mount_position", np.asarray(self.mount_position, dtype=np.float64).reshape(3)
        )


def default_camera() -> CameraModel:
    """320x256 camera pitched straight down, 5 cm below the head joint."""
    # camera axes in head coordinates: x right, y backward, z down
    mount_rot = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, -1.0], [0.0, 1.0, 0.0]])
    return CameraModel(
        fx=200.0, fy=200.0, cx=160.0, cy=128.0, width=320, height=256,
        mount_rotation=mount_rot, mount_position=np.array([0.0, -0.05, 0.0]),
    )


def world_to_camera(positions, head_position, head_orientation, cam: CameraModel):
    """Express world points (..., J, 3) in the camera frame attached to the
    head pose: its position (..., 3) and 6D orientation (..., 6)."""
    positions = np.asarray(positions, dtype=np.float64)
    r_head = core.rot6d_to_matrix(head_orientation)
    in_head = (positions - np.asarray(head_position)[..., None, :]) @ r_head
    return (in_head - cam.mount_position) @ cam.mount_rotation


def _pixels(pts, cam: CameraModel):
    """Pinhole pixels (..., J, 2) of camera-frame points and whether each
    lands in the image in front of the camera (..., J)."""
    z = pts[..., 2]
    safe_z = np.where(z == 0.0, 1e-12, z)
    u = cam.fx * pts[..., 0] / safe_z + cam.cx
    v = cam.fy * pts[..., 1] / safe_z + cam.cy
    visible = (z > 0.0) & (u >= 0.0) & (u < cam.width) & (v >= 0.0) & (v < cam.height)
    return np.stack([u, v], axis=-1), visible


# ---------------------------------------------------------------------------
# synthetic sequences

_X = np.array([1.0, 0.0, 0.0])
_Y = np.array([0.0, 1.0, 0.0])
_Z = np.array([0.0, 0.0, 1.0])

_STANDING_HEIGHT = 0.96  # m, root height of the upright skeleton
# shoulder rotations bringing the T-pose arms to the body's sides
_ARMS_DOWN = {"left_shoulder": core.axis_angle_matrix(_Z, -1.3),
              "right_shoulder": core.axis_angle_matrix(_Z, 1.3)}


@dataclass(frozen=True)
class SyntheticSequence:
    """Per-frame ground truth for replay, evaluation, and serving tests."""

    timestamps: np.ndarray
    head: list
    left: list
    right: list
    rotations: np.ndarray  # (T, J, 6), root first
    positions: np.ndarray
    keypoints_cam: np.ndarray
    visibility: np.ndarray
    rate: float
    tree: core.KinematicTree = field(repr=False)
    camera: CameraModel = field(repr=False)

    @property
    def frame_count(self):
        return len(self.timestamps)


def _rx(angle):
    return core.axis_angle_matrix(_X, angle)


def _static(t, phase, a):
    return {}, np.array([0.0, _STANDING_HEIGHT, 0.0])


def _walk(t, phase, a):
    swing = a["leg_amp"] * math.sin(phase)
    knee_l = a["knee_amp"] * max(0.0, math.sin(phase + math.pi / 2.0))
    knee_r = a["knee_amp"] * max(0.0, math.sin(phase + 3.0 * math.pi / 2.0))
    arm = a["arm_amp"] * math.sin(phase)
    rots = {
        "left_hip": _rx(swing), "right_hip": _rx(-swing),
        "left_knee": _rx(-knee_l), "right_knee": _rx(-knee_r),
        "left_shoulder": _ARMS_DOWN["left_shoulder"] @ _rx(-arm),
        "right_shoulder": _ARMS_DOWN["right_shoulder"] @ _rx(arm),
        "spine1": core.axis_angle_matrix(_Y, 0.06 * math.sin(phase)),
        "neck": core.axis_angle_matrix(_Y, -0.04 * math.sin(phase)),
    }
    root = [0.02 * math.sin(phase / 2.0), _STANDING_HEIGHT + 0.015 * abs(math.cos(phase)),
            a["speed"] * t]
    return rots, np.array(root)


def _squat(t, phase, a):
    depth = a["squat_amp"] * 0.5 * (1.0 - math.cos(phase))
    rots = {
        "left_hip": _rx(-depth), "right_hip": _rx(-depth),
        "left_knee": _rx(1.8 * depth), "right_knee": _rx(1.8 * depth),
        "left_ankle": _rx(-0.8 * depth), "right_ankle": _rx(-0.8 * depth),
        "left_shoulder": _ARMS_DOWN["left_shoulder"] @ _rx(-0.9 * depth),
        "right_shoulder": _ARMS_DOWN["right_shoulder"] @ _rx(-0.9 * depth),
        "spine1": _rx(-0.25 * depth),
    }
    return rots, np.array([0.0, _STANDING_HEIGHT - 0.32 * depth, 0.0])


def _kick(t, phase, a):
    kick = a["kick_amp"] * max(0.0, math.sin(phase)) ** 2
    rots = {
        "right_hip": _rx(-kick), "right_knee": _rx(0.6 * kick * max(0.0, math.cos(phase))),
        "left_hip": _rx(0.15 * kick),
        "left_shoulder": _ARMS_DOWN["left_shoulder"] @ _rx(-0.3 * kick),
        "spine1": _rx(-0.1 * kick),
    }
    return rots, np.array([0.0, _STANDING_HEIGHT + 0.01 * math.sin(phase), 0.0])


# Each motion kind: (t, phase, amplitudes) -> (local rotation matrices of
# the joints it moves, by name, and the root position). Joints it does not
# name keep the arms-down rest pose.
_MOTIONS = {"static": _static, "walk": _walk, "squat": _squat, "kick": _kick}
MOTION_KINDS = tuple(_MOTIONS)


def generate_sequence(kind: str, duration: float, rate: float, seed: int = 0,
                      tree: core.KinematicTree | None = None) -> SyntheticSequence:
    """Deterministic synthetic motion with full ground truth annotations."""
    if kind not in _MOTIONS:
        raise UnknownMotionKind(f"unknown motion kind {kind!r}")
    if duration <= 0.0 or rate <= 0.0:
        raise ValueError("duration and rate must be positive")
    tree = tree or core.default_tree()
    camera = default_camera()
    rng = np.random.default_rng(seed)
    params = {
        "leg_amp": 0.45 * (1.0 + 0.2 * rng.uniform(-1, 1)),
        "knee_amp": 0.5 * (1.0 + 0.2 * rng.uniform(-1, 1)),
        "arm_amp": 0.3 * (1.0 + 0.2 * rng.uniform(-1, 1)),
        "squat_amp": 0.9 * (1.0 + 0.15 * rng.uniform(-1, 1)),
        "kick_amp": 1.0 * (1.0 + 0.15 * rng.uniform(-1, 1)),
        "speed": 0.9 * (1.0 + 0.2 * rng.uniform(-1, 1)),
        "freq": 0.9 * (1.0 + 0.2 * rng.uniform(-1, 1)),
        "phase0": rng.uniform(0.0, 2.0 * math.pi),
    }
    frame_count = max(1, int(round(duration * rate)))
    timestamps = np.arange(frame_count, dtype=np.float64) / rate

    # the motions run per frame on scalars, as math.sin and np.sin can differ
    # in the last bit and sequences are pinned bit for bit; everything after
    # them runs on whole-sequence arrays
    motion = _MOTIONS[kind]
    local = np.empty((frame_count, tree.joint_count, 3, 3))
    root = np.empty((frame_count, 3))
    eye = np.eye(3)
    for i, t in enumerate(timestamps):
        phase = 2.0 * math.pi * params["freq"] * t + params["phase0"]
        moved, root[i] = motion(t, phase, params)
        rots = {**_ARMS_DOWN, **moved}
        local[i] = [rots.get(name, eye) for name in tree.names]
    rotations = core.matrix_to_rot6d(local)
    positions, world = kinematics.forward_chain(rotations, tree, root, anchor_joint=0)

    # device rows (T, device, ...); velocities are finite differences, zero
    # on the first frame
    joints = core.tracked_joints(tree)
    device_position = positions[:, joints]
    device_orientation = core.matrix_to_rot6d(world[:, joints])
    dt = np.diff(timestamps)[:, None, None]
    linear, angular = (np.concatenate([np.zeros_like(x[:1]), np.diff(x, axis=0) / dt])
                       for x in (device_position, device_orientation))
    head, left, right = ([core.DevicePose(*row) for row in zip(
        timestamps, device_position[:, d], device_orientation[:, d], linear[:, d], angular[:, d])]
        for d in range(len(joints)))

    keypoints_cam = world_to_camera(positions, device_position[:, 0],
                                    device_orientation[:, 0], camera)
    _, visibility = _pixels(keypoints_cam, camera)

    return SyntheticSequence(
        timestamps=timestamps, head=head, left=left, right=right, rotations=rotations,
        positions=positions, keypoints_cam=keypoints_cam, visibility=visibility,
        rate=rate, tree=tree, camera=camera,
    )


def noisy_keypoints(seq: SyntheticSequence, sigma: float, seed: int = 0):
    """Measurement-noise model for the egocentric keypoint stream.

    Visible joints get zero-mean Gaussian noise and a high visibility
    score; out-of-view joints get a large bogus offset (a false-positive
    detection) and a low score. Returns (Z (T,J,3), zeta (T,J)).
    """
    false_positive_sigma = 10.0 * sigma if sigma > 0 else 0.25
    rng = np.random.default_rng(seed)
    z = seq.keypoints_cam.copy()
    t, j, _ = z.shape
    z += rng.normal(0.0, sigma, size=z.shape) if sigma > 0 else 0.0
    zeta = np.where(
        seq.visibility,
        rng.uniform(0.85, 1.0, size=(t, j)),
        rng.uniform(0.0, 0.3, size=(t, j)),
    )
    bogus = rng.normal(0.0, false_positive_sigma, size=z.shape)
    z = np.where(seq.visibility[:, :, None], z, z + bogus)
    return z, zeta


def clean_keypoints(seq: SyntheticSequence):
    """Ground-truth keypoints with binary visibility scores."""
    return seq.keypoints_cam.copy(), seq.visibility.astype(np.float64)


def summarize(values) -> tuple:
    values = np.asarray(values, dtype=np.float64)
    return float(values.mean()), float(values.std())


def render_report(metrics: dict) -> str:
    """One metric per line: name, mean, standard deviation."""
    lines = []
    for name, value in metrics.items():
        if isinstance(value, tuple):
            lines.append(f"{name} {value[0]:.6f} {value[1]:.6f}")
        else:
            lines.append(f"{name} {value:.6f}")
    return "\n".join(lines) + "\n"
