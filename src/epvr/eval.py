"""Pose metrics and a synthetic ground-truth generator.

Metrics follow the usual conventions: position errors in centimeters,
rotation errors in degrees, Procrustes alignment is the full similarity
(rotation + translation + uniform scale) solved in closed form.

The generator drives a skeleton with parametric sinusoidal schedules
(static / walk / squat / kick) that name the joints they move, derives
device poses from the forward-kinematics head and wrist joints, and labels
per-joint visibility by projecting through a downward-facing head camera.
Joint counts and indices come from the kinematic tree (the shipped
22-joint one by default), and MPJPE-U / MPJPE-L split it at the spine1
subtree. It is bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import core, descriptor, kinematics
from .errors import DegenerateCloud, NotARotation, ShapeError, UnknownMotionKind

M_TO_CM = 100.0


def body_halves(tree: core.KinematicTree):
    """Ascending joint indices (upper, lower): the upper body is the spine1
    subtree, the lower body every other joint."""
    upper = np.zeros(tree.joint_count, dtype=bool)
    upper[tree.joint_index("spine1")] = True
    for j in range(1, tree.joint_count):
        upper[j] |= upper[tree.parent[j]]
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


def pa_mpjpe(pred, gt, joints=None) -> float:
    """Procrustes-aligned MPJPE (cm): similarity-align pred to gt first."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if joints is not None:
        pred = pred[list(joints)]
        gt = gt[list(joints)]
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


def world_to_camera(positions, head: core.DevicePose, cam: CameraModel):
    """Express world points in the camera frame attached to the head pose."""
    positions = np.asarray(positions, dtype=np.float64)
    r_head = core.rot6d_to_matrix(head.orientation)
    in_head = (positions - head.position) @ r_head
    return (in_head - cam.mount_position) @ cam.mount_rotation


def project_joints(positions, head: core.DevicePose, cam: CameraModel):
    """Pinhole projection of world joints through the head-mounted camera.

    Returns (uv (J,2), depth (J,), visible (J,) bool). Joints behind the
    camera keep their coordinates but are flagged invisible.
    """
    pts = world_to_camera(positions, head, cam)
    z = pts[:, 2]
    safe_z = np.where(z == 0.0, 1e-12, z)
    u = cam.fx * pts[:, 0] / safe_z + cam.cx
    v = cam.fy * pts[:, 1] / safe_z + cam.cy
    visible = (z > 0.0) & (u >= 0.0) & (u < cam.width) & (v >= 0.0) & (v < cam.height)
    return np.stack([u, v], axis=1), z, visible


# ---------------------------------------------------------------------------
# synthetic sequences

MOTION_KINDS = ("static", "walk", "squat", "kick")

_X = np.array([1.0, 0.0, 0.0])
_Y = np.array([0.0, 1.0, 0.0])
_Z = np.array([0.0, 0.0, 1.0])

_L_SHOULDER, _R_SHOULDER = "left_shoulder", "right_shoulder"
_L_HIP, _R_HIP = "left_hip", "right_hip"
_L_KNEE, _R_KNEE = "left_knee", "right_knee"
_L_ANKLE, _R_ANKLE = "left_ankle", "right_ankle"
_SPINE1, _NECK = "spine1", "neck"


@dataclass(frozen=True)
class SyntheticSequence:
    """Per-frame ground truth for replay, evaluation, and serving tests."""

    timestamps: np.ndarray
    head: list
    left: list
    right: list
    poses: list
    positions: np.ndarray
    keypoints_cam: np.ndarray
    visibility: np.ndarray
    rate: float
    tree: core.KinematicTree = field(repr=False, default=None)
    camera: CameraModel = field(repr=False, default=None)

    @property
    def frame_count(self):
        return len(self.timestamps)


def _arms_down(side):
    """Shoulder rotation bringing a T-pose arm to the body's side."""
    angle = -1.3 if side == "left" else 1.3
    return core.axis_angle_matrix(_Z, angle)


def _schedule(kind, phase, rng_params, tree: core.KinematicTree):
    """Local rotation matrices (J, 3, 3) of the tree's joints for one frame
    of a motion kind; joints the schedule does not name keep the identity."""
    a = rng_params
    rots = {_L_SHOULDER: _arms_down("left"), _R_SHOULDER: _arms_down("right")}
    if kind == "walk":
        swing = a["leg_amp"] * math.sin(phase)
        rots[_L_HIP] = core.axis_angle_matrix(_X, swing)
        rots[_R_HIP] = core.axis_angle_matrix(_X, -swing)
        knee_l = a["knee_amp"] * max(0.0, math.sin(phase + math.pi / 2.0))
        knee_r = a["knee_amp"] * max(0.0, math.sin(phase + 3.0 * math.pi / 2.0))
        rots[_L_KNEE] = core.axis_angle_matrix(_X, -knee_l)
        rots[_R_KNEE] = core.axis_angle_matrix(_X, -knee_r)
        arm = a["arm_amp"] * math.sin(phase)
        rots[_L_SHOULDER] = rots[_L_SHOULDER] @ core.axis_angle_matrix(_X, -arm)
        rots[_R_SHOULDER] = rots[_R_SHOULDER] @ core.axis_angle_matrix(_X, arm)
        rots[_SPINE1] = core.axis_angle_matrix(_Y, 0.06 * math.sin(phase))
        rots[_NECK] = core.axis_angle_matrix(_Y, -0.04 * math.sin(phase))
    elif kind == "squat":
        depth = a["squat_amp"] * 0.5 * (1.0 - math.cos(phase))
        rots[_L_HIP] = core.axis_angle_matrix(_X, -depth)
        rots[_R_HIP] = core.axis_angle_matrix(_X, -depth)
        rots[_L_KNEE] = core.axis_angle_matrix(_X, 1.8 * depth)
        rots[_R_KNEE] = core.axis_angle_matrix(_X, 1.8 * depth)
        rots[_L_ANKLE] = core.axis_angle_matrix(_X, -0.8 * depth)
        rots[_R_ANKLE] = core.axis_angle_matrix(_X, -0.8 * depth)
        reach = 0.9 * depth
        rots[_L_SHOULDER] = rots[_L_SHOULDER] @ core.axis_angle_matrix(_X, -reach)
        rots[_R_SHOULDER] = rots[_R_SHOULDER] @ core.axis_angle_matrix(_X, -reach)
        rots[_SPINE1] = core.axis_angle_matrix(_X, -0.25 * depth)
    elif kind == "kick":
        kick = a["kick_amp"] * max(0.0, math.sin(phase)) ** 2
        rots[_R_HIP] = core.axis_angle_matrix(_X, -kick)
        rots[_R_KNEE] = core.axis_angle_matrix(_X, 0.6 * kick * max(0.0, math.cos(phase)))
        rots[_L_HIP] = core.axis_angle_matrix(_X, 0.15 * kick)
        arm = 0.3 * kick
        rots[_L_SHOULDER] = rots[_L_SHOULDER] @ core.axis_angle_matrix(_X, -arm)
        rots[_SPINE1] = core.axis_angle_matrix(_X, -0.1 * kick)
    elif kind != "static":
        raise UnknownMotionKind(f"unknown motion kind {kind!r}")
    return [rots.get(name, np.eye(3)) for name in tree.names]


def _root_position(kind, t, phase, a):
    base_y = 0.96
    if kind == "static":
        return np.array([0.0, base_y, 0.0])
    if kind == "walk":
        return np.array(
            [
                0.02 * math.sin(phase / 2.0),
                base_y + 0.015 * abs(math.cos(phase)),
                a["speed"] * t,
            ]
        )
    if kind == "squat":
        drop = a["squat_amp"] * 0.5 * (1.0 - math.cos(phase))
        return np.array([0.0, base_y - 0.32 * drop, 0.0])
    if kind == "kick":
        return np.array([0.0, base_y + 0.01 * math.sin(phase), 0.0])
    raise UnknownMotionKind(f"unknown motion kind {kind!r}")


def generate_sequence(kind: str, duration: float, rate: float, seed: int = 0,
                      tree: core.KinematicTree | None = None) -> SyntheticSequence:
    """Deterministic synthetic motion with full ground truth annotations."""
    if kind not in MOTION_KINDS:
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

    n = tree.joint_count
    poses = []
    positions = np.empty((frame_count, n, 3))
    device_joints = core.tracked_joints(tree)
    head_poses, left_poses, right_poses = devices = [], [], []

    for i, t in enumerate(timestamps):
        phase = 2.0 * math.pi * params["freq"] * t + params["phase0"]
        if kind == "static":
            phase = params["phase0"]
        rots = _schedule(kind, phase, params, tree)
        pose = core.FullBodyPose(
            core.matrix_to_rot6d(rots[0]),
            np.stack([core.matrix_to_rot6d(r) for r in rots[1:]]),
        )
        root_pos = _root_position(kind, 0.0 if kind == "static" else t, phase, params)
        pos, glob = kinematics.forward_chain(pose, tree, root_pos, anchor_joint=0)
        poses.append(pose)
        positions[i] = pos
        for joint, device in zip(device_joints, devices):
            device.append(core.DevicePose(t, pos[joint], core.matrix_to_rot6d(glob[joint])))

    # finite-difference velocities (first frame keeps zeros)
    for seq in devices:
        for i in range(len(seq) - 1, 0, -1):
            seq[i] = descriptor.derive_velocities(seq[i - 1], seq[i])

    keypoints_cam = np.empty_like(positions)
    visibility = np.empty((frame_count, n), dtype=bool)
    for i in range(frame_count):
        keypoints_cam[i] = world_to_camera(positions[i], head_poses[i], camera)
        _, _, visibility[i] = project_joints(positions[i], head_poses[i], camera)

    return SyntheticSequence(
        timestamps=timestamps, head=head_poses, left=left_poses, right=right_poses,
        poses=poses, positions=positions, keypoints_cam=keypoints_cam, visibility=visibility,
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
