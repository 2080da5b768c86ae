import hashlib
import math

import numpy as np
import pytest

from epvr import core, eval as evalmod, kinematics
from epvr.errors import DegenerateCloud, ShapeError, UnknownMotionKind

import oracles


def test_mpjpe_zero_on_equal():
    rng = np.random.default_rng(80)
    pts = rng.standard_normal((22, 3))
    assert evalmod.mpjpe(pts, pts) == 0.0


def test_mpjpe_uniform_offset():
    rng = np.random.default_rng(81)
    gt = rng.standard_normal((22, 3))
    pred = gt + np.array([0.01, 0.0, 0.0])
    assert abs(evalmod.mpjpe(pred, gt) - 1.0) < 1e-12


def test_mpjpe_matches_per_joint_oracle():
    rng = np.random.default_rng(82)
    pred, gt = rng.standard_normal((22, 3)), rng.standard_normal((22, 3))
    want = sum(
        math.sqrt(float((pred[j] - gt[j]) @ (pred[j] - gt[j]))) for j in range(22)
    ) / 22 * 100
    assert abs(evalmod.mpjpe(pred, gt) - want) < 1e-9


def test_mpjpe_shape_mismatch():
    with pytest.raises(ShapeError):
        evalmod.mpjpe(np.zeros((22, 3)), np.zeros((21, 3)))


def test_body_halves_split_the_default_tree_at_spine1():
    tree = core.default_tree()
    upper, lower = evalmod.body_halves(tree)
    assert upper == (3, 6, 9, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21)
    assert lower == (0, 1, 2, 4, 5, 7, 8, 10, 11)
    # every upper joint descends from spine1; no lower joint does
    spine1 = tree.joint_index("spine1")
    for j in range(tree.joint_count):
        k = j
        while k not in (spine1, core.ROOT_PARENT):
            k = tree.parent[k]
        assert (j in upper) == (k == spine1)


def test_pa_mpjpe_removes_similarity_transform():
    rng = np.random.default_rng(83)
    gt = rng.standard_normal((22, 3))
    rot = oracles.random_rotation(rng)
    pred = 2.0 * gt @ rot.T + np.array([0.3, -1.0, 0.5])
    assert evalmod.pa_mpjpe(pred, gt) < 1e-9
    assert evalmod.pa_mpjpe(gt, gt) < 1e-12


def test_pa_mpjpe_never_exceeds_mpjpe():
    rng = np.random.default_rng(84)
    for _ in range(200):
        gt = rng.standard_normal((22, 3))
        pred = gt + rng.normal(0, rng.uniform(0.001, 0.5), (22, 3))
        assert evalmod.pa_mpjpe(pred, gt) <= evalmod.mpjpe(pred, gt) + 1e-9


def test_pa_mpjpe_degenerate_reference():
    with pytest.raises(DegenerateCloud):
        evalmod.pa_mpjpe(np.random.default_rng(85).standard_normal((5, 3)), np.zeros((5, 3)))


def _rotvec_grid(center, span, steps):
    offsets = np.linspace(-span, span, steps)
    grid = np.stack(np.meshgrid(offsets, offsets, offsets, indexing="ij"), -1).reshape(-1, 3)
    return center + grid


def _rots_from_vecs(vecs):
    """Rotation matrices (N, 3, 3) of rotation vectors (N, 3), built through
    the oracle quaternion; a zero vector gives the identity."""
    angle = np.linalg.norm(vecs, axis=1)
    axis = vecs / np.where(angle < 1e-12, 1.0, angle)[:, None]
    half = angle / 2.0
    quat = np.concatenate([np.cos(half)[None], np.sin(half) * axis.T])
    return np.moveaxis(oracles.quat_to_matrix(quat), -1, 0)


def _grid_procrustes(pred, gt):
    """Brute-force similarity alignment: hierarchical rotation grid, with the
    closed-form least-squares scale/translation per candidate rotation.
    Candidates are ranked by the least-squares objective, the first of equal
    ones winning; the returned value is the mean per-joint error of the best
    alignment, in cm. Each level scores its 729 rotations at once."""
    pred_c = pred - pred.mean(axis=0)
    gt_c = gt - gt.mean(axis=0)
    denom = float(np.sum(pred_c * pred_c))

    best_vec, best_sse, best_val = np.zeros(3), np.inf, np.inf
    span = math.pi
    for level in range(9):
        vecs = _rotvec_grid(best_vec, span, 9)
        rotated = np.einsum("nij,kj->nki", _rots_from_vecs(vecs), pred_c)
        scale = np.einsum("nki,ki->n", rotated, gt_c) / denom
        res = scale[:, None, None] * rotated - gt_c
        sse = np.einsum("nki,nki->n", res, res)
        first = int(np.argmin(sse))
        if sse[first] < best_sse:
            best_sse, best_vec = sse[first], vecs[first]
            best_val = float(np.mean(np.linalg.norm(res[first], axis=1))) * 100.0
        span /= 4.0
    return best_val


def test_pa_mpjpe_matches_rotation_grid_oracle():
    rng = np.random.default_rng(86)
    for _ in range(8):
        gt = rng.standard_normal((5, 3)) * 0.2
        pred = gt + rng.normal(0, 0.05, (5, 3))
        got = evalmod.pa_mpjpe(pred, gt)
        want = _grid_procrustes(pred, gt)
        assert abs(got - want) < 1e-3


def test_mpjre_zero_on_identical():
    rng = np.random.default_rng(87)
    rots = np.stack([core.matrix_to_rot6d(oracles.random_rotation(rng)) for _ in range(22)])
    assert evalmod.mpjre(rots, rots) < 1e-5


def test_mpjre_uniform_ninety_degrees():
    rng = np.random.default_rng(88)
    gt = [oracles.random_rotation(rng) for _ in range(22)]
    quarter = oracles.quat_to_matrix(oracles.quat_from_axis_angle([1, 0, 0], np.pi / 2))
    pred = [g @ quarter for g in gt]
    got = evalmod.mpjre(np.stack(pred), np.stack(gt))
    assert abs(got - 90.0) < 1e-6


def test_mpjre_matches_quaternion_oracle():
    rng = np.random.default_rng(89)
    pred = [oracles.random_rotation(rng) for _ in range(22)]
    gt = [oracles.random_rotation(rng) for _ in range(22)]
    want = sum(oracles.quat_angle_deg(a, b) for a, b in zip(pred, gt)) / 22
    got = evalmod.mpjre(np.stack(pred), np.stack(gt))
    assert abs(got - want) < 1e-6


def _camera_pixels(positions, head, cam):
    """(uv, depth, visible) of world joints by the generator's own projection."""
    pts = evalmod.world_to_camera(positions, head.position, head.orientation, cam)
    uv, visible = evalmod._pixels(pts, cam)
    return uv, pts[..., 2], visible


def test_project_center_point():
    cam = evalmod.default_camera()
    head = core.DevicePose(0.0, [0, 0, 0], core.IDENTITY_6D)
    # a point 1 m along the camera's optical axis (straight down, through
    # the mount 5 cm below the head)
    world = cam.mount_position + cam.mount_rotation @ np.array([0.0, 0.0, 1.0])
    uv, depth, visible = _camera_pixels(world[None, :], head, cam)
    assert abs(uv[0, 0] - cam.cx) < 1e-9
    assert abs(uv[0, 1] - cam.cy) < 1e-9
    assert abs(depth[0] - 1.0) < 1e-12
    assert visible[0]


def test_project_behind_camera_invisible():
    cam = evalmod.default_camera()
    head = core.DevicePose(0.0, [0, 0, 0], core.IDENTITY_6D)
    world = cam.mount_position + cam.mount_rotation @ np.array([0.0, 0.0, -1.0])
    _, depth, visible = _camera_pixels(world[None, :], head, cam)
    assert depth[0] < 0
    assert not visible[0]


def test_project_matches_homogeneous_oracle():
    cam = evalmod.default_camera()
    rng = np.random.default_rng(90)
    head_rot = oracles.random_rotation(rng)
    head = core.DevicePose(0.0, rng.standard_normal(3), core.matrix_to_rot6d(head_rot))
    pts = rng.standard_normal((22, 3)) * 2.0
    uv, depth, visible = _camera_pixels(pts, head, cam)
    want_uv, want_depth, want_visible = oracles.project_joints(pts, head, cam)
    assert np.max(np.abs(depth - want_depth)) < 1e-9
    assert np.max(np.abs(uv - want_uv)) < 1e-6
    assert np.array_equal(visible, want_visible)


def test_generator_is_deterministic():
    a = evalmod.generate_sequence("walk", 1.0, 60.0, seed=5)
    b = evalmod.generate_sequence("walk", 1.0, 60.0, seed=5)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.keypoints_cam, b.keypoints_cam)
    assert np.array_equal(a.visibility, b.visibility)
    c = evalmod.generate_sequence("walk", 1.0, 60.0, seed=6)
    assert not np.array_equal(a.positions, c.positions)


def test_static_sequence_is_constant_with_zero_velocity():
    seq = evalmod.generate_sequence("static", 0.5, 60.0, seed=1)
    assert np.max(np.abs(seq.positions - seq.positions[0])) < 1e-12
    for pose_list in (seq.head, seq.left, seq.right):
        for pose in pose_list:
            assert np.allclose(pose.linear_velocity, 0.0, atol=1e-9)
            assert np.allclose(pose.angular_velocity, 0.0, atol=1e-9)


@pytest.mark.parametrize("kind", evalmod.MOTION_KINDS)
def test_generated_bones_stay_rigid(kind):
    seq = evalmod.generate_sequence(kind, 1.0, 30.0, seed=2)
    rest = oracles.rest_lengths(seq.tree)
    for i in range(seq.frame_count):
        _, lengths = kinematics.bone_vectors(seq.positions[i], seq.tree)
        assert np.max(np.abs(lengths - rest)) < 1e-9


def test_generated_projections_are_self_consistent():
    seq = evalmod.generate_sequence("squat", 1.0, 30.0, seed=3)
    cam = seq.camera
    for i in range(seq.frame_count):
        uv, depth, visible = oracles.project_joints(seq.positions[i], seq.head[i], cam)
        assert np.array_equal(visible, seq.visibility[i])
        # the camera-frame keypoints project to the same pixels and depths
        z = seq.keypoints_cam[i]
        assert np.max(np.abs(depth - z[:, 2])) < 1e-12
        pinhole = np.stack([cam.fx * z[:, 0] / z[:, 2] + cam.cx,
                            cam.fy * z[:, 1] / z[:, 2] + cam.cy], axis=1)
        assert np.max(np.abs(uv - pinhole)) < 1e-6


def test_device_poses_sit_on_their_joints():
    seq = evalmod.generate_sequence("kick", 1.0, 30.0, seed=4)
    head, left, right = core.tracked_joints(seq.tree)
    for i in range(seq.frame_count):
        assert np.array_equal(seq.head[i].position, seq.positions[i][head])
        assert np.array_equal(seq.left[i].position, seq.positions[i][left])
        assert np.array_equal(seq.right[i].position, seq.positions[i][right])


@pytest.mark.parametrize("kind", evalmod.MOTION_KINDS)
def test_generated_velocities_are_finite_differences(kind):
    seq = evalmod.generate_sequence(kind, 1.0, 30.0, seed=8)
    for device in (seq.head, seq.left, seq.right):
        for prev, curr in zip(device, device[1:]):
            dt = curr.timestamp - prev.timestamp
            assert np.array_equal(curr.linear_velocity, (curr.position - prev.position) / dt)
            assert np.array_equal(curr.angular_velocity,
                                  (curr.orientation - prev.orientation) / dt)


@pytest.mark.parametrize("duration", [0.001, 1.0])  # one frame, many frames
def test_generated_velocities_are_zero_on_the_first_frame(duration):
    seq = evalmod.generate_sequence("walk", duration, 60.0, seed=9)
    for device in (seq.head, seq.left, seq.right):
        assert np.array_equal(device[0].linear_velocity, np.zeros(3))
        assert np.array_equal(device[0].angular_velocity, np.zeros(6))


def test_generated_walk_carries_the_headset_forward_at_walking_speed():
    seq = evalmod.generate_sequence("walk", 2.0, 60.0, seed=10)
    forward = np.mean([pose.linear_velocity[2] for pose in seq.head[1:]])
    assert 0.65 < forward < 1.15  # 0.9 m/s +- 20 %, plus the torso sway


def _sequence_digest(seq):
    """sha256 over every generated array, in a fixed order."""
    h = hashlib.sha256()
    for arr in (seq.timestamps, seq.positions, seq.keypoints_cam, seq.visibility,
                seq.rotations):
        h.update(np.ascontiguousarray(arr).tobytes())
    for device in (seq.head, seq.left, seq.right):
        for p in device:
            h.update(np.concatenate([[p.timestamp], p.position, p.orientation,
                                     p.linear_velocity, p.angular_velocity]).tobytes())
    return h.hexdigest()


# keyed by kind, so that re-recording a digest keeps the test's name
SEQUENCE_DIGESTS = {
    "static": "9b171fcb8680d1dbfdd277b8e143f320dbdf7c46dc0b19f732085806273e4301",
    "walk": "1683be3ccbdad8b012c9f184035a44d975e03d1e13b7d9bdb2682e1dc3a698a9",
    "squat": "4a1a2a964e9669d091d8dc2fa0fa999351b5c9e19756c7b5655ccf493be7b549",
    "kick": "cb0e49de9deb5e50fa04b042684a8dc302071f720bce6f52103c13a0b425cf9e",
}


@pytest.mark.parametrize("kind", SEQUENCE_DIGESTS)
def test_generated_sequences_keep_their_bits(kind):
    """Pins the generator's output bit for bit: positions, camera keypoints,
    visibility, joint rotations and device rows of a 1.5 s sequence."""
    seq = evalmod.generate_sequence(kind, 1.5, 60.0, seed=7)
    assert _sequence_digest(seq) == SEQUENCE_DIGESTS[kind]


def test_unknown_motion_kind():
    with pytest.raises(UnknownMotionKind):
        evalmod.generate_sequence("моonwalk", 1.0, 60.0)


def test_noisy_keypoints_shapes_and_scores():
    seq = evalmod.generate_sequence("walk", 1.0, 30.0, seed=5)
    z, zeta = evalmod.noisy_keypoints(seq, sigma=0.02, seed=6)
    assert z.shape == seq.keypoints_cam.shape
    assert zeta.shape == seq.visibility.shape
    assert np.all(zeta[seq.visibility] >= 0.85)
    assert np.all(zeta[~seq.visibility] <= 0.3)
    # false positives: invisible joints get much larger offsets
    if np.any(~seq.visibility):
        err_visible = np.linalg.norm((z - seq.keypoints_cam)[seq.visibility], axis=-1).mean()
        err_invisible = np.linalg.norm((z - seq.keypoints_cam)[~seq.visibility], axis=-1).mean()
        assert err_invisible > err_visible


def test_summarize_and_render():
    mean, std = evalmod.summarize([1.0, 2.0, 3.0])
    assert mean == 2.0
    assert abs(std - math.sqrt(2.0 / 3.0)) < 1e-12
    text = evalmod.render_report({"mpjpe": (1.5, 0.25), "fps": 97.0})
    lines = text.strip().split("\n")
    assert lines[0].startswith("mpjpe 1.5")
    assert lines[1].startswith("fps 97")
