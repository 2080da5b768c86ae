import numpy as np
import pytest

from epvr import core
from epvr.errors import DegenerateRotation, NotARotation

import oracles


def test_identity_6d_decodes_to_identity():
    assert np.array_equal(core.rot6d_to_matrix([1, 0, 0, 0, 1, 0]), np.eye(3))


def test_scale_is_removed_by_normalization():
    assert np.allclose(core.rot6d_to_matrix([2, 0, 0, 0, 3, 0]), np.eye(3), atol=1e-15)


def test_rot6d_matches_step_by_step_gram_schmidt():
    rng = np.random.default_rng(11)
    for _ in range(200):
        r6 = rng.standard_normal(6) * rng.uniform(0.1, 5.0)
        got = core.rot6d_to_matrix(r6)
        want = oracles.gram_schmidt_6d(r6)
        assert np.max(np.abs(got - want)) < 1e-12


def test_rot6d_is_orthonormal_for_random_inputs():
    rng = np.random.default_rng(12)
    for _ in range(500):
        m = core.rot6d_to_matrix(rng.standard_normal(6))
        assert np.max(np.abs(m.T @ m - np.eye(3))) < 1e-6
        assert abs(np.linalg.det(m) - 1.0) < 1e-6


def test_rot6d_idempotent_on_orthonormal_input():
    rng = np.random.default_rng(13)
    r = oracles.random_rotation(rng)
    r6 = np.concatenate([r[:, 0], r[:, 1]])
    assert np.max(np.abs(core.rot6d_to_matrix(r6) - r)) < 1e-12


def test_rot6d_degenerate_inputs():
    with pytest.raises(DegenerateRotation):
        core.rot6d_to_matrix([0, 0, 0, 0, 1, 0])
    with pytest.raises(DegenerateRotation):
        core.rot6d_to_matrix([1, 0, 0, 2, 0, 0])  # parallel columns
    with pytest.raises(DegenerateRotation):
        core.rot6d_to_matrix([np.nan, 0, 0, 0, 1, 0])


def test_matrix_to_rot6d_identity():
    assert np.array_equal(core.matrix_to_rot6d(np.eye(3)), [1, 0, 0, 0, 1, 0])


def test_matrix_to_rot6d_is_first_two_columns():
    r = oracles.quat_to_matrix(oracles.quat_from_axis_angle([0, 0, 1], np.pi / 2))
    got = core.matrix_to_rot6d(r)
    assert np.allclose(got, np.concatenate([r[:, 0], r[:, 1]]), atol=1e-15)


def test_round_trip_is_identity_on_rotations():
    rng = np.random.default_rng(14)
    for _ in range(200):
        r = oracles.random_rotation(rng)
        back = core.rot6d_to_matrix(core.matrix_to_rot6d(r))
        assert np.max(np.abs(back - r)) < 1e-9


def test_matrix_to_rot6d_rejects_non_rotations():
    with pytest.raises(NotARotation):
        core.matrix_to_rot6d(np.eye(3) * 1.5)
    reflection = np.diag([1.0, 1.0, -1.0])
    with pytest.raises(NotARotation):
        core.matrix_to_rot6d(reflection)


def test_geodesic_angle_zero_on_equal_rotations():
    rng = np.random.default_rng(18)
    r = oracles.random_rotation(rng)
    assert core.geodesic_angle(r, r) < 1e-5


def test_geodesic_angle_quarter_turn():
    rx = oracles.quat_to_matrix(oracles.quat_from_axis_angle([1, 0, 0], np.pi / 2))
    assert abs(core.geodesic_angle(np.eye(3), rx) - 90.0) < 1e-9


def test_geodesic_angle_matches_quaternion_oracle():
    rng = np.random.default_rng(19)
    for _ in range(200):
        ra, rb = oracles.random_rotation(rng), oracles.random_rotation(rng)
        assert abs(core.geodesic_angle(ra, rb) - oracles.quat_angle_deg(ra, rb)) < 1e-6


def test_geodesic_angle_symmetric_and_triangle():
    rng = np.random.default_rng(20)
    for _ in range(100):
        ra, rb, rc = (oracles.random_rotation(rng) for _ in range(3))
        ab = core.geodesic_angle(ra, rb)
        ba = core.geodesic_angle(rb, ra)
        assert abs(ab - ba) < 1e-6
        assert ab <= core.geodesic_angle(ra, rc) + core.geodesic_angle(rc, rb) + 1e-6


def test_device_pose_is_immutable():
    p = core.DevicePose(0.0, [1, 2, 3], core.IDENTITY_6D)
    with pytest.raises(ValueError):
        p.position[0] = 5.0


def test_full_body_pose_is_one_frozen_rotations_array():
    rows = np.tile(core.IDENTITY_6D, (3, 1))
    pose = core.FullBodyPose(rows)
    rows[0, 0] = 5.0  # the pose holds its own copy
    assert pose.rotations.shape == (3, 6) and pose.rotations[0, 0] == 1.0
    assert pose.stacked_rotations() is pose.rotations
    with pytest.raises(ValueError):
        pose.rotations[0, 0] = 5.0
    placed = pose.with_positions(np.zeros((3, 3)))
    assert placed.rotations is pose.rotations  # a frozen float64 array is kept, not copied
    assert core.FullBodyPose(pose.rotations.astype(np.float32)).rotations.dtype == np.float64
    with pytest.raises(ValueError):
        placed.positions[0, 0] = 1.0
    with pytest.raises(ValueError, match="root rotation"):
        core.FullBodyPose(np.zeros((0, 6)))


@pytest.mark.parametrize("make", [
    core.default_tree,
    lambda: core.FullBodyPose(np.tile(core.IDENTITY_6D, (2, 1)), np.zeros((2, 3))),
    lambda: core.DevicePose(0.0, [1, 2, 3], core.IDENTITY_6D),
], ids=["KinematicTree", "FullBodyPose", "DevicePose"])
def test_array_holding_records_compare_and_hash_by_identity(make):
    a, b = make(), make()
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2


def test_default_tree_structure():
    tree = core.default_tree()
    assert tree.joint_count == 22
    assert tree.parent[0] == core.ROOT_PARENT
    assert all(tree.parent[i] < i for i in range(1, 22))
    assert tree.names[0] == "pelvis"
    assert core.tracked_joints(tree) == [15, 20, 21]
    assert np.all(oracles.rest_lengths(tree) > 0)


def test_tree_rejects_bad_structure():
    with pytest.raises(ValueError):
        core.KinematicTree(("a", "b"), [-1, 1], [[0, 0, 0], [0, 1, 0]])  # parent not before child
    with pytest.raises(ValueError):
        core.KinematicTree(("a", "b"), [-1, 0], [[0, 0, 0], [0, 0, 0]])  # zero offset
    with pytest.raises(ValueError):
        core.KinematicTree(("a", "b"), [0, 0], [[0, 0, 0], [0, 1, 0]])  # no root sentinel
