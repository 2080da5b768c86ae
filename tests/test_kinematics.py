import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epvr import core, kinematics
from epvr.errors import ShapeError, ZeroLengthBone

import oracles


def _random_pose(rng):
    return core.FullBodyPose(
        np.stack([core.matrix_to_rot6d(oracles.random_rotation(rng)) for _ in range(22)]))


def _cumulative_offsets(tree):
    """Identity-pose joint positions by summing offsets up the chain."""
    pos = np.zeros((tree.joint_count, 3))
    for i in range(1, tree.joint_count):
        pos[i] = pos[tree.parent[i]] + tree.rest_offset[i]
    return pos


def test_identity_pose_positions_are_cumulative_offsets():
    tree = core.default_tree()
    head = tree.joint_index("head")
    got = kinematics.forward_kinematics(oracles.rest_pose(), tree, np.zeros(3))
    want = _cumulative_offsets(tree)
    want -= want[head]
    assert np.max(np.abs(got - want)) < 1e-12
    assert np.allclose(got[head], 0.0, atol=1e-15)


def test_anchor_translation_commutes_exactly():
    tree = core.default_tree()
    rng = np.random.default_rng(50)
    pose = _random_pose(rng)
    t = np.array([1.0, 2.0, 3.0])
    at_zero = kinematics.forward_kinematics(pose, tree, np.zeros(3))
    at_t = kinematics.forward_kinematics(pose, tree, t)
    assert np.array_equal(at_t, at_zero + t)


def test_anchor_translation_from_arbitrary_base():
    tree = core.default_tree()
    rng = np.random.default_rng(51)
    pose = _random_pose(rng)
    base = rng.standard_normal(3)
    t = rng.standard_normal(3)
    a = kinematics.forward_kinematics(pose, tree, base)
    b = kinematics.forward_kinematics(pose, tree, base + t)
    assert np.max(np.abs(b - (a + t))) < 1e-12


def test_root_rotation_rigidly_rotates_about_head_anchor():
    tree = core.default_tree()
    ry = oracles.quat_to_matrix(oracles.quat_from_axis_angle([0, 1, 0], np.pi / 2))
    anchor = np.array([0.3, 1.6, -0.2])
    identity_pose = oracles.rest_pose()
    base = kinematics.forward_kinematics(identity_pose, tree, anchor)
    rotations = identity_pose.rotations.copy()
    rotations[0] = core.matrix_to_rot6d(ry)
    rotated_pose = core.FullBodyPose(rotations)
    got = kinematics.forward_kinematics(rotated_pose, tree, anchor)
    want = (base - anchor) @ ry.T + anchor
    assert np.max(np.abs(got - want)) < 1e-9


def test_rigidity_over_random_rotations():
    tree = core.default_tree()
    rest = oracles.rest_lengths(tree)
    rng = np.random.default_rng(52)
    anchor = np.array([0, 1.6, 0])
    for _ in range(200):
        pose = _random_pose(rng)
        pos = kinematics.forward_kinematics(pose, tree, anchor)
        _, lengths = kinematics.bone_vectors(pos, tree)
        assert np.max(np.abs(lengths - rest)) < 1e-9


def test_orthonormalization_invariance():
    """Raw 6D inputs and pre-orthonormalized 6D inputs give the same FK."""
    tree = core.default_tree()
    rng = np.random.default_rng(53)
    raw = rng.standard_normal((22, 6)) * 2.0
    pose_raw = core.FullBodyPose(raw)
    pose_ortho = core.FullBodyPose(core.matrix_to_rot6d(core.rot6d_to_matrix(raw)))
    anchor = np.array([0.5, 1.5, 0.5])
    a = kinematics.forward_kinematics(pose_raw, tree, anchor)
    b = kinematics.forward_kinematics(pose_ortho, tree, anchor)
    assert np.max(np.abs(a - b)) < 1e-9


def test_bone_vectors_identity_pose():
    tree = core.default_tree()
    pos = _cumulative_offsets(tree)
    disp, lengths = kinematics.bone_vectors(pos, tree)
    assert np.max(np.abs(lengths - oracles.rest_lengths(tree))) < 1e-12
    assert np.allclose(np.linalg.norm(disp / lengths[:, None], axis=1), 1.0, atol=1e-12)


def test_bone_vectors_translation_invariant():
    tree = core.default_tree()
    rng = np.random.default_rng(55)
    pos = _cumulative_offsets(tree) + 0.01 * rng.standard_normal((22, 3))
    d0, l0 = kinematics.bone_vectors(pos, tree)
    d1, l1 = kinematics.bone_vectors(pos + np.array([5.0, -2.0, 1.0]), tree)
    assert np.max(np.abs(l0 - l1)) < 1e-12
    assert np.max(np.abs(d0 / l0[:, None] - d1 / l1[:, None])) < 1e-12


def test_bone_vectors_match_direct_arithmetic():
    tree = core.default_tree()
    rng = np.random.default_rng(56)
    anchor = rng.standard_normal(3)
    pos = kinematics.forward_kinematics(_random_pose(rng), tree, anchor)
    disp, lengths = kinematics.bone_vectors(pos, tree)
    for k, child in enumerate(range(1, tree.joint_count)):
        diff = pos[child] - pos[tree.parent[child]]
        assert abs(lengths[k] - np.linalg.norm(diff)) < 1e-12
        assert np.array_equal(disp[k], diff)


def test_bone_vectors_zero_length_rejected():
    tree = core.default_tree()
    pos = np.zeros((22, 3))
    with pytest.raises(ZeroLengthBone):
        kinematics.bone_vectors(pos, tree)


def test_bone_vectors_nan_rejected():
    tree = core.default_tree()
    pos = _cumulative_offsets(tree)
    pos[5] = np.nan
    with pytest.raises(ZeroLengthBone, match="joint 5"):
        kinematics.bone_vectors(pos, tree)


def test_forward_chain_rotations_are_the_ancestor_products():
    tree = core.default_tree()
    rng = np.random.default_rng(57)
    pose = _random_pose(rng)
    anchor = np.array([0, 1.6, 0])
    pos, rot = kinematics.forward_chain(pose.rotations, tree, anchor)
    assert np.array_equal(pos, kinematics.forward_kinematics(pose, tree, anchor))
    local = core.rot6d_to_matrix(pose.rotations)
    for j in range(tree.joint_count):
        expected, k = np.eye(3), j
        while k >= 0:
            expected = local[k] @ expected
            k = tree.parent[k]
        assert np.max(np.abs(rot[j] - expected)) < 1e-12


def _chain_tree():
    """Three joints in a line along +y, the head at the tip."""
    return core.KinematicTree(("root", "mid", "head"), [-1, 0, 1],
                              [[0, 0, 0], [0, 0.5, 0], [0, 0.25, 0]])


def test_forward_chain_poses_a_tree_of_any_size():
    tree = _chain_tree()
    rz = oracles.quat_to_matrix(oracles.quat_from_axis_angle([0, 0, 1], np.pi / 2))
    pose = core.FullBodyPose([core.IDENTITY_6D, core.matrix_to_rot6d(rz), core.IDENTITY_6D])
    anchor = np.zeros(3)
    pos, rot = kinematics.forward_chain(pose.rotations, tree, anchor)
    # the root bone stays on +y, the rotated mid joint turns its child bone to -x
    want = np.array([[0.0, 0.0, 0.0], [0.0, 0.5, 0.0], [-0.25, 0.5, 0.0]])
    assert np.max(np.abs(pos - (want - want[2]))) < 1e-12
    assert rot.shape == (3, 3, 3)
    assert np.max(np.abs(rot[2] - rz)) < 1e-12


@pytest.mark.parametrize("rotations", [2, 4, 22])
def test_forward_chain_rejects_a_rotation_count_the_tree_does_not_have(rotations):
    pose = oracles.rest_pose(rotations)
    anchor = np.zeros(3)
    with pytest.raises(ShapeError, match=rf"\({rotations}, 6\)"):
        kinematics.forward_chain(pose.rotations, _chain_tree(), anchor)


def test_forward_chain_poses_a_batch_as_the_per_frame_calls():
    tree = core.default_tree()
    rng = np.random.default_rng(58)
    rotations = np.stack([_random_pose(rng).rotations for _ in range(6)])
    anchors = rng.standard_normal((6, 3))
    pos, rot = kinematics.forward_chain(rotations, tree, anchors)
    assert pos.shape == (6, 22, 3) and rot.shape == (6, 22, 3, 3)
    for i in range(6):
        one_pos, one_rot = kinematics.forward_chain(rotations[i], tree, anchors[i])
        assert np.array_equal(pos[i], one_pos)
        assert np.array_equal(rot[i], one_rot)
    # any leading shape: a (2, 3) grid of poses
    grid_pos, grid_rot = kinematics.forward_chain(
        rotations.reshape(2, 3, 22, 6), tree, anchors.reshape(2, 3, 3))
    assert np.array_equal(grid_pos.reshape(pos.shape), pos)
    assert np.array_equal(grid_rot.reshape(rot.shape), rot)


# --- random trees: the chain product against the level-by-level oracle --------

TREES = settings(max_examples=60, deadline=None)
joint_counts = st.integers(1, 30)
seeds = st.integers(0, 2**32 - 1)


@TREES
@given(joint_counts, seeds)
def test_chain_fk_matches_the_level_oracle_on_random_trees(joint_count, seed):
    rng = np.random.default_rng(seed)
    tree = oracles.random_tree(rng, joint_count)
    rotations = np.stack([
        [core.matrix_to_rot6d(oracles.random_rotation(rng)) for _ in range(joint_count)]
        for _ in range(4)])
    anchors = rng.standard_normal((4, 3))
    anchor_joint = int(rng.integers(joint_count))
    pos, rot = kinematics.forward_chain(rotations, tree, anchors, anchor_joint)
    want_pos, want_rot = oracles.forward_chain_levels(rotations, tree, anchors, anchor_joint)
    assert np.max(np.abs(pos - want_pos)) < 1e-12
    assert np.array_equal(rot, want_rot)
    for i in range(4):
        one_pos, _ = kinematics.forward_chain(rotations[i], tree, anchors[i], anchor_joint)
        assert np.max(np.abs(one_pos - want_pos[i])) < 1e-12


@TREES
@given(joint_counts, seeds)
def test_the_tree_operators_are_read_only_inverses(joint_count, seed):
    tree = oracles.random_tree(np.random.default_rng(seed), joint_count)
    assert tree.chain.shape == tree.incidence.shape == (joint_count, joint_count - 1)
    # a bone's child and parent chains differ by that bone alone
    assert np.array_equal(tree.incidence.T @ tree.chain, np.eye(joint_count - 1))
    for operator in (tree.chain, tree.incidence):
        with pytest.raises(ValueError, match="read-only"):
            operator[0] = 1.0
