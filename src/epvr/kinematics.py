"""Forward kinematics: rotations to world joint positions.

The skeleton is posed in a local frame by chaining parent rotations and
rest offsets from the root, then rigidly translated so the anchor joint
lands on the tracked headset position. The anchor is the joint the headset
sits on, the first of core.TRACKED_JOINT_NAMES. The body's orientation
comes from the predicted root rotation alone.
"""

from __future__ import annotations

import numpy as np

from . import core
from .errors import ShapeError, ZeroLengthBone

MIN_BONE_LENGTH = 1e-9  # m; a shorter bone has collapsed


def forward_chain(pose: core.FullBodyPose, tree: core.KinematicTree, anchor_position,
                  anchor_joint: int | None = None):
    """World positions (J x 3) and world rotation matrices (J x 3 x 3) of
    every joint.

    The chain is accumulated from the root, then translated as one rigid
    body so the anchor joint (by default the joint the headset sits on)
    lands on anchor_position. Raises ShapeError unless the pose has one
    rotation per tree joint.
    """
    stacked = pose.stacked_rotations()
    n = tree.joint_count
    if len(stacked) != n:
        raise ShapeError(f"pose has {len(stacked)} rotations, tree has {n} joints")
    locals_ = core.rot6d_to_matrix(stacked)
    parent = tree.parent
    offsets = tree.rest_offset
    rot = np.empty((n, 3, 3))
    raw = np.empty((n, 3))
    rot[0] = locals_[0]
    raw[0] = 0.0
    for level in tree.depth_levels:
        par = parent[level]
        parent_rot = rot[par]
        rot[level] = parent_rot @ locals_[level]
        raw[level] = raw[par] + np.einsum("kij,kj->ki", parent_rot, offsets[level])
    if anchor_joint is None:
        anchor_joint = tree.joint_index(core.TRACKED_JOINT_NAMES[0])
    return raw - raw[anchor_joint] + anchor_position, rot


def forward_kinematics(pose: core.FullBodyPose, tree: core.KinematicTree, anchor_position,
                       anchor_joint: int | None = None):
    """World positions (J x 3) of every joint; see forward_chain."""
    return forward_chain(pose, tree, anchor_position, anchor_joint)[0]


def bone_vectors(positions, tree: core.KinematicTree):
    """Per-bone displacement parent -> child (J-1, 3) and length (J-1,).

    Raises ZeroLengthBone when any bone is shorter than 1e-9 m or its
    length is NaN.
    """
    disp = positions[1:] - positions[tree.parent[1:]]
    length = np.sqrt(np.einsum("ij,ij->i", disp, disp))
    if not np.all(length >= MIN_BONE_LENGTH):
        bad = 1 + int(np.flatnonzero(~(length >= MIN_BONE_LENGTH))[0])
        raise ZeroLengthBone(f"bone into joint {bad} has near-zero or undefined length")
    return disp, length
