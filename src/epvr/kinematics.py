"""Forward kinematics: rotations to world joint positions.

World rotations are chained from the root one depth level at a time, and
each rest offset turned by its parent's world rotation is a bone vector.
The tree's chain matrix less the anchor joint's row sums the bones into
positions, with the anchor joint on the tracked headset position: the
joint the headset sits on, the first of core.TRACKED_JOINT_NAMES. Rotations
are (J, 6), root first (the core layout): the body's orientation comes from
row 0, the predicted root rotation, alone.

forward_chain poses any number of frames in one call (the synthetic
generator poses a whole sequence at once); forward_kinematics is the
per-pose entry the pipeline calls for each frame.
"""

from __future__ import annotations

import numpy as np

from . import core
from .errors import ShapeError, ZeroLengthBone

MIN_BONE_LENGTH = 1e-9  # m; a shorter bone has collapsed


def forward_chain(rotations, tree: core.KinematicTree, anchor_position,
                  anchor_joint: int | None = None):
    """World positions (..., J, 3) and world rotation matrices (..., J, 3, 3)
    of every joint, for any number of poses at once.

    rotations is (..., J, 6), root first as in FullBodyPose.rotations, and
    anchor_position (..., 3) holds one anchor per pose. Each chain is
    accumulated from the root, then translated as one rigid body so the
    anchor joint (by default the joint the headset sits on) lands on its
    anchor_position. Raises ShapeError unless there is one rotation per
    tree joint.
    """
    rotations = np.asarray(rotations, dtype=np.float64)
    n = tree.joint_count
    if rotations.ndim < 2 or rotations.shape[-2:] != (n, 6):
        raise ShapeError(f"rotations have shape {rotations.shape}, tree has {n} joints")
    # joint-major (J, B, ...): each depth level is one integer index on axis
    # 0, which costs a single pose less than indexing [:, level] would
    locals_ = core.rot6d_to_matrix(rotations).reshape(-1, n, 3, 3).swapaxes(0, 1)
    parent = tree.parent
    rot = np.empty(locals_.shape)
    rot[0] = locals_[0]
    for level in tree.depth_levels:
        rot[level] = rot[parent[level]] @ locals_[level]
    # every rest offset turned by its parent's world rotation: the bone vectors
    bones = np.einsum("kbij,kj->kbi", rot[parent[1:]], tree.rest_offset[1:])
    if anchor_joint is None:
        anchor_joint = tree.joint_index(core.TRACKED_JOINT_NAMES[0])
    # one (J, J - 1) @ (J - 1, 3) product per pose, so that a pose's sums do
    # not depend on how many poses share the call
    positions = ((tree.chain - tree.chain[anchor_joint]) @ bones.swapaxes(0, 1)
                 + np.reshape(anchor_position, (-1, 1, 3)))
    batch = rotations.shape[:-1]
    return positions.reshape(batch + (3,)), rot.swapaxes(0, 1).reshape(batch + (3, 3))


def forward_kinematics(pose: core.FullBodyPose, tree: core.KinematicTree, anchor_position,
                       anchor_joint: int | None = None):
    """World positions (J x 3) of every joint of one pose; see forward_chain."""
    return forward_chain(pose.rotations, tree, anchor_position, anchor_joint)[0]


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
