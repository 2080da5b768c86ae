"""Foundational types and rotation/transform math shared by every stage.

Conventions used throughout the package:

* right-handed coordinates, y up, meters and seconds
* rotations on the wire and in descriptors use the 6D representation:
  the first two columns of the rotation matrix, stored column-by-column
  as ``[c0x, c0y, c0z, c1x, c1y, c1z]``
* a full-body pose's rotations are one (J, 6) array in tree order, root
  first: the root's global rotation, then each joint's parent-relative one
* the skeleton is a KinematicTree, pelvis first, parents before children,
  and every joint count comes from it; the shipped default is the 22-joint
  SMPL main-body subset (no palm joints)
* only the tree derives structure from its parents: the chain and incidence
  matrices that forward kinematics, the pose optimizer and the body split read
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import DegenerateRotation, NotARotation

IDENTITY_6D = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])

_COLUMN_EPS = 1e-8
_ORTHO_TOL = 1e-6


def rot6d_to_matrix(r):
    """Decode 6D rotations into orthonormal matrices via Gram-Schmidt.

    Accepts shape (..., 6), returns (..., 3, 3). The first stored column
    is normalized, the second is made orthogonal to it, the third is
    their cross product, so the result always has determinant +1.

    Raises DegenerateRotation when the first column is near zero or the
    two columns are parallel within 1e-8.
    """
    r = np.asarray(r, dtype=np.float64)
    if r.shape[-1] != 6:
        raise DegenerateRotation(f"expected 6 components, got shape {r.shape}")
    a = r[..., 0:3]
    b = r[..., 3:6]
    a_norm = np.sqrt(np.einsum("...i,...i->...", a, a))[..., None]
    if not np.all(a_norm > _COLUMN_EPS):  # catches NaN/Inf-poisoned norms too
        raise DegenerateRotation("first column norm below 1e-8 (or non-finite)")
    x = a / a_norm
    b_perp = b - np.einsum("...i,...i->...", x, b)[..., None] * x
    b_norm = np.sqrt(np.einsum("...i,...i->...", b_perp, b_perp))[..., None]
    if not np.all(b_norm > _COLUMN_EPS):
        raise DegenerateRotation("columns parallel within 1e-8 (or non-finite)")
    y = b_perp / b_norm
    z = _cross(x, y)
    out = np.stack([x, y, z], axis=-1)
    if not np.isfinite(out.sum()):
        raise DegenerateRotation("non-finite 6D rotation input")
    return out


def _cross(x, y):
    """Componentwise cross product over trailing axis 3 (faster than np.cross
    for the small batches used here)."""
    out = np.empty_like(x)
    out[..., 0] = x[..., 1] * y[..., 2] - x[..., 2] * y[..., 1]
    out[..., 1] = x[..., 2] * y[..., 0] - x[..., 0] * y[..., 2]
    out[..., 2] = x[..., 0] * y[..., 1] - x[..., 1] * y[..., 0]
    return out


def matrix_to_rot6d(matrix):
    """Extract the 6D representation (first two columns) of a rotation.

    Accepts shape (..., 3, 3); raises NotARotation if the input is not
    orthonormal with determinant +1 within 1e-6.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.shape[-2:] != (3, 3):
        raise NotARotation(f"expected 3x3 matrix, got shape {m.shape}")
    gram = m @ np.swapaxes(m, -1, -2)
    eye = np.eye(3)
    if not np.all(np.abs(gram - eye) <= _ORTHO_TOL):
        raise NotARotation("matrix is not orthonormal within 1e-6")
    if np.any(np.linalg.det(m) < 0.0):
        raise NotARotation("matrix has negative determinant")
    return np.concatenate([m[..., :, 0], m[..., :, 1]], axis=-1)


def geodesic_angle(ra, rb):
    """Angle in degrees between two rotation matrices, in [0, 180]."""
    ra = np.asarray(ra, dtype=np.float64)
    rb = np.asarray(rb, dtype=np.float64)
    trace = np.einsum("...ij,...ij->...", ra, rb)
    cos = np.clip((trace - 1.0) / 2.0, -1.0, 1.0)
    return np.degrees(np.arccos(cos))


@dataclass(frozen=True, eq=False)  # ndarray fields: identity equality and hash
class DevicePose:
    """Position and orientation (plus rates) of one tracked device.

    Velocities default to zero. The linear velocity is in m/s; the angular
    velocity is the componentwise rate of the 6D orientation, matching the
    descriptor's rot6d_rate slots (the synthetic generator takes both as
    finite differences of consecutive frames).
    """

    timestamp: float
    position: np.ndarray
    orientation: np.ndarray
    linear_velocity: np.ndarray = field(default_factory=lambda: np.zeros(3))
    angular_velocity: np.ndarray = field(default_factory=lambda: np.zeros(6))

    def __post_init__(self):
        for name, size in (("position", 3), ("orientation", 6),
                           ("linear_velocity", 3), ("angular_velocity", 6)):
            object.__setattr__(self, name, _freeze(getattr(self, name), size))


def _freeze(values, shape):
    """values as a read-only float64 ndarray of `shape`: values itself when it is one."""
    if (type(values) is np.ndarray and values.dtype == np.float64
            and not values.flags.writeable and values.reshape(shape).shape == values.shape):
        return values
    arr = np.array(values, dtype=np.float64).reshape(shape)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)  # ndarray fields: identity equality and hash
class FullBodyPose:
    """The (J, 6) rotations of a J-joint tree in the layout above, root
    first; a pose with no rows is refused.

    positions, when present, are the J x 3 world joint positions derived
    by forward kinematics (or adjusted afterwards by the pose optimizer).
    """

    rotations: np.ndarray
    positions: np.ndarray | None = None

    def __post_init__(self):
        rotations = _freeze(self.rotations, (-1, 6))
        if rotations.size == 0:
            raise ValueError("a pose needs at least the root rotation")
        object.__setattr__(self, "rotations", rotations)
        if self.positions is not None:
            object.__setattr__(self, "positions", _freeze(self.positions, (-1, 3)))

    def stacked_rotations(self):
        """All J joint rotations as a (J, 6) array, root first."""
        return self.rotations

    def with_positions(self, positions):
        return FullBodyPose(self.rotations, positions)


ROOT_PARENT = -1


@dataclass(frozen=True, eq=False)  # ndarray fields: identity equality and hash
class KinematicTree:
    """Joint names, parent indices and rest-pose bone offsets of a skeleton.

    The shipped default is the 22-joint SMPL main-body subset; smaller
    trees (chains) are accepted as long as joint 0 is the only root and
    parents precede children. Derived once, read-only, with bone b the bone
    into joint b + 1: chain (J, J - 1), 1 where bone b lies on the path from
    the root to joint j, so chain @ bone vectors gives positions relative to
    the root; incidence (J, J - 1), +1 at bone b's child and -1 at its
    parent, so incidence.T @ positions gives the bone vectors and
    incidence.T @ chain = I; depth_levels, the joints at each depth 1, 2, ...
    """

    names: tuple
    parent: np.ndarray
    rest_offset: np.ndarray

    def __post_init__(self):
        parent = np.array(self.parent, dtype=np.int64)
        n = len(parent)
        offsets = np.array(self.rest_offset, dtype=np.float64).reshape(n, 3)
        if len(self.names) != n:
            raise ValueError("names and parent arrays disagree on joint count")
        if parent[0] != ROOT_PARENT:
            raise ValueError("joint 0 must be the root")
        chain = np.zeros((n, n - 1))
        incidence = np.zeros((n, n - 1))
        for i in range(1, n):
            if not 0 <= parent[i] < i:
                raise ValueError(f"joint {i} parent must precede it (got {parent[i]})")
            if np.linalg.norm(offsets[i]) <= 0.0:
                raise ValueError(f"joint {i} rest offset must have positive length")
            chain[i] = chain[parent[i]]
            chain[i, i - 1] = incidence[i, i - 1] = 1.0
            incidence[parent[i], i - 1] = -1.0
        depth = chain.sum(axis=1)
        levels = tuple(np.nonzero(depth == d)[0] for d in range(1, int(depth.max()) + 1))
        for arr in (parent, offsets, chain, incidence):
            arr.flags.writeable = False
        # the instance is frozen: store the checked and derived fields directly
        self.__dict__.update(names=tuple(self.names), parent=parent, rest_offset=offsets,
                             chain=chain, incidence=incidence, depth_levels=levels)

    @property
    def joint_count(self):
        return len(self.parent)

    def joint_index(self, name):
        return self.names.index(name)


def _tree_from_doc(doc):
    if doc.get("format") != "epvr-skeleton":
        raise ValueError("not a skeleton definition file")
    joints = doc["joints"]
    return KinematicTree(
        names=tuple(j["name"] for j in joints),
        parent=[j["parent"] for j in joints],
        rest_offset=[j["offset"] for j in joints],
    )


def default_tree() -> KinematicTree:
    """The shipped 22-joint skeleton with average adult proportions."""
    text = resources.files("epvr.data").joinpath("skeleton.json").read_text()
    return _tree_from_doc(json.loads(text))


# Joint each tracked device sits on, in device order: headset, left
# controller, right controller. The only definition of the device-to-joint
# mapping: the generator places the devices on these joints and KPO pulls
# them toward the devices.
TRACKED_JOINT_NAMES = ("head", "left_wrist", "right_wrist")


def tracked_joints(tree: KinematicTree) -> list:
    """Index in tree of the joint each tracked device sits on, in device
    order; raises ValueError naming the first of them the tree lacks."""
    for name in TRACKED_JOINT_NAMES:
        if name not in tree.names:
            raise ValueError(f"tree has no {name!r} joint for its tracked device")
    return [tree.joint_index(name) for name in TRACKED_JOINT_NAMES]


def axis_angle_matrix(axis, angle_rad):
    """Rodrigues rotation about a (not necessarily unit) axis."""
    axis = np.asarray(axis, dtype=np.float64)
    n = np.linalg.norm(axis)
    if n == 0.0:
        return np.eye(3)
    x, y, z = axis / n
    c, s = math.cos(angle_rad), math.sin(angle_rad)
    cc = 1.0 - c
    return np.array(
        [
            [c + x * x * cc, x * y * cc - z * s, x * z * cc + y * s],
            [y * x * cc + z * s, c + y * y * cc, y * z * cc - x * s],
            [z * x * cc - y * s, z * y * cc + x * s, c + z * z * cc],
        ]
    )


def axis_angle_rot6d(axis, angle_rad):
    return matrix_to_rot6d(axis_angle_matrix(axis, angle_rad))
