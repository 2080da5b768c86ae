"""Energy-based kinematic pose optimization.

Refines predicted joint positions so that the anchor joints match their
device-reported positions while the rest of the skeleton keeps its
predicted shape. The anchors are the tracked joints: the joints the
headset and the two controllers sit on (core.TRACKED_JOINT_NAMES), which
the session looks up in its tree.

* alignment energy: squared distance of anchor joints to their tracked
  positions, plus a self-regularization term holding the other joints
  near the prediction
* structure energy: squared change of bone length and of the joint-to-
  joint displacement vector over every skeletal link, summed over both
  directions of each link (which doubles the sum and simply rescales the
  structure weights)

Positions only: joint rotations are never touched here. The solver is
plain gradient descent with a backtracking line search, which keeps
per-frame cost bounded and deterministic. Everything except the
bone-length term is quadratic in the positions, so the solver folds
those terms into one precomputed matrix; the per-iteration cost is a
handful of small array operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .errors import ZeroLengthBone
from .kinematics import bone_vectors

_STEP_FLOOR = 1e-12


@dataclass(frozen=True)
class KpoConfig:
    lambda_a: float = 1.0
    lambda_s: float = 0.1
    lambda_l: float = 1.0
    lambda_d: float = 0.5
    max_iterations: int = 30
    step_size: float = 0.1
    energy_tolerance: float = 1e-6

    def __post_init__(self):
        for name in ("lambda_a", "lambda_s", "lambda_l", "lambda_d"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.step_size <= 0.0:
            raise ValueError("step_size must be positive")
        if self.energy_tolerance <= 0.0:
            raise ValueError("energy_tolerance must be positive")


@dataclass
class KpoReport:
    iterations: int
    final_energy: float
    energy_trace: np.ndarray
    diverged: bool = False


class KpoSolver:
    """Reusable solver: structure-dependent precomputes happen once, so
    per-frame calls only refresh the prediction- and anchor-dependent
    parts. anchors holds the index of each anchor joint, one per row of
    the targets set_arrays takes."""

    def __init__(self, cfg: KpoConfig, tree: core.KinematicTree, anchors):
        self.cfg = cfg
        self.tree = tree
        n = tree.joint_count
        self.parent = tree.parent[1:]
        m = n - 1
        # signed incidence (rows joints, columns links): +1 child, -1 parent
        inc = np.zeros((n, m))
        inc[np.arange(1, n), np.arange(m)] = 1.0
        inc[self.parent, np.arange(m)] = -1.0
        self.incidence = inc
        self.anchors = np.array(anchors, dtype=np.int64)
        self.others = np.delete(np.arange(n), self.anchors)
        # quadratic part: alignment + self-regularization + direction terms
        quad = np.zeros((n, n))
        quad[self.anchors, self.anchors] += cfg.lambda_a
        quad[self.others, self.others] += cfg.lambda_s
        quad += 2.0 * cfg.lambda_d * (inc @ inc.T)
        self.quad = quad
        self.initial = None
        self.linear = None
        self.constant = 0.0
        self.init_len = None

    def set_arrays(self, initial, targets):
        """Load one frame: predicted positions (J, 3) and the tracked
        positions of the anchor joints, one row per entry of self.anchors."""
        cfg = self.cfg
        self.initial = initial
        init_disp, self.init_len = bone_vectors(initial, self.tree)
        linear = np.zeros_like(initial)
        linear[self.anchors] = cfg.lambda_a * targets
        linear[self.others] = cfg.lambda_s * initial[self.others]
        linear += 2.0 * cfg.lambda_d * (self.incidence @ init_disp)
        self.linear = linear
        self.constant = (
            cfg.lambda_a * float(np.einsum("ij,ij->", targets, targets))
            + cfg.lambda_s
            * float(np.einsum("ij,ij->", initial[self.others], initial[self.others]))
            + 2.0 * cfg.lambda_d * float(np.einsum("ij,ij->", init_disp, init_disp))
        )

    def _eval(self, p):
        """Energy plus the intermediates the gradient reuses."""
        disp, length = bone_vectors(p, self.tree)
        ap = self.quad @ p
        dlen = length - self.init_len
        energy = (
            float(np.einsum("ij,ij->", p, ap))
            - 2.0 * float(np.einsum("ij,ij->", self.linear, p))
            + self.constant
            + 2.0 * self.cfg.lambda_l * float(np.dot(dlen, dlen))
        )
        return energy, (ap, disp, length, dlen)

    def _gradient(self, state):
        ap, disp, length, dlen = state
        grad = 2.0 * (ap - self.linear)
        grad += self.incidence @ ((4.0 * self.cfg.lambda_l * dlen / length)[:, None] * disp)
        return grad

    def energy(self, p):
        return self._eval(p)[0]

    def value_and_gradient(self, p):
        energy, state = self._eval(p)
        return energy, self._gradient(state)

    def run(self):
        cfg = self.cfg
        p = self.initial.copy()
        energy, state = self._eval(p)
        trace = [energy]
        trial = cfg.step_size
        iterations = 0
        diverged = False
        for _ in range(cfg.max_iterations):
            if energy == 0.0:
                break
            grad = self._gradient(state)
            if float(np.max(np.abs(grad))) < 1e-15:
                break
            step = trial
            accepted = False
            while step >= _STEP_FLOOR:
                candidate = p - step * grad
                try:
                    cand_energy, cand_state = self._eval(candidate)
                except ZeroLengthBone:
                    step *= 0.5
                    continue
                if cand_energy < energy:
                    accepted = True
                    break
                step *= 0.5
            if not accepted:
                diverged = True
                break
            prev_energy = energy
            p, energy, state = candidate, cand_energy, cand_state
            trace.append(energy)
            iterations += 1
            trial = min(step * 2.0, cfg.step_size)
            if (prev_energy - energy) < cfg.energy_tolerance * max(prev_energy, 1e-30):
                break
        return p, KpoReport(iterations, energy, np.array(trace), diverged)

