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

Positions only: joint rotations are never touched here. All but the
bone-length term is quadratic, and (|d| - l0)^2 = min over unit u of
|d - l0 u|^2, so the solver alternates a local step (each bone projected
onto its predicted length) with a global step (the quadratic minimizer for
those bones, one multiply by a matrix fixed per skeleton): the local-global
iteration of Sorkine & Alexa, "As-Rigid-As-Possible Surface Modeling" (SGP
2007). No iteration raises the energy, so it needs no step size. It stops
when the relative energy decrease falls below energy_tolerance, or at the
max_iterations safety cap.

The links are the tree's bones, read through its signed incidence matrix
(tree.incidence), the bone operator of the scheme. KpoSolver(cfg, tree,
anchors) builds the global-step matrix from it once per skeleton;
run(initial, targets) then solves one frame from the predicted positions
and the tracked anchor positions, and keeps no per-frame state.

Warm start: at 60 Hz one frame's solution is close to the next one's. A
caller may pass run the unit bone directions of its previous solution; run
scales them to this frame's predicted bone lengths, and that second start
is evaluated next to the usual one, the prediction's own bones, in one
stacked product. The solve goes on from the warm start only when its
energy is below both the prediction's and the first iterate's from the
prediction's bones; otherwise it is dropped and the solve is exactly the
one without directions. So a warm start never begins above a cold one. A
warm solve that the cap cuts short has not converged, and along a slow
mode it may end above where the cold solve would; run then solves cold as
well and keeps the lower of the two. The caller owns the directions
(pipeline.PipelineSession keeps them per session), and the solver stays
stateless and shareable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import core
from .kinematics import MIN_BONE_LENGTH, bone_vectors


@dataclass(frozen=True)
class KpoConfig:
    lambda_a: float = 1.0
    lambda_s: float = 0.1
    lambda_l: float = 1.0
    lambda_d: float = 0.5
    max_iterations: int = 30
    energy_tolerance: float = 1e-6

    def __post_init__(self):
        for name in ("lambda_a", "lambda_s", "lambda_l", "lambda_d"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.energy_tolerance <= 0.0:
            raise ValueError("energy_tolerance must be positive")


@dataclass
class KpoReport:
    iterations: int  # accepted iterations: each lowered the energy
    final_energy: float
    diverged: bool = False


class KpoSolver:
    """Solver for one skeleton: the global-step matrices are built once from
    the tree's incidence; run(initial, targets, directions=None) solves one
    frame and keeps nothing of it. anchors holds each anchor joint's index,
    one per target row."""

    def __init__(self, cfg: KpoConfig, tree: core.KinematicTree, anchors):
        self.cfg = cfg
        self.tree = tree
        n = tree.joint_count
        inc = tree.incidence
        self.anchors = np.array(anchors, dtype=np.int64)
        self.others = np.delete(np.arange(n), self.anchors)
        # A: alignment + self-regularization + direction + length terms. The
        # global step for projected bones w: p = A^-1 (linear + 2 lambda_l inc w)
        # = p0 + G w, with bone vectors d0 + K w. A is singular when the weights
        # leave a joint free; such a solver refuses to run.
        a = np.zeros((n, n))
        a[self.anchors, self.anchors] += cfg.lambda_a
        a[self.others, self.others] += cfg.lambda_s
        a += 2.0 * cfg.lambda_d * (inc @ inc.T)
        eig, vec = np.linalg.eigh(a + 2.0 * cfg.lambda_l * (inc @ inc.T))
        self._a_inv = None
        if eig[0] > 1e-12 * eig[-1]:
            self._a_inv = (vec / eig) @ vec.T
            self._g = 2.0 * cfg.lambda_l * (self._a_inv @ inc)
            self._k = inc.T @ self._g

    def run(self, initial, targets, directions=None):
        """Minimize one frame's energy from the predicted positions (J, 3)
        and the anchors' tracked positions: (positions (J, 3), KpoReport).
        directions, when given, are unit bone directions (J - 1, 3) to warm
        start from, such as those of the previous frame's solution; iterations
        then counts the accepted iterations after that start, plus the cold
        solve's when the cap cut the warm one short. Raises
        ZeroLengthBone on a prediction with a collapsed bone, and ValueError
        when the weights leave a joint free (lambda_a = lambda_s = 0)."""
        if self._a_inv is None:
            raise ValueError("KPO system is singular: the weights leave a joint free")
        cfg = self.cfg
        init_disp, init_len = bone_vectors(initial, self.tree)
        # the prediction keeps its bone lengths, so its energy is the alignment term
        miss = initial[self.anchors] - targets
        energy = cfg.lambda_a * float(np.einsum("ij,ij->", miss, miss))
        if energy == 0.0:
            return initial.copy(), KpoReport(0, energy)
        linear = np.zeros_like(initial)
        linear[self.anchors] = cfg.lambda_a * targets
        linear[self.others] = cfg.lambda_s * initial[self.others]
        linear += 2.0 * cfg.lambda_d * (self.tree.incidence @ init_disp)
        p0 = self._a_inv @ linear
        d0 = self.tree.incidence.T @ p0
        two_l = 2.0 * cfg.lambda_l
        # energy of p0 + G w is c + 2 lambda_l (<w, K w> - 2 <|d|, l0>)
        c = (cfg.lambda_a * float(np.einsum("ij,ij->", targets, targets))
             + cfg.lambda_s * float(np.einsum("ij,ij->", initial[self.others], initial[self.others]))
             + 2.0 * cfg.lambda_d * float(np.einsum("ij,ij->", init_disp, init_disp))
             - float(np.einsum("ij,ij->", linear, p0))
             + two_l * float(np.dot(init_len, init_len)))
        w = init_disp  # the prediction's bones: the first local step
        best, iterations, warm = None, 0, False
        if directions is None:
            kw = self._k @ w
        else:
            # both starts through K at once; each product is the one a lone start gets
            starts = np.array((w, init_len[:, None] * directions))
            kws = self._k @ starts
            d = d0 + kws
            length = np.sqrt(np.einsum("sij,sij->si", d, d))
            start_energy = c + two_l * (np.einsum("sij,sij->s", starts, kws)
                                        - 2.0 * (length @ init_len))
            warm = bool(length[1].min() >= MIN_BONE_LENGTH
                        and start_energy[1] < min(start_energy[0], energy))
            if warm:
                energy, best = float(start_energy[1]), starts[1]
                w = (init_len / length[1])[:, None] * d[1]
                kw = self._k @ w
            else:
                kw = kws[0]
        for _ in range(cfg.max_iterations):
            d = d0 + kw
            length = np.sqrt(np.einsum("ij,ij->i", d, d))
            candidate = c + two_l * (float(np.vdot(w, kw))
                                     - 2.0 * float(np.dot(length, init_len)))
            # a collapsed bone cannot be projected: keep the last good iterate
            diverged = not length.min() >= MIN_BONE_LENGTH
            if diverged or not candidate < energy:
                break
            prev_energy, energy, best = energy, candidate, w
            iterations += 1
            if prev_energy - energy < cfg.energy_tolerance * prev_energy:
                break
            w = (init_len / length)[:, None] * d
            kw = self._k @ w
        p = initial.copy() if best is None else p0 + self._g @ best
        report = KpoReport(iterations, energy, diverged)
        if warm and iterations == cfg.max_iterations:
            # cut by the cap, the warm solve may lie further along a slow mode
            # than the cold one would: solve cold as well and keep the lower
            cold, cold_report = self.run(initial, targets)
            if cold_report.final_energy < energy:
                p, report = cold, cold_report
            report.iterations = iterations + cold_report.iterations
        return p, report
