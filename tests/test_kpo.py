import dataclasses
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from epvr import core, eval as evalmod, kinematics, kpo, pipeline
from epvr.errors import ZeroLengthBone

import oracles


# joints the headset and the two controllers sit on in the default tree
ANCHORS = core.tracked_joints(core.default_tree())
HEAD = ANCHORS[0]


def chain_tree(offsets=((0, 0.3, 0), (0, 0.25, 0))):
    names = tuple(f"j{i}" for i in range(len(offsets) + 1))
    parents = [core.ROOT_PARENT] + list(range(len(offsets)))
    rest = [(0.0, 0.0, 0.0)] + [tuple(o) for o in offsets]
    return core.KinematicTree(names, parents, rest)


def default_positions(tree, rng=None, jitter=0.0):
    pos = np.zeros((tree.joint_count, 3))
    for i in range(1, tree.joint_count):
        pos[i] = pos[tree.parent[i]] + tree.rest_offset[i]
    if jitter and rng is not None:
        pos = pos + rng.normal(0.0, jitter, size=pos.shape)
    return pos


class Problem(NamedTuple):
    """Predicted positions, tracked anchor positions by joint, skeleton."""

    initial: np.ndarray
    anchors: dict
    tree: core.KinematicTree


def random_problem(rng, tree=None, anchor_noise=0.03, jitter=0.01):
    tree = tree or core.default_tree()
    initial = default_positions(tree, rng, jitter)
    anchors = {
        k: initial[k] + rng.normal(0.0, anchor_noise, 3) for k in ANCHORS
    }
    return Problem(initial, anchors, tree)


def optimize(problem, cfg):
    solver = kpo.KpoSolver(cfg, problem.tree, list(problem.anchors))
    return solver.run(problem.initial, np.array([problem.anchors[k] for k in solver.anchors]))


def alignment_only(cfg):
    return dataclasses.replace(cfg, lambda_l=0.0, lambda_d=0.0)


def structure_only(cfg):
    return dataclasses.replace(cfg, lambda_a=0.0, lambda_s=0.0)


def naive_total(p, problem, cfg):
    return oracles.kpo_total_energy(p, problem.initial, problem.anchors, problem.tree.parent, cfg)


# --- independent oracles ----------------------------------------------------


# Joint by joint and link by link; p may carry leading batch axes, (..., J, 3).


def alignment_oracle(p, problem, cfg):
    total = 0.0
    for k in range(problem.tree.joint_count):
        if k in problem.anchors:
            d = p[..., k, :] - problem.anchors[k]
            total = total + cfg.lambda_a * np.sum(d * d, axis=-1)
        else:
            d = p[..., k, :] - problem.initial[k]
            total = total + cfg.lambda_s * np.sum(d * d, axis=-1)
    return total


def structure_oracle(p, problem, cfg):
    """Literal double sum over joints and their neighbor sets."""
    neighbors = oracles.tree_neighbors(problem.tree.parent)
    total = 0.0
    for i in range(problem.tree.joint_count):
        for j in neighbors[i]:
            d = p[..., i, :] - p[..., j, :]
            d0 = problem.initial[i] - problem.initial[j]
            dlen = np.linalg.norm(d, axis=-1) - np.linalg.norm(d0)
            total = total + cfg.lambda_l * dlen * dlen
            total = total + cfg.lambda_d * np.sum((d - d0) * (d - d0), axis=-1)
    return total


def oracle_gradient(p, problem, cfg):
    return oracles.kpo_gradient(p, problem.initial, problem.anchors, problem.tree.parent, cfg)


def fd_gradient(energy, p, h=1e-5):
    grad = np.zeros_like(p)
    for idx in np.ndindex(p.shape):
        plus = p.copy()
        plus[idx] += h
        minus = p.copy()
        minus[idx] -= h
        grad[idx] = (energy(plus) - energy(minus)) / (2 * h)
    return grad


# --- alignment energy (the structure weights zeroed) --------------------------


def test_alignment_zero_at_exact_match():
    rng = np.random.default_rng(60)
    problem = random_problem(rng)
    cfg = alignment_only(kpo.KpoConfig())
    p = problem.initial.copy()
    for k in ANCHORS:
        p[k] = problem.anchors[k]
    assert naive_total(p, problem, cfg) == 0.0


def test_alignment_single_displacement_arithmetic():
    rng = np.random.default_rng(61)
    problem = random_problem(rng)
    cfg = alignment_only(kpo.KpoConfig(lambda_a=2.5))
    p = problem.initial.copy()
    for k in ANCHORS:
        p[k] = problem.anchors[k]
    d = 0.07
    p[HEAD] = problem.anchors[HEAD] + np.array([d, 0, 0])
    assert abs(naive_total(p, problem, cfg) - 2.5 * d * d) < 1e-15


def test_alignment_matches_term_by_term_oracle():
    rng = np.random.default_rng(62)
    for _ in range(20):
        problem = random_problem(rng)
        cfg = alignment_only(
            kpo.KpoConfig(lambda_a=rng.uniform(0.1, 3), lambda_s=rng.uniform(0, 1))
        )
        p = problem.initial + rng.normal(0, 0.05, problem.initial.shape)
        got = naive_total(p, problem, cfg)
        assert abs(got - alignment_oracle(p, problem, cfg)) < 1e-12


# --- structure energy (the alignment weights zeroed) --------------------------


def test_structure_zero_at_initial():
    rng = np.random.default_rng(63)
    problem = random_problem(rng)
    assert naive_total(problem.initial, problem, structure_only(kpo.KpoConfig())) == 0.0


def test_structure_translation_invariant():
    rng = np.random.default_rng(64)
    problem = random_problem(rng)
    p = problem.initial + np.array([0.4, -1.2, 0.9])
    assert naive_total(p, problem, structure_only(kpo.KpoConfig())) < 1e-24


def test_structure_matches_edge_enumeration_oracle():
    rng = np.random.default_rng(65)
    for _ in range(20):
        problem = random_problem(rng)
        cfg = structure_only(
            kpo.KpoConfig(lambda_l=rng.uniform(0.1, 3), lambda_d=rng.uniform(0.1, 2))
        )
        p = problem.initial + rng.normal(0, 0.03, problem.initial.shape)
        got = naive_total(p, problem, cfg)
        assert abs(got - structure_oracle(p, problem, cfg)) < 1e-12


def test_structure_rejects_collapsed_bone():
    """A prediction with a collapsed bone is refused, also when the anchors
    already sit on their targets and there is nothing to solve."""
    tree = chain_tree()
    p = default_positions(tree)
    p[1] = p[0]
    for target in (p[2], p[2] + 0.05):
        with pytest.raises(ZeroLengthBone):
            optimize(Problem(p, {2: target}, tree), kpo.KpoConfig())


# --- total energy and gradient ------------------------------------------------


def test_total_is_sum_of_parts():
    rng = np.random.default_rng(66)
    problem = random_problem(rng)
    cfg = kpo.KpoConfig()
    p = problem.initial + rng.normal(0, 0.02, problem.initial.shape)
    total = naive_total(p, problem, cfg)
    parts = alignment_oracle(p, problem, cfg) + structure_oracle(p, problem, cfg)
    assert abs(total - parts) < 1e-12


def test_solver_energy_matches_naive_total():
    """The energy the solver reports, from its folded quadratic form, is the
    term-by-term energy of the positions it returns."""
    rng = np.random.default_rng(67)
    for _ in range(10):
        problem = random_problem(rng)
        cfg = kpo.KpoConfig(lambda_a=1.7, lambda_s=0.3, lambda_l=2.0, lambda_d=0.8)
        out, report = optimize(problem, cfg)
        assert report.iterations > 0
        assert abs(report.final_energy - naive_total(out, problem, cfg)) < 1e-10


def test_gradient_zero_at_joint_minimum():
    rng = np.random.default_rng(68)
    tree = core.default_tree()
    initial = default_positions(tree, rng, 0.005)
    anchors = {k: initial[k].copy() for k in ANCHORS}
    problem = Problem(initial, anchors, tree)
    grad = oracle_gradient(initial, problem, kpo.KpoConfig())
    assert np.max(np.abs(grad)) < 1e-12


def test_gradient_pure_anchor_term():
    rng = np.random.default_rng(69)
    tree = core.default_tree()
    initial = default_positions(tree, rng, 0.005)
    anchors = {k: initial[k].copy() for k in ANCHORS}
    problem = Problem(initial, anchors, tree)
    cfg = kpo.KpoConfig(lambda_a=1.3, lambda_s=0.5, lambda_l=0.0, lambda_d=0.0)
    d = 0.04
    p = initial.copy()
    p[HEAD, 0] += d
    grad = oracle_gradient(p, problem, cfg)
    want = np.zeros_like(grad)
    want[HEAD, 0] = 2 * 1.3 * d
    assert np.max(np.abs(grad - want)) < 1e-12


def test_gradient_matches_central_differences():
    rng = np.random.default_rng(70)
    for _ in range(10):
        problem = random_problem(rng)
        cfg = kpo.KpoConfig(
            lambda_a=rng.uniform(0.5, 2), lambda_s=rng.uniform(0.01, 0.5),
            lambda_l=rng.uniform(0.5, 2), lambda_d=rng.uniform(0.1, 1),
        )
        p = problem.initial + rng.normal(0, 0.02, problem.initial.shape)
        analytic = oracle_gradient(p, problem, cfg)
        numeric = fd_gradient(lambda q: naive_total(q, problem, cfg), p)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-6)
        assert np.max(rel) < 1e-4


# --- optimizer ----------------------------------------------------------------


def test_optimize_fixed_point_when_anchors_satisfied():
    rng = np.random.default_rng(71)
    tree = core.default_tree()
    initial = default_positions(tree, rng, 0.01)
    anchors = {k: initial[k].copy() for k in ANCHORS}
    problem = Problem(initial, anchors, tree)
    out, report = optimize(problem, kpo.KpoConfig())
    assert report.iterations <= 1
    assert report.final_energy < 1e-20
    assert np.array_equal(out, initial)


def test_optimize_three_joint_chain_matches_grid_search():
    rng = np.random.default_rng(72)
    tree = chain_tree()
    cfg = kpo.KpoConfig(
        lambda_a=1.0, lambda_s=0.0, lambda_l=1.0, lambda_d=0.5,
        max_iterations=3000, energy_tolerance=1e-18,
    )
    for _ in range(5):
        initial = default_positions(tree) + rng.normal(0, 0.02, (3, 3))
        target = initial[2] + rng.normal(0.0, 0.01, 3)
        problem = Problem(initial, {2: target}, tree)
        got, report = optimize(problem, cfg)

        # dense displacement lattice around the anchor offset
        center = target - initial[2]
        steps = np.arange(-15, 16) * 2e-4
        grid = np.stack(np.meshgrid(steps, steps, steps, indexing="ij"), axis=-1).reshape(-1, 3)
        candidates = initial + (center + grid)[:, None, :]
        energy = alignment_oracle(candidates, problem, cfg) + structure_oracle(candidates, problem, cfg)
        best_p = candidates[np.argmin(energy)]
        assert np.max(np.linalg.norm(got - best_p, axis=1)) < 4e-4


def test_optimize_monotone_trace_and_anchor_improvement():
    """No iteration raises the energy: the runs capped at k = 1 ... n
    iterations, n the uncapped count, end at strictly falling energies, all
    below E(initial). The prediction keeps its own bones, so E(initial) is its
    summed squared anchor error: the optimum can only lower that sum. A
    single anchor may still move away from its device."""
    rng = np.random.default_rng(73)
    cfg = kpo.KpoConfig()
    for _ in range(50):
        problem = random_problem(rng)
        out, report = optimize(problem, cfg)
        before = sum(np.sum((problem.initial[k] - problem.anchors[k]) ** 2) for k in ANCHORS)
        steps = range(1, report.iterations + 1)
        capped = [optimize(problem, dataclasses.replace(cfg, max_iterations=k))[1] for k in steps]
        assert [r.iterations for r in capped] == list(steps)
        energies = [cfg.lambda_a * before] + [r.final_energy for r in capped]
        assert np.all(np.diff(energies) < 0)
        assert energies[-1] == report.final_energy
        after = sum(np.sum((out[k] - problem.anchors[k]) ** 2) for k in ANCHORS)
        assert after < before


def test_run_reaches_a_stationary_point():
    """The iteration's fixed point is a stationary point of the energy; the
    tolerance sets how close the stop comes (the default 1e-6 leaves
    gradients up to about 5e-5)."""
    rng = np.random.default_rng(77)
    cfg = kpo.KpoConfig(energy_tolerance=1e-9)
    for _ in range(10):
        problem = random_problem(rng)
        out, report = optimize(problem, cfg)
        assert report.iterations < cfg.max_iterations and not report.diverged
        assert np.max(np.abs(oracle_gradient(out, problem, cfg))) < 1e-5


def test_run_energy_matches_long_gradient_descent():
    rng = np.random.default_rng(78)
    cfg = kpo.KpoConfig()
    for _ in range(5):
        problem = random_problem(rng)
        _, report = optimize(problem, cfg)
        _, descent = oracles.kpo_gradient_descent(
            problem.initial, problem.anchors, problem.tree.parent, cfg, 4000)
        assert report.final_energy <= descent + 1e-6


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 30), st.integers(0, 2**32 - 1))
def test_solves_on_random_trees_use_the_trees_incidence(joint_count, seed):
    """The solver keeps no incidence of its own; its links are the tree's
    bones, so the energy it reports is the term-by-term energy over them."""
    rng = np.random.default_rng(seed)
    tree = oracles.random_tree(rng, joint_count)
    initial = default_positions(tree, rng, jitter=0.01)
    joints = rng.choice(joint_count, size=min(3, joint_count), replace=False).tolist()
    problem = Problem(initial, {k: initial[k] + rng.normal(0.0, 0.03, 3) for k in joints}, tree)
    cfg = kpo.KpoConfig()
    solver = kpo.KpoSolver(cfg, tree, joints)
    assert not hasattr(solver, "incidence")
    out, report = solver.run(initial, np.array([problem.anchors[k] for k in joints]))
    assert abs(report.final_energy - naive_total(out, problem, cfg)) < 1e-10
    assert report.final_energy <= naive_total(initial, problem, cfg)


# --- warm start ----------------------------------------------------------------


def unit_bones(positions, tree):
    bones, length = kinematics.bone_vectors(positions, tree)
    return bones / length[:, None]


def test_a_warm_start_from_the_converged_solution_accepts_at_most_one_iteration():
    rng = np.random.default_rng(80)
    cfg = kpo.KpoConfig()
    for _ in range(20):
        problem = random_problem(rng)
        solver = kpo.KpoSolver(cfg, problem.tree, list(problem.anchors))
        targets = np.array([problem.anchors[k] for k in solver.anchors])
        cold, cold_report = solver.run(problem.initial, targets)
        assert cold_report.iterations > 1
        warm, report = solver.run(problem.initial, targets, unit_bones(cold, problem.tree))
        assert report.iterations <= 1
        assert report.final_energy <= cold_report.final_energy
        assert abs(report.final_energy - naive_total(warm, problem, cfg)) < 1e-10


def test_a_warm_start_worse_than_the_cold_one_is_dropped():
    """Reversed bones start far above the prediction's own, and a NaN start
    has no energy: either is dropped, and the solve is the cold one bit for bit."""
    rng = np.random.default_rng(81)
    for _ in range(10):
        problem = random_problem(rng)
        solver = kpo.KpoSolver(kpo.KpoConfig(), problem.tree, list(problem.anchors))
        targets = np.array([problem.anchors[k] for k in solver.anchors])
        cold, cold_report = solver.run(problem.initial, targets)
        directions = unit_bones(cold, problem.tree)
        for start in (-directions, np.full_like(directions, np.nan)):
            warm, report = solver.run(problem.initial, targets, start)
            assert np.array_equal(warm, cold) and report == cold_report


class ColdBeside:
    """Solves each frame as the session asks, and cold beside it."""

    def __init__(self, solver):
        self.solver, self.reports = solver, []  # (report, cold report) per frame

    def run(self, initial, targets, directions=None):
        positions, report = self.solver.run(initial, targets, directions)
        self.reports.append((report, self.solver.run(initial, targets)[1]))
        return positions, report


@pytest.mark.parametrize("config", [
    pipeline.PipelineConfig(),
    pipeline.PipelineConfig(predictor="heuristic", use_keypoints=False, use_fusion=False),
], ids=["default", "hmd-only"])
def test_a_session_warm_starts_each_frame_no_higher_than_cold(config):
    """Over a 600-frame walk each frame's warm-started solve ends at most 1e-4
    (relative) above the cold solve of the same frame, and needs far fewer
    iterations. KPO is the last stage, so the solves see the same input."""
    seq = evalmod.generate_sequence("walk", 10.0, 60.0, seed=1)
    z, zeta = evalmod.noisy_keypoints(seq, 0.01, seed=2)
    session = pipeline.PipelineSession(config)
    beside = session._kpo_solver = ColdBeside(session._kpo_solver)
    for i in range(seq.frame_count):
        session.process_frame(seq.head[i], seq.left[i], seq.right[i], (z[i], zeta[i]))
    warm = np.array([(r.final_energy, r.iterations) for r, _ in beside.reports])
    cold = np.array([(r.final_energy, r.iterations) for _, r in beside.reports])
    assert len(warm) == 600
    assert np.all(warm[:, 0] <= cold[:, 0] * (1.0 + 1e-4))
    assert np.mean(warm[:, 1]) < 0.7 * np.mean(cold[:, 1])


def test_singular_system_run_is_refused():
    """With lambda_a = lambda_s = 0 nothing holds the body in place, and with
    lambda_s = lambda_l = lambda_d = 0 nothing holds the joints but the
    anchors: the solver refuses to run."""
    problem = random_problem(np.random.default_rng(79))
    free_joints = kpo.KpoConfig(lambda_s=0.0, lambda_l=0.0, lambda_d=0.0)
    for cfg in (structure_only(kpo.KpoConfig()), free_joints):
        with pytest.raises(ValueError, match="singular"):
            optimize(problem, cfg)


def test_optimize_translation_equivariance():
    rng = np.random.default_rng(74)
    problem = random_problem(rng)
    cfg = kpo.KpoConfig()
    shift = np.array([0.7, -0.3, 1.1])
    moved = Problem(
        problem.initial + shift,
        {k: v + shift for k, v in problem.anchors.items()},
        problem.tree,
    )
    a, _ = optimize(problem, cfg)
    b, _ = optimize(moved, cfg)
    assert np.max(np.abs(b - (a + shift))) < 1e-9


def test_structure_preserved_with_large_length_weight():
    rng = np.random.default_rng(75)
    tree = core.default_tree()
    cfg = kpo.KpoConfig(lambda_a=1.0, lambda_s=0.01, lambda_l=1000.0, lambda_d=0.5,
                        max_iterations=100)
    for _ in range(10):
        initial = default_positions(tree, rng, 0.01)
        anchors = {
            k: initial[k] + rng.normal(0.0, 0.02, 3) for k in ANCHORS
        }
        for k, v in anchors.items():
            anchors[k] = initial[k] + (v - initial[k]) * min(
                1.0, 0.05 / max(np.linalg.norm(v - initial[k]), 1e-12)
            )
        problem = Problem(initial, anchors, tree)
        out, _ = optimize(problem, cfg)
        init_len = np.linalg.norm(
            initial[1:] - initial[tree.parent[1:]], axis=1
        )
        out_len = np.linalg.norm(out[1:] - out[tree.parent[1:]], axis=1)
        assert np.max(np.abs(out_len - init_len)) < 1e-3


def test_optimize_reduces_error_toward_truth():
    """Noisy prediction, exact anchors: optimization moves the skeleton
    closer to the ground truth."""
    rng = np.random.default_rng(76)
    tree = core.default_tree()
    truth = default_positions(tree, rng, 0.01)
    noisy = truth + rng.normal(0.0, 0.02, truth.shape)
    problem = Problem(noisy, {k: truth[k] for k in ANCHORS}, tree)
    out, _ = optimize(problem, kpo.KpoConfig())
    before = np.mean(np.linalg.norm(noisy - truth, axis=1))
    after = np.mean(np.linalg.norm(out - truth, axis=1))
    assert after < before


def test_config_validation():
    with pytest.raises(ValueError):
        kpo.KpoConfig(lambda_a=-1.0)
    with pytest.raises(ValueError):
        kpo.KpoConfig(max_iterations=0)
    with pytest.raises(TypeError):  # the unit step of the local-global solve has no size
        kpo.KpoConfig(step_size=0.1)
    with pytest.raises(ValueError):
        kpo.KpoConfig(energy_tolerance=0.0)

