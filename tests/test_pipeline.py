import dataclasses
import hashlib
import json

import numpy as np
import pytest

from epvr import cli, core, eval as evalmod, kpo, neural, pipeline, refine, replayfile
from epvr.errors import NonFiniteInput, ShapeError
from epvr.filtering import VectorFilterBank

import oracles

WINDOW = 5


class RecordingPredictor:
    """Rest pose for every frame from a WINDOW-frame window; keeps a copy of
    each keypoints argument."""

    window = WINDOW
    reads_keypoints = True

    def __init__(self):
        self.seen = []

    def predict(self, window, keypoints):
        self.seen.append(None if keypoints is None else np.array(keypoints))
        return oracles.rest_pose()


def _session(**overrides):
    cfg = pipeline.PipelineConfig(
        predictor="heuristic", use_fusion=False, use_filter=False, use_kpo=False, **overrides,
    )
    recorder = RecordingPredictor()
    return pipeline.PipelineSession(cfg, predictor=recorder), recorder


def _walk(frames, seed=1):
    seq = evalmod.generate_sequence("walk", frames / 60.0, 60.0, seed=seed)
    z, zeta = evalmod.noisy_keypoints(seq, 0.01, seed=seed + 1)
    return seq, z, zeta


def _expected(seq, z, zeta, present, normalized=False):
    """Refined window per frame from a visibility filter bank run over the
    carried-over visibility stream; None until keypoints first arrive."""
    bank = VectorFilterBank(seq.tree.joint_count)
    rows, out = [], []
    last_z = carry = None
    for i in range(seq.frame_count):
        if present[i]:
            last_z, carry = z[i], zeta[i]
        elif last_z is not None:
            carry = carry * refine.MISSING_ZETA_DECAY
        if last_z is None:
            out.append(None)
            continue
        mask = np.maximum(bank.step(carry, seq.timestamps[i]) - 0.5, 0.0)
        if normalized:
            mask = np.minimum(2.0 * mask, 1.0)
        rows.append(last_z * mask[:, None])
        out.append(np.array(rows[-WINDOW:]))
    return out


def _drive(session, seq, z, zeta, present):
    for i in range(seq.frame_count):
        kp = (z[i], zeta[i]) if present[i] else None
        session.process_frame(seq.head[i], seq.left[i], seq.right[i], kp)


def _assert_same(seen, expected):
    assert len(seen) == len(expected)
    for got, want in zip(seen, expected):
        if want is None:
            assert got is None
        else:
            assert np.array_equal(got, want)


@pytest.mark.parametrize("normalized", [False, True])
def test_predictor_sees_refined_window_longer_stream(normalized):
    seq, z, zeta = _walk(3 * WINDOW)
    present = [True] * seq.frame_count
    session, recorder = _session(use_refine_normalized=normalized)
    _drive(session, seq, z, zeta, present)
    _assert_same(recorder.seen, _expected(seq, z, zeta, present, normalized))
    assert all(len(w) == WINDOW for w in recorder.seen[WINDOW - 1:])


def test_missing_keypoints_decay_visibility_and_reuse_positions():
    seq, z, zeta = _walk(16)
    present = [i % 3 == 0 or i > 12 for i in range(seq.frame_count)]
    session, recorder = _session()
    _drive(session, seq, z, zeta, present)
    _assert_same(recorder.seen, _expected(seq, z, zeta, present))


def test_predictor_gets_none_before_first_keypoints():
    seq, z, zeta = _walk(10)
    present = [i >= 4 for i in range(seq.frame_count)]
    session, recorder = _session()
    _drive(session, seq, z, zeta, present)
    assert recorder.seen[:4] == [None] * 4
    _assert_same(recorder.seen, _expected(seq, z, zeta, present))


def test_keypoint_stage_off_passes_none():
    seq, z, zeta = _walk(4)
    cfg = pipeline.PipelineConfig(predictor="heuristic", use_keypoints=False, use_fusion=False)
    recorder = RecordingPredictor()
    session = pipeline.PipelineSession(cfg, predictor=recorder)
    _drive(session, seq, z, zeta, [True] * seq.frame_count)
    assert recorder.seen == [None] * seq.frame_count


# --- config serialisation ------------------------------------------------------


def _custom_config():
    return pipeline.PipelineConfig(
        predictor="heuristic", use_keypoints=True, use_refine_normalized=True,
        use_fusion=False, use_filter=False, weights_path="w.bin", replay_file="r.jsonl",
    )


def test_config_holds_only_the_settings_a_caller_sets():
    assert [f.name for f in dataclasses.fields(pipeline.PipelineConfig)] == [
        "predictor", "use_keypoints", "use_refine_normalized", "use_fusion", "use_filter",
        "use_kpo", "weights_path", "replay_file",
    ]


def test_config_round_trips_through_json():
    cfg = _custom_config()
    assert pipeline.PipelineConfig.from_dict(cfg.to_dict()) == cfg
    assert pipeline.PipelineConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg
    assert pipeline.PipelineConfig.from_dict({}) == pipeline.PipelineConfig()


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="use_kpo_"):
        pipeline.PipelineConfig.from_dict({"use_kpo_": False})
    # settings that were removed: random weights always use seed 0
    for key in ("prediction_noise_sigma", "prediction_noise_seed", "weights_seed"):
        with pytest.raises(ValueError, match=key):
            pipeline.PipelineConfig.from_dict({key: 1})


def test_config_refuses_the_keys_that_became_constants_by_name():
    # the window is the predictor's own, the rest are fixed parameters
    removed = ["window", "kpo", "filter_min_cutoff", "filter_beta", "filter_d_cutoff",
               "refine_min_cutoff", "refine_beta", "refine_d_cutoff", "missing_zeta_decay"]
    doc = {**pipeline.PipelineConfig().to_dict(), **dict.fromkeys(removed, 1)}
    with pytest.raises(ValueError) as refused:
        pipeline.PipelineConfig.from_dict(doc)
    assert str(refused.value) == f"unknown PipelineConfig keys: {sorted(removed)}"


def test_config_refuses_the_removed_kpo_step_size():
    # the local-global KPO solve takes unit steps and fixed weights; a config
    # that sets the old gradient step is refused rather than silently ignored
    with pytest.raises(ValueError, match="'kpo'"):
        pipeline.PipelineConfig.from_dict({"kpo": {"step_size": 0.1}})


def test_kpo_stops_at_its_tolerance_on_an_hmd_only_walk():
    config = pipeline.PipelineConfig(predictor="heuristic", use_keypoints=False,
                                     use_fusion=False)
    seq = evalmod.generate_sequence("walk", 5.0, 60.0, seed=1)
    session = pipeline.PipelineSession(config)
    reports = [session.process_frame(seq.head[i], seq.left[i], seq.right[i]).kpo
               for i in range(seq.frame_count)]
    iterations = np.array([r.iterations for r in reports])
    assert np.mean(iterations >= kpo.KpoConfig().max_iterations) == 0.0  # cap share
    assert np.all(iterations >= 1) and not any(r.diverged for r in reports)
    off = pipeline.PipelineSession(dataclasses.replace(config, use_kpo=False))
    assert off.process_frame(seq.head[0], seq.left[0], seq.right[0]).kpo is None


def test_ablation_changes_only_the_named_stage():
    cfg = _custom_config()
    ablated = cli.apply_ablation(cfg, ["filter", "kpo"])
    assert ablated == pipeline.PipelineConfig(
        **{**cfg.__dict__, "use_filter": False, "use_kpo": False}
    )
    with pytest.raises(ValueError):
        cli.apply_ablation(cfg, ["nothing"])


# --- skeleton facts ------------------------------------------------------------


@pytest.mark.parametrize("joint,device,other", [(20, 1, 2), (21, 2, 1)])
def test_kpo_pulls_each_observed_joint_toward_its_own_device(joint, device, other):
    """Moving one controller by 0.2 m moves the wrist it sits on, and
    hardly the other wrist."""
    tracked = core.tracked_joints(core.default_tree())
    assert tracked[device] == joint
    seq, _, _ = _walk(1)
    devices = [seq.head[0], seq.left[0], seq.right[0]]
    moved = list(devices)
    moved[device] = dataclasses.replace(
        devices[device], position=devices[device].position + np.array([0.2, 0.0, 0.0])
    )
    cfg = pipeline.PipelineConfig(predictor="heuristic", use_keypoints=False, use_fusion=False,
                                  use_filter=False)
    base = pipeline.PipelineSession(cfg).process_frame(*devices).pose.positions
    shifted = pipeline.PipelineSession(cfg).process_frame(*moved).pose.positions
    follow = np.linalg.norm(shifted - base, axis=1)
    assert follow[joint] > 0.1
    assert follow[joint] > 10.0 * follow[tracked[other]]


def test_ground_truth_record_takes_its_joint_count_from_the_data(tmp_path):
    seq, _, _ = _walk(2)
    devices = seq.head[0], seq.left[0], seq.right[0]
    gt = ([[1, 0, 0, 0, 1, 0]] * 3, [[0.0, float(i), 0.0] for i in range(3)])
    path = tmp_path / "motion.jsonl"
    replayfile.write_replay(path, replayfile.MOTION_FORMAT, [
        replayfile.motion_record(*devices, gt=gt), replayfile.motion_record(*devices)
    ])
    (*_, (rots, pos)), (*_, missing) = replayfile.read_motion_file(path)
    assert rots.shape == (3, 6) and pos.shape == (3, 3)
    assert np.array_equal(rots, gt[0]) and np.array_equal(pos, gt[1])
    assert missing is None


def _chain_tree():
    """Four joints in a line along +y, the head and both wrists on it."""
    return core.KinematicTree(("pelvis", "left_wrist", "right_wrist", "head"), [-1, 0, 1, 2],
                              [[0, 0, 0], [0, 0.3, 0], [0, 0.3, 0], [0, 0.3, 0]])


@pytest.mark.parametrize("predictor", ["neural", "heuristic"])
def test_session_takes_the_skeleton_size_from_its_tree(predictor):
    tree = _chain_tree()
    cfg = pipeline.PipelineConfig(predictor=predictor, use_fusion=predictor == "neural")
    session = pipeline.PipelineSession(cfg, tree)
    seq, _, _ = _walk(3)
    kp = (np.zeros((4, 3)), np.ones(4))
    for i in range(seq.frame_count):
        result = session.process_frame(seq.head[i], seq.left[i], seq.right[i], kp)
    assert result.pose.rotations.shape == (4, 6)
    assert result.pose.positions.shape == (4, 3)


def test_session_refuses_a_tree_without_a_tracked_joint():
    tree = core.KinematicTree(("pelvis", "spine", "right_wrist", "head"), [-1, 0, 1, 1],
                              [[0, 0, 0], [0, 0.3, 0], [0.3, 0, 0], [0, 0.3, 0]])
    cfg = pipeline.PipelineConfig(predictor="heuristic", use_keypoints=False, use_fusion=False)
    with pytest.raises(ValueError, match="'left_wrist'"):
        pipeline.PipelineSession(cfg, tree)


@pytest.mark.parametrize("field,value", [("joints", 5), ("keypoint_dim", 15)])
def test_weights_that_do_not_fit_the_tree_are_refused(tmp_path, field, value):
    net_cfg = neural.NetConfig(**{"window": WINDOW, field: value})
    path = tmp_path / "weights.epvr"
    neural.save_weights(path, *neural.init_weights(net_cfg, 0), net_cfg)
    cfg = pipeline.PipelineConfig(weights_path=str(path))
    with pytest.raises(ValueError, match=f"weights built for {field} {value}"):
        pipeline.build_predictor(cfg, core.default_tree())


def test_weights_that_fit_the_tree_are_used(tmp_path):
    net_cfg = neural.NetConfig(window=WINDOW)
    path = tmp_path / "weights.epvr"
    neural.save_weights(path, *neural.init_weights(net_cfg, 3), net_cfg)
    predictor = pipeline.build_predictor(
        pipeline.PipelineConfig(weights_path=str(path)), core.default_tree()
    )
    assert predictor.net_cfg == net_cfg


def test_weights_built_for_another_window_are_served_with_it(tmp_path):
    net_cfg = neural.NetConfig(window=7)
    path = tmp_path / "weights.epvr"
    neural.save_weights(path, *neural.init_weights(net_cfg, 0), net_cfg)
    cfg = pipeline.PipelineConfig(weights_path=str(path))
    predictor = pipeline.build_predictor(cfg, core.default_tree())
    assert predictor.window == 7
    seen = []  # (descriptor frames, keypoint frames) of each call
    predict = predictor.predict

    def recording(window, keypoints):
        seen.append((len(window.frames), len(keypoints)))
        return predict(window, keypoints)

    predictor.predict = recording
    session = pipeline.PipelineSession(cfg, predictor=predictor)
    seq, z, zeta = _walk(10)
    _drive(session, seq, z, zeta, [True] * seq.frame_count)
    assert seen == [(7, min(i + 1, 7)) for i in range(10)]


def _pose_rows(session, seq, z, zeta, frames):
    """Rotations and positions of each frame as one row; keypoints go with
    every second frame when the session's config feeds them."""
    rows = []
    for i in frames:
        kp = (z[i], zeta[i]) if session.config.use_keypoints and i % 2 == 0 else None
        pose = session.process_frame(seq.head[i], seq.left[i], seq.right[i], kp).pose
        rows.append(np.concatenate([pose.rotations.ravel(), pose.positions.ravel()]))
    return np.array(rows)


def test_a_predictor_that_reads_no_keypoints_skips_refine(monkeypatch):
    def refuse(*args):
        raise AssertionError("refine ran for a predictor that reads no keypoints")

    # the session binds the refine function when it is built
    monkeypatch.setattr(refine, "refine", refuse)
    walk = _walk(300)
    with_keypoints = pipeline.PipelineConfig(predictor="heuristic", use_fusion=False)
    session = pipeline.PipelineSession(with_keypoints)
    poses = _pose_rows(session, *walk, range(300))
    hmd_only = pipeline.PipelineSession(dataclasses.replace(with_keypoints, use_keypoints=False))
    assert np.array_equal(poses, _pose_rows(hmd_only, *walk, range(300)))
    assert hashlib.sha256(poses.tobytes()).hexdigest().startswith("51feaabb")
    # keypoints are still validated: a bad frame is refused
    seq, z, zeta = walk
    with pytest.raises(ShapeError):
        session.process_frame(seq.head[0], seq.left[0], seq.right[0], (z[0], zeta[0][:5]))


def test_the_neural_predictor_encodes_with_the_weights_it_names():
    """loopbench's tracer names the two encoders by predictor.motion_w and visual_w,
    so these are the very weight objects the plan encodes with, not copies."""
    predictor = pipeline.build_predictor(pipeline.PipelineConfig(), core.default_tree())
    for weights, cast in zip((predictor.motion_w, predictor.visual_w), predictor.plan.encoders):
        for field in dataclasses.fields(weights):
            if not field.name.endswith("_layers"):
                assert getattr(cast, field.name) is getattr(weights, field.name)


def test_sessions_sharing_a_predictor_equal_lone_sessions():
    cfg = pipeline.PipelineConfig()
    shared = pipeline.build_predictor(cfg, core.default_tree())
    walks = _walk(60), _walk(60, seed=2)
    # 60 frames: the keypoint window fills over the first 39, then stays full
    sessions = [pipeline.PipelineSession(cfg, predictor=shared) for _ in walks]
    interleaved = [[], []]
    for i in range(60):
        for rows, session, walk in zip(interleaved, sessions, walks):
            rows.append(_pose_rows(session, *walk, [i])[0])
    for rows, walk in zip(interleaved, walks):
        assert np.array_equal(np.array(rows), _pose_rows(pipeline.PipelineSession(cfg), *walk,
                                                         range(60)))


@pytest.mark.parametrize("config,ceiling", [
    (pipeline.PipelineConfig(), 610),
    (pipeline.PipelineConfig(predictor="heuristic", use_keypoints=False, use_fusion=False), 433),
], ids=["default", "hmd-only"])
def test_python_calls_per_frame_stay_under_their_ceiling(config, ceiling):
    """Python-level calls (call and c_call events) per frame over 100 frames
    after 60 warm-up frames. The count is deterministic, so it shows a
    dispatch regression that timing noise hides."""
    seq, z, zeta = _walk(160)
    frames = [(seq.head[i], seq.left[i], seq.right[i], (z[i], zeta[i]) if config.use_keypoints
               else None) for i in range(160)]
    session = pipeline.PipelineSession(config)
    for frame in frames[:60]:
        session.process_frame(*frame)
    assert cli.calls_per_frame(session, frames[60:]) <= ceiling


@pytest.mark.parametrize("predictor,window", [("heuristic", 1), ("neural", 40)])
def test_session_windows_are_the_predictors(predictor, window):
    cfg = pipeline.PipelineConfig(predictor=predictor)
    session = pipeline.PipelineSession(cfg)
    assert session.predictor.window == window
    assert session._window.frames.shape[0] == window
    assert session._keypoints.refined.shape[0] == window


# --- rejected frames -------------------------------------------------------------


def _visibility_of_five(head, left, right, kp):
    return head, left, right, (kp[0], kp[1][:5])


def _nan_keypoint(head, left, right, kp):
    z = kp[0].copy()
    z[3, 1] = np.nan
    return head, left, right, (z, kp[1])


def _nan_head_position(head, left, right, kp):
    return dataclasses.replace(head, position=[np.nan, 1.6, 0.0]), left, right, kp


def _nan_timestamp(head, left, right, kp):
    head, left, right = (dataclasses.replace(d, timestamp=np.nan) for d in (head, left, right))
    return head, left, right, kp


@pytest.mark.parametrize("spoil,predictor,error", [
    (_visibility_of_five, "neural", ShapeError),
    (_nan_keypoint, "neural", ShapeError),
    (_nan_head_position, "heuristic", NonFiniteInput),
    (_nan_timestamp, "heuristic", NonFiniteInput),
])
def test_a_rejected_frame_leaves_the_session_unchanged(spoil, predictor, error):
    seq, z, zeta = _walk(61)
    cfg = pipeline.PipelineConfig(predictor=predictor)
    clean = pipeline.PipelineSession(cfg)
    probed = pipeline.PipelineSession(cfg)

    def frame(i):
        return seq.head[i], seq.left[i], seq.right[i], (z[i], zeta[i])

    clean.process_frame(*frame(0))
    probed.process_frame(*frame(0))
    with pytest.raises(error):
        probed.process_frame(*spoil(*frame(1)))
    for i in range(1, 61):
        want = clean.process_frame(*frame(i)).pose
        got = probed.process_frame(*frame(i)).pose
        assert np.array_equal(got.rotations, want.rotations)
        assert np.array_equal(got.positions, want.positions)
