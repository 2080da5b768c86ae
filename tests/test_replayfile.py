import json

import numpy as np
import pytest

from epvr import core, eval as evalmod, pipeline, replayfile
from epvr.errors import FileFormat, FrameCountMismatch

READERS = [
    (replayfile.MOTION_FORMAT, replayfile.read_motion_file),
    (replayfile.KEYPOINT_FORMAT, replayfile.read_keypoint_file),
]

_DEVICE = core.DevicePose(0.0, [0, 0, 0], core.IDENTITY_6D)
# one well-formed record per format, for the records that differ from it only in "t"
GOOD = {
    replayfile.MOTION_FORMAT: replayfile.motion_record(_DEVICE, _DEVICE, _DEVICE),
    replayfile.KEYPOINT_FORMAT: replayfile.keypoint_record(0.0, [[0.0, 0.0, 1.0]], [1.0]),
}
BAD_T = ["0.5", None, True, float("nan"), float("inf")]


def _write(path, lines):
    path.write_text("".join(line + "\n" for line in lines))


@pytest.mark.parametrize("fmt, read", READERS)
def test_header_names_the_format(tmp_path, fmt, read):
    path = tmp_path / "empty.jsonl"
    replayfile.write_replay(path, fmt, [])
    doc = json.loads(path.read_text())
    assert doc == replayfile.header(fmt) and doc["format"] == fmt
    assert read(path) == []


@pytest.mark.parametrize("fmt, read", READERS)
def test_other_format_is_rejected(tmp_path, fmt, read):
    other = next(f for f, _ in READERS if f != fmt)
    for head in [json.dumps(replayfile.header(other)), "[1, 2]", "not json"]:
        path = tmp_path / "other.jsonl"
        _write(path, [head])
        with pytest.raises(FileFormat):
            read(path)


@pytest.mark.parametrize("fmt, read", READERS)
@pytest.mark.parametrize("bad", ["not json", "{}", "[1]", '{"t": 0.0, "Z": "x", "zeta": [1]}']
                         + [{"t": t} for t in BAD_T])
def test_bad_record_names_its_line(tmp_path, fmt, read, bad):
    why = ""
    if isinstance(bad, dict):  # the format's good record with a bad "t"
        bad, why = json.dumps({**GOOD[fmt], **bad}), r" \(t must be a finite number"
    path = tmp_path / "bad.jsonl"
    _write(path, [json.dumps(replayfile.header(fmt)), "", bad])
    with pytest.raises(FileFormat, match=rf"bad\.jsonl:3: bad frame record{why}"):
        read(path)


def test_synthetic_sequence_comes_back_exactly(tmp_path):
    seq = evalmod.generate_sequence("walk", 0.5, 30.0, seed=5)
    motion, keypoints = tmp_path / "s.motion.jsonl", tmp_path / "s.keypoints.jsonl"
    pipeline.write_sequence_files(seq, motion, keypoints, noise_sigma=0.01, noise_seed=5)
    z, zeta = evalmod.noisy_keypoints(seq, 0.01, 5)

    frames = replayfile.read_motion_file(motion)
    assert len(frames) == seq.frame_count
    for i, (head, left, right, (rots, pos)) in enumerate(frames):
        for got, want in ((head, seq.head[i]), (left, seq.left[i]), (right, seq.right[i])):
            assert got.timestamp == want.timestamp
            assert np.array_equal(got.position, want.position)
            assert np.array_equal(got.orientation, want.orientation)
            assert np.array_equal(got.linear_velocity, want.linear_velocity)
            assert np.array_equal(got.angular_velocity, want.angular_velocity)
        assert np.array_equal(rots, seq.rotations[i])
        assert np.array_equal(pos, seq.positions[i])

    kp_frames = replayfile.read_keypoint_file(keypoints)
    assert len(kp_frames) == seq.frame_count
    for i, (t, got_z, got_zeta) in enumerate(kp_frames):
        assert t == seq.timestamps[i]
        assert np.array_equal(got_z, z[i]) and np.array_equal(got_zeta, zeta[i])


_J = core.default_tree().joint_count
_GT = (np.tile(core.IDENTITY_6D, (_J, 1)), np.random.default_rng(0).normal(size=(_J, 3)))
MISMATCHED = [
    (replayfile.KEYPOINT_FORMAT, replayfile.read_keypoint_file,
     replayfile.keypoint_record(0.0, np.ones((_J, 3)), np.ones(2)), r"zeta must have shape \(22,\), not \(2,\)"),
    (replayfile.KEYPOINT_FORMAT, replayfile.read_keypoint_file,
     replayfile.keypoint_record(0.0, np.ones((_J, 2)), np.ones(_J)), r"Z must have shape \('J', 3\), not \(22, 2\)"),
    (replayfile.MOTION_FORMAT, replayfile.read_motion_file,
     replayfile.motion_record(_DEVICE, _DEVICE, _DEVICE, gt=(_GT[0], _GT[1][:3])),
     r"gt p must have shape \(22, 3\), not \(3, 3\)"),
    (replayfile.MOTION_FORMAT, replayfile.read_motion_file,
     replayfile.motion_record(_DEVICE, _DEVICE, _DEVICE, gt=(_GT[0][:, :5], _GT[1])),
     r"gt r6 must have shape \('J', 6\), not \(22, 5\)"),
]


@pytest.mark.parametrize("fmt, read, record, why", MISMATCHED,
                         ids=["zeta", "Z-width", "gt-positions", "gt-width"])
def test_joint_counts_that_disagree_are_refused(tmp_path, fmt, read, record, why):
    path = tmp_path / "bad.jsonl"
    replayfile.write_replay(path, fmt, [GOOD[fmt], record])
    with pytest.raises(FileFormat, match=rf"bad\.jsonl:3: bad frame record \({why}"):
        read(path)


def test_replay_refuses_files_of_another_skeleton(tmp_path):
    motion, keypoints = tmp_path / "m.jsonl", tmp_path / "k.jsonl"
    later = core.DevicePose(0.1, [0, 0, 0], core.IDENTITY_6D)
    good_gt = replayfile.motion_record(_DEVICE, _DEVICE, _DEVICE, gt=_GT)
    three_gt = replayfile.motion_record(later, later, later, gt=(_GT[0][:3], _GT[1][:3]))
    good_kp = replayfile.keypoint_record(0.0, np.ones((_J, 3)), np.ones(_J))
    three_kp = replayfile.keypoint_record(0.1, np.ones((3, 3)), np.ones(3))
    config = pipeline.PipelineConfig(predictor="heuristic", use_fusion=False)
    good_later = replayfile.motion_record(later, later, later, gt=_GT)
    good_kp_later = replayfile.keypoint_record(0.1, np.ones((_J, 3)), np.ones(_J))
    cases = [([good_gt, three_gt], [good_kp, good_kp_later], r"m.jsonl:3: .*gt r6 must have shape \(22, 6\), not \(3, 6\)"),
             ([good_gt, good_later], [good_kp, three_kp], r"k.jsonl:3: .*Z must have shape \(22, 3\), not \(3, 3\)")]
    for motion_records, kp_records, why in cases:
        replayfile.write_replay(motion, replayfile.MOTION_FORMAT, motion_records)
        replayfile.write_replay(keypoints, replayfile.KEYPOINT_FORMAT, kp_records)
        with pytest.raises(FileFormat, match=why):
            pipeline.run_replay(motion, keypoints, config)


def test_replay_refuses_a_keypoint_file_one_frame_short(tmp_path):
    seq = evalmod.generate_sequence("walk", 0.1, 60.0, seed=4)
    motion, keypoints = tmp_path / "s.motion.jsonl", tmp_path / "s.keypoints.jsonl"
    pipeline.write_sequence_files(seq, motion, keypoints)
    lines = keypoints.read_text().splitlines(keepends=True)
    keypoints.write_text("".join(lines[:-1]))
    config = pipeline.PipelineConfig(predictor="heuristic", use_fusion=False)
    with pytest.raises(FrameCountMismatch, match=f"{seq.frame_count} motion frames vs "
                                                 f"{seq.frame_count - 1} keypoint frames"):
        pipeline.run_replay(motion, keypoints, config)
