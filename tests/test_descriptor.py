import dataclasses

import numpy as np
import pytest

from epvr import core, descriptor, replayfile
from epvr.errors import FileFormat, NonFiniteInput, StaleFrame, TimestampSkew

import oracles


def _pose(t=0.0, pos=(0, 0, 0), rot=None, v=(0, 0, 0), w=(0, 0, 0, 0, 0, 0)):
    rot6 = core.IDENTITY_6D if rot is None else core.matrix_to_rot6d(rot)
    return core.DevicePose(t, pos, rot6, v, w)


def test_all_identity_descriptor_layout():
    d = descriptor.build_descriptor(_pose(), _pose(), _pose())
    assert d.shape == (72,)
    for block in (d[descriptor.G_HEAD], d[descriptor.G_LEFT], d[descriptor.G_RIGHT]):
        assert np.array_equal(block[0:3], [0, 0, 0])
        assert np.array_equal(block[3:9], [1, 0, 0, 0, 1, 0])
        assert np.array_equal(block[9:12], [0, 0, 0])
        assert np.array_equal(block[12:18], [0, 0, 0, 0, 0, 0])
    for block in (d[descriptor.R_LEFT], d[descriptor.R_RIGHT]):
        assert np.array_equal(block[0:3], [0, 0, 0])
        assert np.array_equal(block[3:9], [1, 0, 0, 0, 1, 0])


def test_identity_head_relative_equals_global():
    left = _pose(pos=(0.3, -0.2, 0.4))
    d = descriptor.build_descriptor(_pose(), left, _pose())
    assert np.allclose(d[54:57], [0.3, -0.2, 0.4], atol=1e-15)


def test_relative_slots_match_transform_oracle():
    ry = oracles.quat_to_matrix(oracles.quat_from_axis_angle([0, 1, 0], np.pi / 2))
    head = _pose(rot=ry)
    left = _pose(pos=(1, 0, 0))
    d = descriptor.build_descriptor(head, left, _pose())
    want = oracles.apply_transform(
        oracles.invert_transform(oracles.make_transform(ry, [0, 0, 0])), [1, 0, 0]
    )
    assert np.max(np.abs(d[descriptor.R_LEFT][0:3] - want)) < 1e-9


def test_descriptor_round_trips_through_split():
    rng = np.random.default_rng(7)
    head = _pose(pos=rng.standard_normal(3), rot=oracles.random_rotation(rng),
                 v=rng.standard_normal(3), w=rng.standard_normal(6))
    left = _pose(pos=rng.standard_normal(3), rot=oracles.random_rotation(rng),
                 v=rng.standard_normal(3), w=rng.standard_normal(6))
    right = _pose(pos=rng.standard_normal(3), rot=oracles.random_rotation(rng),
                  v=rng.standard_normal(3), w=rng.standard_normal(6))
    d = descriptor.build_descriptor(head, left, right)
    slots = (descriptor.G_HEAD, descriptor.G_LEFT, descriptor.G_RIGHT,
             descriptor.R_LEFT, descriptor.R_RIGHT)
    # the five slots tile the descriptor in order
    assert [(s.start, s.stop) for s in slots] == [(0, 18), (18, 36), (36, 54), (54, 63), (63, 72)]
    for slot, pose in zip(slots, (head, left, right)):
        block = d[slot]
        assert np.array_equal(block[0:3], pose.position)
        assert np.array_equal(block[3:9], pose.orientation)
        assert np.array_equal(block[9:12], pose.linear_velocity)
        assert np.array_equal(block[12:18], pose.angular_velocity)


def test_rigid_transform_covariance():
    """Moving all devices by one rigid transform shifts global slots and
    leaves the relative slots unchanged."""
    rng = np.random.default_rng(8)
    poses = [
        _pose(pos=rng.standard_normal(3), rot=oracles.random_rotation(rng))
        for _ in range(3)
    ]
    q = oracles.random_rotation(rng)
    shift = rng.standard_normal(3)
    moved = [
        _pose(pos=q @ p.position + shift, rot=q @ core.rot6d_to_matrix(p.orientation))
        for p in poses
    ]
    d0 = descriptor.build_descriptor(*poses)
    d1 = descriptor.build_descriptor(*moved)
    for slot in (descriptor.R_LEFT, descriptor.R_RIGHT):
        assert np.max(np.abs(d0[slot] - d1[slot])) < 1e-9
    # pure translation moves position slots by exactly the shift
    translated = [
        _pose(pos=p.position + shift, rot=core.rot6d_to_matrix(p.orientation)) for p in poses
    ]
    d2 = descriptor.build_descriptor(*translated)
    for slot in (descriptor.G_HEAD, descriptor.G_LEFT, descriptor.G_RIGHT):
        assert np.allclose(d2[slot][0:3] - d0[slot][0:3], shift, atol=1e-12)


def test_timestamp_skew_rejected():
    with pytest.raises(TimestampSkew):
        descriptor.build_descriptor(_pose(t=0.0), _pose(t=0.001), _pose(t=0.0))


@pytest.mark.parametrize("bad", [
    dict(timestamp=np.nan), dict(position=(0, np.nan, 0)), dict(linear_velocity=(np.inf, 0, 0)),
    dict(angular_velocity=(0, 0, 0, 0, 0, np.nan)), dict(position=(np.inf, 0, 0)),
    dict(position=(-np.inf, 0, 0)), dict(orientation=(1, 0, 0, 0, np.inf, 0)),
    dict(orientation=(1, np.nan, 0, 0, 1, 0)), dict(timestamp=np.inf),
])
@pytest.mark.parametrize("device", [0, 1, 2])
@pytest.mark.filterwarnings("error")  # refused by name, before numpy can warn
def test_non_finite_device_pose_rejected(bad, device):
    poses = [_pose(), _pose(), _pose()]
    poses[device] = dataclasses.replace(poses[device], **bad)
    with pytest.raises(NonFiniteInput):
        descriptor.build_descriptor(*poses)


def _descriptor_with_marker(value):
    d = np.zeros(72)
    d[0] = value
    return d


def _pushed(t_len, count):
    """A t_len-row window after pushing markers 0..count-1 at times 0..count-1."""
    w = descriptor.DescriptorWindow(t_len)
    for i in range(count):
        descriptor.push_frame(w, _descriptor_with_marker(float(i)), float(i))
    return w


def test_push_single_frame_replicates_to_full_window():
    w = descriptor.DescriptorWindow(5)
    assert w.end_timestamp is None
    descriptor.push_frame(w, _descriptor_with_marker(3.0), 0.0)
    assert w.frames.shape == (5, 72)
    assert np.all(w.frames[:, 0] == 3.0)
    assert w.end_timestamp == 0.0


def test_push_t_plus_one_frames_keeps_last_t():
    w = _pushed(4, 5)
    assert np.array_equal(w.frames[:, 0], [1.0, 2.0, 3.0, 4.0])
    assert w.end_timestamp == 4.0


def test_push_writes_in_place():
    w = _pushed(3, 1)
    frames = w.frames
    descriptor.push_frame(w, _descriptor_with_marker(7.0), 5.0)
    assert w.frames is frames
    assert np.array_equal(frames[:, 0], [0.0, 0.0, 7.0])


def test_window_length_constant_over_any_push_count():
    t_len = 6
    for count in range(1, 3 * t_len + 1):
        w = _pushed(t_len, count)
        assert w.frames.shape == (t_len, 72)
        # the last min(count, T) pushes in order, the first one replicated before them
        want = [max(0.0, float(count - t_len + k)) for k in range(t_len)]
        assert np.array_equal(w.frames[:, 0], want)


def test_stale_frame_rejected():
    w = _pushed(3, 2)
    before = w.frames.copy()
    for t in (1.0, 0.5):
        with pytest.raises(StaleFrame):
            descriptor.push_frame(w, _descriptor_with_marker(9.0), t)
        assert np.array_equal(w.frames, before)
        assert w.end_timestamp == 1.0


def test_motion_file_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    path = tmp_path / "motion.jsonl"
    poses = []
    for i in range(5):
        poses.append(tuple(
            _pose(t=i / 60, pos=rng.standard_normal(3), rot=oracles.random_rotation(rng),
                  v=rng.standard_normal(3), w=rng.standard_normal(6))
            for _ in range(3)
        ))
    gts = [(rng.standard_normal((4, 6)), rng.standard_normal((4, 3))) for _ in poses]
    replayfile.write_replay(path, replayfile.MOTION_FORMAT, (
        replayfile.motion_record(*frame, gt=gt) for frame, gt in zip(poses, gts)
    ))
    frames = replayfile.read_motion_file(path)
    assert len(frames) == 5
    for (head, left, right, gt), want, want_gt in zip(frames, poses, gts):
        for got, exp in ((head, want[0]), (left, want[1]), (right, want[2])):
            assert got.timestamp == want[0].timestamp
            assert np.array_equal(got.position, exp.position)
            assert np.array_equal(got.orientation, exp.orientation)
            assert np.array_equal(got.linear_velocity, exp.linear_velocity)
            assert np.array_equal(got.angular_velocity, exp.angular_velocity)
        assert np.array_equal(gt[0], want_gt[0]) and np.array_equal(gt[1], want_gt[1])


def test_motion_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text("not json\n")
    with pytest.raises(FileFormat):
        replayfile.read_motion_file(path)
    path.write_text('{"format": "something-else"}\n')
    with pytest.raises(FileFormat):
        replayfile.read_motion_file(path)
