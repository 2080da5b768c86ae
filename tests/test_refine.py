import numpy as np
import pytest

from epvr import refine, replayfile
from epvr.errors import FileFormat, NonMonotonicTime, ShapeError

import oracles


def _frames(rng, frames=12, joints=5, zeta=None):
    z = rng.standard_normal((frames, joints, 3))
    if zeta is None:
        zeta = rng.uniform(0.0, 1.0, size=(frames, joints))
    ts = np.cumsum(rng.uniform(0.01, 0.03, size=frames))
    return z, zeta, ts


def _stream_windows(z, zeta, ts, window=None, fn=refine.refine):
    """Push every frame through one stream; the refined window after each."""
    stream = refine.KeypointStream(z.shape[1], window or len(ts))
    return [fn(stream, float(t), (zi, vi)) for zi, vi, t in zip(z, zeta, ts)]


def _full_pass(z, zeta, ts, fn=refine.refine):
    return _stream_windows(z, zeta, ts, fn=fn)[-1]


def test_full_visibility_halves_positions():
    rng = np.random.default_rng(30)
    z, zeta, ts = _frames(rng, zeta=np.ones((12, 5)))
    refined = _full_pass(z, zeta, ts)
    assert np.max(np.abs(refined - 0.5 * z)) < 1e-15


def test_zero_visibility_zeroes_positions():
    rng = np.random.default_rng(31)
    z, zeta, ts = _frames(rng, zeta=np.zeros((12, 5)))
    refined = _full_pass(z, zeta, ts)
    assert np.array_equal(refined, np.zeros_like(z))


def test_mask_is_filtered_visibility_minus_half():
    """Single joint, one-Euro reference recurrence over the zeta stream."""
    rng = np.random.default_rng(32)
    z, zeta, ts = _frames(rng, joints=1)
    refined = _full_pass(z, zeta, ts)
    smoothed = oracles.one_euro_reference(zeta[:, 0], ts, 1.0, 0.007, 1.0)
    for i in range(len(ts)):
        mask = max(smoothed[i] - 0.5, 0.0)
        assert np.max(np.abs(refined[i, 0] - z[i, 0] * mask)) < 1e-12


def test_mask_ranges():
    rng = np.random.default_rng(33)
    z, zeta, ts = _frames(rng, frames=30, joints=8)
    refined = _full_pass(z, zeta, ts)
    with np.errstate(invalid="ignore", divide="ignore"):
        implied = np.abs(refined) / np.abs(z)
    implied = implied[np.isfinite(implied)]
    assert np.all(implied <= 0.5 + 1e-12)
    refined_n = _full_pass(z, zeta, ts, refine.refine_normalized)
    with np.errstate(invalid="ignore", divide="ignore"):
        implied_n = np.abs(refined_n) / np.abs(z)
    implied_n = implied_n[np.isfinite(implied_n)]
    assert np.all(implied_n <= 1.0 + 1e-12)


def test_normalized_full_visibility_passes_through():
    rng = np.random.default_rng(34)
    z, zeta, ts = _frames(rng, zeta=np.ones((12, 5)))
    refined = _full_pass(z, zeta, ts, refine.refine_normalized)
    assert np.max(np.abs(refined - z)) < 1e-15


def test_normalized_mid_visibility_scaling():
    stream = refine.KeypointStream(1, 4)
    refined = refine.refine_normalized(stream, 0.0, (np.ones((1, 3)), np.array([0.75])))
    # first filter step passes 0.75 through: mask = min(2*(0.75-0.5), 1) = 0.5
    assert refined.shape == (1, 1, 3)
    assert np.allclose(refined, 0.5, atol=1e-15)


def test_variants_agree_below_half_visibility():
    rng = np.random.default_rng(35)
    zeta = rng.uniform(0.0, 0.45, size=(20, 6))
    z, zeta, ts = _frames(rng, frames=20, joints=6, zeta=zeta)
    literal = _full_pass(z, zeta, ts)
    normalized = _full_pass(z, zeta, ts, refine.refine_normalized)
    assert np.array_equal(literal, normalized)


def test_incremental_equals_batch_growing_stream():
    """A window longer than the stream grows by one frame per push, and
    after each push equals the prefix of the full pass."""
    rng = np.random.default_rng(36)
    for _ in range(20):
        z, zeta, ts = _frames(rng, frames=25, joints=4)
        batch = _full_pass(z, zeta, ts)
        windows = _stream_windows(z, zeta, ts, window=int(rng.integers(25, 40)))
        for end, got in enumerate(windows, start=1):
            assert np.array_equal(got, batch[:end])


def test_incremental_equals_batch_sliding_window():
    """Fixed-length windows sliding over a longer stream reproduce the
    full-stream pass on every retained frame."""
    rng = np.random.default_rng(37)
    total = 30
    z, zeta, ts = _frames(rng, frames=total, joints=3)
    batch = _full_pass(z, zeta, ts)
    for window in (1, 8):
        for end, got in enumerate(_stream_windows(z, zeta, ts, window), start=1):
            assert np.array_equal(got, batch[max(0, end - window):end])


def test_frame_by_frame_with_cache_matches_full_pass():
    """The default skeleton and window: every pushed frame is refined once
    and kept unchanged while it stays in the window."""
    rng = np.random.default_rng(38)
    z, zeta, ts = _frames(rng, frames=100, joints=22)
    batch = _full_pass(z, zeta, ts, refine.refine_normalized)
    for end, got in enumerate(_stream_windows(z, zeta, ts, 40, refine.refine_normalized), 1):
        assert np.array_equal(got, batch[max(0, end - 40):end])


def test_returned_window_is_a_copy():
    stream = refine.KeypointStream(2, 3)
    first = refine.refine(stream, 0.0, (np.ones((2, 3)), np.ones(2)))
    kept = first.copy()
    for t in (0.1, 0.2, 0.3):
        refine.refine(stream, t, (np.full((2, 3), 7.0), np.ones(2)))
    assert np.array_equal(first, kept)


def test_missing_frames_reuse_positions_with_decayed_visibility():
    stream = refine.KeypointStream(2, 8)
    assert refine.refine(stream, 0.0) is None  # nothing to carry yet
    z = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    zeta = np.array([1.0, 0.8])
    with_kp = refine.KeypointStream(2, 8)
    refine.refine(stream, 0.1, (z, zeta))
    refine.refine(with_kp, 0.1, (z, zeta))
    carried = zeta
    for t in (0.2, 0.3, 0.4):
        carried = carried * refine.MISSING_ZETA_DECAY
        got = refine.refine(stream, t)
        want = refine.refine(with_kp, t, (z, carried))
        assert np.array_equal(got, want)


def test_monotone_in_visibility_at_step_level():
    """Raising zeta at one (frame, joint) never shrinks that refined entry."""
    rng = np.random.default_rng(39)
    z = np.abs(rng.standard_normal((4, 3))) + 0.1
    base_zeta = rng.uniform(0.0, 0.9, size=4)
    lo = refine.refine(refine.KeypointStream(4, 1), 0.0, (z, base_zeta))
    bumped = np.minimum(base_zeta + 0.1, 1.0)
    hi = refine.refine(refine.KeypointStream(4, 1), 0.0, (z, bumped))
    assert np.all(np.abs(hi) >= np.abs(lo) - 1e-15)


def test_stream_rejects_time_going_backwards():
    stream = refine.KeypointStream(2, 4)
    frame = (np.ones((2, 3)), np.ones(2))
    refine.refine(stream, 1.0, frame)
    window = refine.refine(stream, 2.0, frame)
    for t in (2.0, 1.5):
        with pytest.raises(NonMonotonicTime):
            refine.refine(stream, t, frame)
        with pytest.raises(NonMonotonicTime):
            refine.refine(stream, t)  # carried-over frame
    # a rejected frame leaves the stream as it was
    assert stream.fill == 2
    assert np.array_equal(refine.refine(stream, 3.0, frame)[:2], window)


def test_sequence_validation():
    stream = refine.KeypointStream(2, 4)
    for z, zeta in (
        (np.zeros((3, 3)), np.zeros(2)),  # wrong joint count
        (np.zeros((2, 2)), np.zeros(2)),  # not 3D
        (np.zeros((2, 3)), np.zeros(3)),  # visibility of another width
        (np.zeros((2, 3)), np.zeros((1, 2))),
        (np.zeros((2, 3)), np.array([0.5, 1.5])),  # outside [0, 1]
        (np.zeros((2, 3)), np.array([-0.1, 0.5])),
        (np.zeros((2, 3)), np.array([np.nan, 0.5])),
        (np.array([[0.0, np.nan, 0.0], [0.0, 0.0, 1.0]]), np.ones(2)),  # non-finite z
        (np.array([[0.0, 0.0, np.inf], [0.0, 0.0, 1.0]]), np.ones(2)),
    ):
        with pytest.raises(ShapeError):
            stream.validated((z, zeta))
    assert stream.fill == 0 and stream.last_z is None
    with pytest.raises(ValueError):
        refine.KeypointStream(2, 0)


def test_keypoint_file_round_trip(tmp_path):
    rng = np.random.default_rng(42)
    path = tmp_path / "kp.jsonl"
    rows = [(i / 30, rng.standard_normal((4, 3)), rng.uniform(0, 1, 4)) for i in range(6)]
    replayfile.write_replay(path, replayfile.KEYPOINT_FORMAT,
                            (replayfile.keypoint_record(*row) for row in rows))
    frames = replayfile.read_keypoint_file(path)
    assert len(frames) == 6
    for (t, z, zeta), (wt, wz, wzeta) in zip(frames, rows):
        assert t == wt
        assert np.array_equal(z, wz)
        assert np.array_equal(zeta, wzeta)


def test_keypoint_file_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"format": "epvr-motion"}\n')
    with pytest.raises(FileFormat):
        replayfile.read_keypoint_file(path)
